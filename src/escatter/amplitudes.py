"""Direct and exchange Coulomb amplitudes in the CM frame.

Amplitudes are kept real and unnormalized; every entropy routine
normalizes its own probability vector, because each spin channel carries
its own normalization convention.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class SpinChannel(Enum):
    """Which amplitude combination (and angular domain) applies.

    SPINLESS         : single-particle detection of either electron, |f|^2;
                       also a pair told apart by a spin filter
    PARALLEL         : both spins aligned, antisymmetric spatial part, |f-g|^2
    ANTIPARALLEL     : opposite spins, both direct and exchange contribute,
                       |f|^2 + |g|^2
    """

    SPINLESS = "spinless"
    PARALLEL = "parallel"
    ANTIPARALLEL = "antiparallel"


#: Channels whose angular domain is the half shell [epsilon, pi/2].
HALF_SHELL_CHANNELS = (SpinChannel.PARALLEL, SpinChannel.ANTIPARALLEL)


def direct_amplitude(theta, K):
    """Direct Coulomb amplitude f(theta) = 1 / (4 K^2 sin^2(theta/2)).

    Singular at theta = 0; callers must stay above the kinematic cutoff
    angle.  Accepts scalars or arrays in (0, pi].
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or np.any(theta > np.pi):
        raise ValueError("direct amplitude requires 0 < theta <= pi "
                         "(singular in the forward direction)")
    s = np.sin(0.5 * theta)
    out = 1.0 / (4.0 * K * K * s * s)
    return float(out) if out.ndim == 0 else out


def exchange_amplitude(theta, K):
    """Exchange amplitude g(theta) = f(pi - theta) = 1 / (4 K^2 cos^2(theta/2)).

    Singular at theta = pi.  Accepts scalars or arrays in [0, pi).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta >= np.pi):
        raise ValueError("exchange amplitude requires 0 <= theta < pi "
                         "(singular in the backward direction)")
    c = np.cos(0.5 * theta)
    out = 1.0 / (4.0 * K * K * c * c)
    return float(out) if out.ndim == 0 else out


def differential_probability(theta, K, channel: SpinChannel):
    """Unnormalized angular detection density p(theta) for one channel.

    SPINLESS     -> |f|^2 (valid on (0, pi])
    PARALLEL     -> |f - g|^2 (valid on (0, pi))
    ANTIPARALLEL -> |f|^2 + |g|^2 (valid on (0, pi))

    The per-momentum degeneracy weights of the spin channels are handled
    by the entropy routines' normalizations, not here.
    """
    if channel is SpinChannel.SPINLESS:
        f = direct_amplitude(theta, K)
        return f * f
    if channel is SpinChannel.PARALLEL:
        f = direct_amplitude(theta, K)
        g = exchange_amplitude(theta, K)
        d = f - g
        return d * d
    if channel is SpinChannel.ANTIPARALLEL:
        f = direct_amplitude(theta, K)
        g = exchange_amplitude(theta, K)
        return f * f + g * g
    raise ValueError(f"unknown spin channel: {channel!r}")
