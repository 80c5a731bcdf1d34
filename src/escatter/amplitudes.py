"""Spin channels of the pair: which combination of the direct Coulomb
amplitude f(theta) = 1 / (4 K^2 sin^2(theta/2)) and the exchange
amplitude g(theta) = f(pi - theta) is detected.  The package integrates
the channel densities over detector cells in closed form, and decides
each channel's angular domain, in ``escatter.geometry``; the amplitudes
themselves are written out only by the test oracles.
"""

from __future__ import annotations

from enum import Enum


class SpinChannel(Enum):
    """Which amplitude combination applies.

    SPINLESS         : single-particle detection of either electron, |f|^2;
                       also a pair told apart by a spin filter
    PARALLEL         : both spins aligned, antisymmetric spatial part, |f-g|^2
    ANTIPARALLEL     : opposite spins, both direct and exchange contribute,
                       |f|^2 + |g|^2
    """

    SPINLESS = "spinless"
    PARALLEL = "parallel"
    ANTIPARALLEL = "antiparallel"
