"""Center-of-momentum kinematics and Gaussian wave-packet parameters.

Everything internal runs in Hartree atomic units
(hbar = m_e = e = 1/(4 pi eps_0) = 1); only the user-facing boundary
accepts eV and nm.  In these units the Coulomb coupling drops out of the
small-angle cutoff formula, which removes a whole class of unit bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BOHR_RADIUS_NM, HARTREE_EV
from .errors import NumericalError


def ev_to_hartree(e_ev: float) -> float:
    """Convert a (kinetic) energy from eV to Hartree.

    Parameters
    ----------
    e_ev : float
        Energy in electron volts.  Must be strictly positive.

    Returns
    -------
    float
        The same energy in Hartree.
    """
    if not e_ev > 0.0:
        raise ValueError(f"energy must be positive, got {e_ev} eV")
    return e_ev / HARTREE_EV


def nm_to_bohr(l_nm: float) -> float:
    """Convert a length from nm to Bohr radii."""
    if not l_nm > 0.0:
        raise ValueError(f"length must be positive, got {l_nm} nm")
    return l_nm / BOHR_RADIUS_NM


def wave_number(e_total_cm: float, k_scale: float = 1.0) -> float:
    """Relative-motion wave number for a given total CM kinetic energy.

    The nonrelativistic convention used here is ``K = sqrt(E)`` in atomic
    units (each electron carries half the total CM energy).  A single
    multiplicative calibration constant ``k_scale`` is exposed because the
    overall kinematic normalization is a convention choice; all derived
    quantities scale consistently with it.  The benchmark values pinned in
    the acceptance suite use ``k_scale = sqrt(2)``.

    Parameters
    ----------
    e_total_cm : float
        Total kinetic energy of both electrons in the CM frame, Hartree.
    k_scale : float, optional
        Global calibration factor applied multiplicatively to K.

    Returns
    -------
    float
        Wave number in inverse Bohr radii.
    """
    if not e_total_cm > 0.0:
        raise ValueError(f"energy must be positive, got {e_total_cm} Ha")
    if not k_scale > 0.0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    return k_scale * math.sqrt(e_total_cm)


def min_scattering_angle(e_total_cm: float, b_bar: float) -> float:
    """Minimum resolvable scattering angle set by the packet's impact spread.

    A transverse offset between the colliding packets cuts off the forward
    Coulomb divergence.  For limiting impact parameter ``b_bar`` the cutoff
    angle is ``eps = 2 * arccot(2 * E * b_bar)``, with arccot mapping
    (0, inf) -> (0, pi/2).  It decreases strictly in both arguments.

    Parameters
    ----------
    e_total_cm : float
        Total CM kinetic energy, Hartree.
    b_bar : float
        Limiting impact parameter, Bohr radii.

    Returns
    -------
    float
        Cutoff angle in radians, inside (0, pi/2) for positive inputs.
    """
    if not e_total_cm > 0.0:
        raise ValueError(f"energy must be positive, got {e_total_cm} Ha")
    if not b_bar > 0.0:
        raise ValueError(f"impact parameter must be positive, got {b_bar}")
    return 2.0 * math.atan(1.0 / (2.0 * e_total_cm * b_bar))


@dataclass(frozen=True)
class ScatterContext:
    """Derived kinematic and packet parameters for one collision setup.

    Attributes
    ----------
    K : float
        Wave number, inverse Bohr radii.
    sigma_k : float
        Momentum-space standard deviation, sigma_k = 1/L for a packet of
        extension L (twice its real-space standard deviation).
    epsilon : float
        Minimum scattering angle for the limiting impact parameter
        b_bar = L / sqrt(2), radians.
    delta_theta : float
        Detector pixel width, delta_theta = 2/(K L), radians.
    """

    K: float
    sigma_k: float
    epsilon: float
    delta_theta: float


def make_context(e_ev: float, l_nm: float, k_scale: float = 1.0) -> ScatterContext:
    """Build a :class:`ScatterContext` from user-facing units.

    Parameters
    ----------
    e_ev : float
        Total CM kinetic energy in eV.
    l_nm : float
        Wave-packet extension L in nm.
    k_scale : float, optional
        Wave-number calibration factor (see :func:`wave_number`).

    Returns
    -------
    ScatterContext

    Raises
    ------
    NumericalError
        If ``e_ev`` is beyond what the cell integrals can represent: K^4,
        their scale, overflows, or the cutoff angle epsilon is lost in
        rounding against the pixel width delta_theta (epsilon/delta_theta
        = k_scale / sqrt(2 E), E in Hartree: from about 1e33 eV).
    """
    e_ha = ev_to_hartree(e_ev)
    length = nm_to_bohr(l_nm)
    k = wave_number(e_ha, k_scale)
    ctx = ScatterContext(
        K=k,
        sigma_k=1.0 / length,
        epsilon=min_scattering_angle(e_ha, length / math.sqrt(2.0)),
        delta_theta=2.0 / (k * length),
    )
    if not math.isfinite(k * k * k * k):
        raise NumericalError(
            f"e_ev = {e_ev!r} is out of range: K^4 overflows (K = {k!r})")
    if ctx.epsilon + ctx.delta_theta == ctx.delta_theta:
        raise NumericalError(
            f"e_ev = {e_ev!r} is out of range: the cutoff angle "
            f"epsilon = {ctx.epsilon!r} rad is lost against the pixel width "
            f"delta_theta = {ctx.delta_theta!r} rad")
    return ctx
