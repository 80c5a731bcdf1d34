"""Center-of-momentum kinematics and Gaussian wave-packet parameters.

Everything internal runs in Hartree atomic units
(hbar = m_e = e = 1/(4 pi eps_0) = 1); only :func:`make_context`
accepts eV and nm.  From the total CM kinetic energy E and the packet
extension L it derives, in these units,

    K = k_scale sqrt(E),  sigma_k = 1 / L,  delta_theta = 2 / (K L),
    epsilon = 2 arccot(2 E b_bar),  b_bar = L / sqrt(2),

with arccot mapping (0, inf) -> (0, pi/2).  The Coulomb coupling drops
out of the cutoff angle epsilon, which removes a whole class of unit
bugs, and epsilon decreases strictly in both E and L.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import NumericalError

#: 1 Hartree in electron volts
HARTREE_EV = 27.211386245988
#: 1 Bohr radius in nanometers
BOHR_RADIUS_NM = 0.052917721


class ScatterContext(namedtuple("ScatterContext",
                                ("K", "sigma_k", "epsilon", "delta_theta"))):
    """Derived kinematic and packet parameters for one collision setup:
    the wave number K and the momentum-space standard deviation sigma_k
    (1/bohr; L is twice the packet's real-space standard deviation), the
    cutoff angle epsilon and the detector pixel width delta_theta (rad)."""

    __slots__ = ()


def make_context(e_ev: float, l_nm: float, k_scale: float = 1.0) -> ScatterContext:
    """The :class:`ScatterContext` of a total CM kinetic energy ``e_ev``
    (eV; each electron carries half) and a packet extension ``l_nm`` (nm),
    by the formulas above.  ``k_scale`` is a calibration factor on K
    alone, since the overall kinematic normalization is a convention
    choice; the benchmark values pinned in the acceptance suite use
    ``k_scale = sqrt(2)``.  Every condition on (E, L, k_scale) alone is
    checked here, once.

    Raises ValueError unless E in Hartree is positive, L in bohr positive
    and finite and k_scale positive, when 2 E b_bar rounds to 0, or when
    K or K L is below the normal float range.
    Raises NumericalError if the cutoff angle epsilon is lost in rounding
    against the pixel width delta_theta (epsilon/delta_theta = k_scale /
    sqrt(2 E), E in Hartree: from about 1e33 eV), where no grid starts at
    epsilon.  That is not checked once epsilon >= pi/2 (2 E b_bar < 1):
    no angle is accessible, so no cell integral is formed, and
    ``geometry.ring_grid`` refuses the context with that reason.
    """
    e_ha = e_ev / HARTREE_EV
    if not e_ha > 0.0:
        raise ValueError(f"energy must be positive, got e_ev = {e_ev!r} eV "
                         f"({e_ha!r} Ha)")
    length = l_nm / BOHR_RADIUS_NM
    if not 0.0 < length < math.inf:
        raise ValueError(f"l_nm = {l_nm!r} nm must be positive and finite in bohr")
    if not k_scale > 0.0:
        raise ValueError(f"k_scale must be positive, got {k_scale!r}")
    k = k_scale * math.sqrt(e_ha)
    b_bar = length / math.sqrt(2.0)
    if 2.0 * e_ha * b_bar == 0.0:
        raise ValueError(
            f"2 E b_bar rounds to 0 at e_ev = {e_ev!r}, l_nm = {l_nm!r}: no "
            "scattering angle is accessible (2 E b_bar < 1)")
    if not (k >= sys.float_info.min and k * length >= sys.float_info.min):
        raise ValueError(
            f"k_scale = {k_scale!r} is too small at e_ev = {e_ev!r}, l_nm = "
            f"{l_nm!r}: K = {k!r} or K L = {k * length!r} is below the normal "
            "float range")
    ctx = ScatterContext(
        K=k,
        sigma_k=1.0 / length,
        epsilon=2.0 * math.atan(1.0 / (2.0 * e_ha * b_bar)),
        delta_theta=2.0 / (k * length),
    )
    if not ctx.epsilon < 0.5 * math.pi:  # ring_grid refuses it, saying why
        return ctx
    if ctx.epsilon + ctx.delta_theta == ctx.delta_theta:
        raise NumericalError(
            f"e_ev = {e_ev!r} is out of range: the cutoff angle "
            f"epsilon = {ctx.epsilon!r} rad is lost against the pixel width "
            f"delta_theta = {ctx.delta_theta!r} rad")
    return ctx
