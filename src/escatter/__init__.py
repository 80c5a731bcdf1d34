"""Momentum- and spin-entanglement entropies for electron-electron
Coulomb scattering: discrete Shannon entropies over detector layouts,
their continuous limit for enormous pixel counts, spin-channel and
post-selection analyses, and the von Neumann entropy of the reduced
one-electron density matrix built from Gaussian wave packets.

Only the density-matrix API needs numpy.  Its names are bound on first
use (PEP 562), so that importing the package, and every command-line
table but vn-compare, runs on the standard library alone.
"""

__version__ = "0.1.0"

from .amplitudes import SpinChannel
from .entropy import (
    shannon_discrete,
    shannon_ring_discrete,
    shannon_ring_jaynes,
    shannon_sphere_discrete,
    shannon_sphere_jaynes,
)
from .errors import NumericalError
from .geometry import (
    AngularGrid,
    range_grid_below,
    ring_grid,
    ring_weight,
    sphere_pixel_count,
)
from .kinematics import (
    BOHR_RADIUS_NM,
    HARTREE_EV,
    ScatterContext,
    make_context,
)
from .spin import (
    EquatorEntropies,
    PostselectEntropies,
    equator_entropies,
    postselect_entropies,
)

#: names of ``escatter.density_matrix``, imported with numpy on first use
_DENSITY_MATRIX_NAMES = ("DensityMatrix", "build_meridian_matrix",
                         "eigen_spectrum", "kernel_element")


def __getattr__(name: str):
    if name in _DENSITY_MATRIX_NAMES:
        from . import density_matrix
        return getattr(density_matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AngularGrid",
    "BOHR_RADIUS_NM",
    "DensityMatrix",
    "EquatorEntropies",
    "HARTREE_EV",
    "NumericalError",
    "PostselectEntropies",
    "ScatterContext",
    "SpinChannel",
    "__version__",
    "build_meridian_matrix",
    "eigen_spectrum",
    "equator_entropies",
    "kernel_element",
    "make_context",
    "postselect_entropies",
    "range_grid_below",
    "ring_grid",
    "ring_weight",
    "shannon_discrete",
    "shannon_ring_discrete",
    "shannon_ring_jaynes",
    "shannon_sphere_discrete",
    "shannon_sphere_jaynes",
    "sphere_pixel_count",
]
