"""Spin-resolved entropies for identical-particle pair scattering.

For indistinguishable electrons the post-scattering pair state carries,
besides *where* the pair landed, one extra bit tied to the symmetrized
spin/exchange structure.  Conventions used here:

* ``S`` is the full spin-state entropy, exchange bit included:
  S = 1 + H_detection.
* ``S_modified`` strips that bit: S_modified = S - 1 is the bare
  detection entropy (which detector fired and, for antiparallel spins,
  which spin pattern it recorded).  Differences S_ap - S_par are the
  same under either convention.

Parallel spins scatter on the half shell [cutoff, pi/2] with the
antisymmetric combination |f - g|^2; antiparallel spins produce two
distinguishable branches per cell with weights |f|^2 and |g|^2
(``geometry.channel_cell_integrals`` gives each channel its branches).
A spin-filtered (distinguishable) pair carries no exchange bit: it is
the SPINLESS channel, |f|^2 on the full shell, and needs nothing here.

A spin channel's H_detection on its native ring grid is
``entropy.shannon_ring_discrete(ctx, channel)``, the one route for
every channel.  The exchange bit is added where S is printed, in
spin-sweep's rows (``cli._spin_row``): the normalized per-cell
amplitudes c_i satisfy sum 2|c_i|^2 = 1, so
-sum 2|c_i|^2 log2 |c_i|^2 = 1 + H(w), w the normalized cell weights.
This module keeps the equator's closed forms and the post-selected
detection entropies, each a named tuple with the gap ``delta_S``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .amplitudes import SpinChannel
from .entropy import _stream_weight_entropy
from .geometry import range_grid_below
from .kinematics import ScatterContext


class EquatorEntropies(namedtuple("EquatorEntropies", (
        "S_parallel", "S_antiparallel", "S_parallel_modified",
        "S_antiparallel_modified"))):
    """Closed-form entropies for N equal azimuthal cells at theta = pi/2.

    On the equator |f| = |g|, so every azimuthal cell is exactly equally
    likely and no quadrature is needed:

    * parallel:      S = 1 + log2 N,  S_modified = log2 N
    * antiparallel:  S = 2 + log2 N,  S_modified = 1 + log2 N

    hence the antiparallel-parallel gap is exactly 1 bit at any N (the
    argument of :func:`equator_entropies`, not repeated here).
    """

    __slots__ = ()

    @property
    def delta_S(self) -> float:
        return self.S_antiparallel - self.S_parallel


def equator_entropies(n_cells: int) -> EquatorEntropies:
    """Entropies of an N-cell ring of detectors on the scattering equator."""
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells}")
    log2n = math.log2(n_cells)
    return EquatorEntropies(
        S_parallel=1.0 + log2n,
        S_antiparallel=2.0 + log2n,
        S_parallel_modified=log2n,
        S_antiparallel_modified=1.0 + log2n,
    )


class PostselectEntropies(namedtuple("PostselectEntropies", (
        "n_cells", "S_spinless", "S_par", "S_ap"))):
    """Detection entropies (bits, no exchange bit) of the ``n_cells``
    cells of a post-selection band, one per channel."""

    __slots__ = ()

    @property
    def delta_S(self) -> float:
        return self.S_ap - self.S_par


def postselect_entropies(ctx: ScatterContext,
                         theta_r: float) -> PostselectEntropies:
    """Detection entropies when only pairs within ``theta_r`` of the
    equator are kept.

    Cells of the native width are laid down from pi/2 *downwards* so the
    acceptance band [pi/2 - theta_r, pi/2] is tiled flush against the
    equator; a trailing sliver narrower than one cell is dropped.  All
    channels are renormalized over the same retained cells.  Reported
    values are detection entropies (no exchange bit; it cancels in
    ``delta_S = S_ap - S_par`` anyway).  A theta_r beyond the half shell
    raises ValueError (``range_grid_below``).

    The gap is not flat in ``theta_r``.  With x = pi/2 - theta the
    parallel density is proportional to x^2 (1 + 7 x^2 / 6) and the
    antiparallel branches split as 1/2 +- sin x / (1 + sin^2 x), so on a
    fine grid covering a band of width T = n_cells * delta_theta

        delta_S = 1 + (ln 3 - 2/3) / ln 2 - (12/25) T^2 / ln 2 + O(T^4)

    bits: 1.6232 for a thin band, then falling as 0.6925 T^2 (1.45 at
    0.5 rad, 0.94 at 1.0 rad).  The cell width cancels in the gap.
    """
    grid = range_grid_below(ctx, theta_r)
    return PostselectEntropies(grid.n_cells, *(
        _stream_weight_entropy(grid, False, channel)[0]
        for channel in SpinChannel))

