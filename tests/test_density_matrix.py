import math
import os
import random
import sys
import time

import mpmath
import numpy as np
import pytest
import scipy.special

from escatter import (
    DensityMatrix,
    NumericalError,
    build_meridian_matrix,
    eigen_spectrum,
    kernel_element,
    make_context,
    shannon_discrete,
)
from escatter import density_matrix
from escatter.cli import main

from oracles import (
    CALIBRATED_KSCALE,
    band_of,
    charpoly_spectrum,
    diagonal_convolution_oracle,
    i0e_phi_quadrature,
    kernel_element_oracle,
    kernel_j_mp,
    kernel_j_oracle,
    kernel_j_table_oracle,
    meridian_matrix_oracle,
)


@pytest.fixture(scope="module")
def ctx():
    return make_context(5.0, 100.0, CALIBRATED_KSCALE)


@pytest.fixture(scope="module")
def dm256(ctx):
    return build_meridian_matrix(ctx, 256)


# ---------------------------------------------------------------------------
# scaled Bessel factor
# ---------------------------------------------------------------------------

def test_i0e_against_mpmath():
    mpmath.mp.dps = 30
    for x in (0.1, 1.0, 14.0, 15.0, 16.0, 50.0, 1e3, 1e6):
        ref = float(mpmath.besseli(0, x) * mpmath.exp(-x))
        assert density_matrix._i0e(x) == pytest.approx(ref, rel=1e-12), x


def test_i0e_against_phi_quadrature():
    for x in (0.5, 5.0, 40.0, 300.0):
        assert density_matrix._i0e(x) == \
            pytest.approx(i0e_phi_quadrature(x), rel=1e-10), x


def test_i0e_equals_cephes_bit_for_bit():
    # the package's numpy i0e runs Cephes' tables in Cephes' order of
    # operations, so it must equal scipy's (Cephes') i0e exactly: on both
    # series, at their seam x = 8, for negative x, over the whole double
    # range, on 2-D arrays (as direct J calls it) and on scalars
    x = 10.0 ** np.random.default_rng(5).uniform(-3.0, 8.0, 200_000)
    seam = [0.0, 8.0, np.nextafter(8.0, -np.inf), np.nextafter(8.0, np.inf)]
    x = np.concatenate([x, seam, np.geomspace(1e-300, 1e300, 6001)])
    x = np.concatenate([x, -x])
    assert np.array_equal(density_matrix._i0e(x), scipy.special.i0e(x))
    grid = x[:200_000].reshape(400, 500)
    assert np.array_equal(density_matrix._i0e(grid), scipy.special.i0e(grid))
    for v in [*seam, -8.0, 1e-300, 0.5, 30.0, 1e300, -1e300]:
        assert density_matrix._i0e(v) == scipy.special.i0e(v), v


# ---------------------------------------------------------------------------
# kernel elements vs independent 2-D quadrature
# ---------------------------------------------------------------------------

def test_kernel_matches_independent_quadrature(ctx):
    sk = ctx.sigma_k
    q_min = ctx.K * ctx.epsilon
    pairs = [
        (q_min * 1.5, q_min * 1.5),
        (q_min * 1.5, q_min * 1.5 + 2 * sk),
        (0.05, 0.05 + 3 * sk),
        (0.3, 0.3),
        (0.3, 0.3 + 5 * sk),
        (1.2, 1.2 - 4 * sk),
    ]
    for q, qp in pairs:
        val = kernel_element(q, qp, ctx)
        ref = kernel_element_oracle(q, qp, ctx, n_radial=800, n_phi=64)
        assert val == pytest.approx(ref, rel=1e-8), (q, qp)


def test_kernel_diagonal_convolution(ctx):
    for q in (ctx.K * ctx.epsilon * 1.5, 0.05, 0.3, 1.0):
        val = kernel_element(q, q, ctx)
        ref = diagonal_convolution_oracle(q, ctx, n_radial=800, n_phi=64)
        assert val == pytest.approx(ref, rel=1e-6), q


def test_kernel_symmetry_and_domain(ctx):
    assert kernel_element(0.1, 0.101, ctx) == \
        pytest.approx(kernel_element(0.101, 0.1, ctx), rel=1e-14)
    q_min = ctx.K * ctx.epsilon
    with pytest.raises(ValueError, match="forward cutoff"):
        kernel_element(0.5 * q_min, 0.1, ctx)
    with pytest.raises(ValueError, match="forward cutoff"):
        kernel_element(0.1, 0.5 * q_min, ctx)
    # q = 2K sin(theta/2) is at most 2K; above it the kernel returned 0.0
    # (3K) or a truncated window's J (2K + 1e-3) without a word
    q_max = 2.0 * ctx.K
    assert kernel_element(q_max, q_max, ctx) > 0.0
    for q, qp in ((1.5 * q_max, 1.5 * q_max), (q_max + 1e-3, 0.1),
                  (0.1, q_max + 1e-3)):
        with pytest.raises(ValueError, match="backward limit 2K"):
            kernel_element(q, qp, ctx)


def test_direct_j_refuses_a_nan_or_unconverged_integral(ctx, monkeypatch):
    # a non-finite estimate fails at the order that produced it; a mu
    # still open at the last order fails naming the order cap
    monkeypatch.setattr(density_matrix, "_i0e",
                        lambda x: np.full(np.shape(x), math.nan))
    with pytest.raises(NumericalError, match=r"^kernel integral J\(mu=0\.3\) "
                       r"is nan with 64 GL nodes$"):
        kernel_element(0.3, 0.3, ctx)
    monkeypatch.undo()
    monkeypatch.setattr(density_matrix, "_GL_MAX", density_matrix._GL_START)
    with pytest.raises(NumericalError, match=r"^kernel integral J\(mu=0\.3\) "
                       r"did not converge to 1e-09 relative with 64 GL nodes$"):
        kernel_element(0.3, 0.3, ctx)


def test_coherence_width_tracks_packet_size():
    # the 1e-6 off-diagonal contour sits where the packet overlap dies,
    # so its width in q is proportional to sigma_k (halves when the
    # packet doubles)
    def contour(c, q0):
        base = kernel_element(q0, q0, c)
        lo, hi = 0.0, 44.0 * c.sigma_k
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if kernel_element(q0, q0 + mid, c) / base > 1e-6:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    c1 = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    c2 = make_context(5.0, 200.0, CALIBRATED_KSCALE)
    w1 = contour(c1, 0.05)
    w2 = contour(c2, 0.05)
    assert w1 / w2 == pytest.approx(2.0, rel=0.05)
    assert 9.0 <= w1 / c1.sigma_k <= 12.0


# ---------------------------------------------------------------------------
# assembled matrix
# ---------------------------------------------------------------------------

def test_build_validation(ctx):
    with pytest.raises(ValueError, match="at least a 2-point grid, got 1"):
        build_meridian_matrix(ctx, 1)


def test_matrix_invariants(ctx, dm256):
    rho = dm256.rho
    assert rho.shape == (256, 256)
    assert float(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(np.abs(rho - rho.T))) == 0.0
    # elements beyond the packet coherence band are exactly zero
    assert rho[0, -1] == 0.0
    # the diagonal is a probability vector peaked at the forward edge
    diag = np.diag(rho)
    assert np.all(diag > 0.0)
    assert int(np.argmax(diag)) == 0
    assert diag[0] > 100.0 * diag[20]
    # q grid ascends with theta
    assert np.all(np.diff(dm256.q_grid) > 0.0)


def test_spectrum_properties(dm256):
    lam = eigen_spectrum(dm256)
    assert np.all(np.diff(lam) <= 0.0)
    assert np.all(lam >= 0.0)
    assert float(lam.sum()) == pytest.approx(1.0, abs=1e-9)
    assert lam[0] < 1.0  # mixed state, not a projector


def test_spectrum_orthogonal_invariance(dm256):
    rng = np.random.default_rng(42)
    q_mat, _ = np.linalg.qr(rng.normal(size=dm256.rho.shape))
    rotated = q_mat @ dm256.rho @ q_mat.T
    rotated = 0.5 * (rotated + rotated.T)  # scrub rounding asymmetry
    dm_rot = DensityMatrix(q_grid=dm256.q_grid, band=band_of(rotated))
    lam0 = eigen_spectrum(dm256)
    lam1 = eigen_spectrum(dm_rot)
    assert float(np.max(np.abs(lam0 - lam1))) <= 1e-9


def test_von_neumann_below_diagonal_shannon(dm256):
    # the diagonal is majorized by the spectrum, so measuring in the
    # position basis can only look more random than the eigenbasis
    s_vn = shannon_discrete(eigen_spectrum(dm256))
    h_diag = shannon_discrete(np.diag(dm256.rho))
    assert s_vn <= h_diag + 1e-9


def test_two_point_grid_decoheres(ctx):
    dm = build_meridian_matrix(ctx, 2)
    assert dm.rho[0, 1] == 0.0  # q separation far beyond the band
    lam = eigen_spectrum(dm)
    assert lam == pytest.approx(sorted(np.diag(dm.rho), reverse=True))


# ---------------------------------------------------------------------------
# J(mu) table and broadcast assembly vs the per-element route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e_ev,l_nm", [(5.0, 100.0), (20.0, 100.0),
                                       (1.0, 20.0)])
def test_batched_j_equals_scalar_oracle(e_ev, l_nm):
    # the batched doubling keeps each mu's own first-converged estimate,
    # so it must equal the one-mu-at-a-time loop bit for bit: across the
    # lower window end K*eps, the upper end 2K and past both (empty
    # window, J = 0)
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    q_min, q_max, sk = ctx.K * ctx.epsilon, 2.0 * ctx.K, ctx.sigma_k
    w = density_matrix._WINDOW_SIGMAS
    span = (w + 5.0) * sk  # the window's reach, and 5 sigma_k past it
    mu = np.concatenate([np.linspace(q_min - span, q_min + span, 100),
                         np.linspace(q_max - span, q_max + span, 100),
                         np.geomspace(q_min, q_max, 100)])
    lo = np.maximum(q_min, mu - w * sk)
    hi = np.minimum(q_max, mu + w * sk)
    assert np.count_nonzero((lo == q_min) & (hi > lo)) >= 50
    assert np.count_nonzero((hi == q_max) & (hi > lo)) >= 50
    assert np.count_nonzero(hi <= lo) >= 10
    j = density_matrix._kernel_j(mu, ctx)
    ref = np.array([kernel_j_oracle(float(m), ctx, w) for m in mu])
    assert np.array_equal(j, ref)
    assert np.all(j[hi <= lo] == 0.0)


@pytest.mark.parametrize("e_ev,l_nm", [(1.0, 20.0), (5.0, 100.0),
                                       (20.0, 100.0), (1e3, 100.0),
                                       (1e4, 50_000.0)])
def test_window_keeps_j_of_the_untruncated_window(e_ev, l_nm):
    # direct J integrates over mu +- 12 sigma_k; the 40 sigma_k oracle's
    # window edge, exp(-800), underflows, so it drops nothing.  Over the
    # whole range of mu, and densely where the lower window edge leaves
    # K*eps, the two must agree to the table's own tolerance
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    q_min, q_max, sk = ctx.K * ctx.epsilon, 2.0 * ctx.K, ctx.sigma_k
    assert density_matrix._WINDOW_SIGMAS < 40.0
    mu = np.concatenate([np.geomspace(q_min, q_max, 200),
                         np.linspace(q_min, min(q_max, q_min + 40.0 * sk), 100)])
    j = density_matrix._kernel_j(mu, ctx)
    ref = np.array([kernel_j_oracle(float(m), ctx, 40.0) for m in mu])
    assert np.all(ref > 0.0)
    rel = np.abs(j - ref) / ref
    assert float(rel.max()) <= density_matrix._TABLE_RTOL


@pytest.mark.parametrize("e_ev,l_nm,where", [
    (5.0, 100.0, "K eps"), (5.0, 100.0, 5.0), (5.0, 100.0, 1e3),
    (5.0, 100.0, "2K"), (1e4, 50_000.0, "K eps"), (1e4, 50_000.0, 1e5),
    (1e4, 50_000.0, "2K"), (1.0, 50_000.0, "2K")])
def test_window_j_against_mpmath(e_ev, l_nm, where):
    # at the window's ends and at mu / sigma_k ~ 5, 1e3 and 1e5, the
    # 12 sigma_k J is no farther from a 30-digit J than the 40 sigma_k J
    # is.  At 1 eV / 50 um, mu = 2K (mu / sigma_k ~ 5e5) the window's
    # ends were once mu -+ W sigma_k rounded to ulp(2K), less mu: J sat
    # 4.2e-11 off; as offsets from mu they are exact, 2.5e-14 off
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    mu = {"K eps": ctx.K * ctx.epsilon, "2K": 2.0 * ctx.K}.get(where)
    if mu is None:
        mu = where * ctx.sigma_k
    ref = kernel_j_mp(mu, ctx)
    new = float(density_matrix._kernel_j(np.array([mu]), ctx)[0])
    old = kernel_j_oracle(mu, ctx, 40.0)
    err_new = float(abs((new - ref) / ref))
    err_old = float(abs((old - ref) / ref))
    assert err_new <= err_old + 1e-12
    if (e_ev, l_nm, where) == (1.0, 50_000.0, "2K"):
        assert err_new <= 1e-13


def test_window_needs_only_128_gl_nodes(monkeypatch):
    # the build's speed rests on every direct-J point converging by the
    # second Gauss-Legendre order (64, then 128 nodes): pin the orders an
    # n = 1024 build asks for at the benchmark's working points
    orders = []
    nodes = density_matrix._gl_nodes

    def recording(n):
        orders.append(n)
        return nodes(n)

    monkeypatch.setattr(density_matrix, "_gl_nodes", recording)
    for e_ev in (5.1, 19.6):
        orders.clear()
        build_meridian_matrix(make_context(e_ev, 100.0, CALIBRATED_KSCALE), 1024)
        assert max(orders) == 128, e_ev


#: per working point, the direct-J mu of an n = 1024 build, and those of
#: an n = 2 build when the table's panels grew from min mu alone
_TABLE_MU = {(5.1, 100.0): (1122, 363), (19.6, 100.0): (1254, 396),
             (1e3, 100.0): (1320, 495), (1e4, 50_000.0): (1617, 825)}


@pytest.mark.parametrize("e_ev,l_nm,grown_from_min_rounds", [
    (5.1, 100.0, 8), (19.6, 100.0, 9), (1e3, 100.0, 14), (1e4, 50_000.0, 2)])
def test_table_equals_per_panel_oracle(e_ev, l_nm, grown_from_min_rounds,
                                       monkeypatch):
    # the table fits, checks and evaluates every panel at once, with
    # chebinterpolate's and chebval's arithmetic: its J, and so rho, must
    # equal the panel-by-panel table bit for bit.  Its panels start at both
    # ends of the mu range, so every build needs at most 2 direct-J rounds
    # (grown from min mu alone, n = 1024 took grown_from_min_rounds), and
    # an n = 2 build evaluates fewer mu than it did then
    mu_1024, grown_from_min_mu_2 = _TABLE_MU[e_ev, l_nm]
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    table, direct = density_matrix._kernel_j_table, density_matrix._kernel_j
    band_mu, direct_calls, mu_per_build = [], [], {}

    def recording_table(mu, c):
        band_mu.append(mu)
        return table(mu, c)

    def recording_direct(mu, c):
        direct_calls.append(mu.size)
        return direct(mu, c)

    monkeypatch.setattr(density_matrix, "_kernel_j", recording_direct)
    for n in (2, 48, 256, 1024):
        band_mu.clear()
        direct_calls.clear()
        monkeypatch.setattr(density_matrix, "_kernel_j_table", recording_table)
        band = build_meridian_matrix(ctx, n).band
        rounds = len(direct_calls)
        assert rounds <= 2, n
        mu_per_build[n] = sum(direct_calls)
        assert np.array_equal(table(band_mu[0], ctx),
                              kernel_j_table_oracle(band_mu[0], ctx)), n
        monkeypatch.setattr(density_matrix, "_kernel_j_table",
                            kernel_j_table_oracle)
        assert np.array_equal(build_meridian_matrix(ctx, n).band, band), n
    assert mu_per_build[1024] == mu_1024
    assert mu_per_build[2] < grown_from_min_mu_2
    assert rounds <= grown_from_min_rounds  # n = 1024


@pytest.mark.parametrize("e_ev,l_nm", [(5.0, 100.0), (20.0, 100.0),
                                       (1.0, 20.0)])
def test_assembly_matches_per_element_oracle(e_ev, l_nm, monkeypatch):
    # 1 eV / 20 nm has sigma_k / q_min ~ 0.1: J varies fastest there.  The
    # builds keep pairs to the derived cut, and to 45 sigma_k as before it
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    for band_sigmas in (density_matrix._BAND_SIGMAS, 45.0):
        monkeypatch.setattr(density_matrix, "_BAND_SIGMAS", band_sigmas)
        for n in (48, 256, 512):
            dm = build_meridian_matrix(ctx, n)
            ref = meridian_matrix_oracle(ctx, n, band_sigmas)
            nonzero = ref != 0.0
            assert np.array_equal(dm.rho != 0.0, nonzero), (band_sigmas, n)
            rel = np.abs(dm.rho[nonzero] - ref[nonzero]) / ref[nonzero]
            assert float(rel.max()) <= 1e-9, (band_sigmas, n)
            s_ref = shannon_discrete(eigen_spectrum(DensityMatrix(
                q_grid=dm.q_grid, band=band_of(ref))))
            assert abs(shannon_discrete(eigen_spectrum(dm)) - s_ref) <= 1e-9, \
                (band_sigmas, n)


def test_direct_j_batch_changes_no_bit_of_a_build(monkeypatch):
    # each mu's vecdot row is the same sum whatever the batch, so the batch
    # bounds direct J's temporaries and nothing else: a benchmark row's band
    # at 1 << 10, at the package's 1 << 13 and at 1 << 15, the old batch
    assert density_matrix._J_BATCH == 1 << 13
    ctx = make_context(5.1, 100.0, CALIBRATED_KSCALE)
    bands = []
    for batch in (1 << 10, 1 << 13, 1 << 15):
        monkeypatch.setattr(density_matrix, "_J_BATCH", batch)
        bands.append(build_meridian_matrix(ctx, 1024).band)
    assert all(np.array_equal(band, bands[1]) for band in bands)


@pytest.mark.parametrize("e_ev,l_nm,start_sigmas,j_at_start", [
    (0.05, 100.0, None, 0.0), (0.05, 100.0, -20.0, 0.0),
    (0.05, 100.0, -12.0, 6.5113810e-47), (0.5, 10.0, -12.0, 0.0),
    (5.0, 100.0, -11.5, 3.8702847e-27)])
def test_table_below_the_cutoff(e_ev, l_nm, start_sigmas, j_at_start):
    # below K eps - 12 sigma_k direct J's window is empty and J exactly 0;
    # the table used to bisect that jump down to a panel too narrow to fit
    # (0.05 eV / 100 nm from mu = 0 or K eps - 20 sigma_k).  It now
    # tabulates only where the window is non-empty, by direct J's own
    # test: at K eps - 12 sigma_k exactly, rounding leaves a sliver of
    # window at 0.05 eV / 100 nm but not at 0.5 eV / 10 nm
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    start = 0.0 if start_sigmas is None else (
        ctx.K * ctx.epsilon + start_sigmas * ctx.sigma_k)
    mu = np.linspace(start, 2.0 * ctx.K, 400)
    table = density_matrix._kernel_j_table(mu, ctx)
    direct = density_matrix._kernel_j(mu, ctx)
    assert direct[0] == pytest.approx(j_at_start, rel=1e-6, abs=0.0)
    zero = direct == 0.0
    assert np.array_equal(table == 0.0, zero)
    rel = np.abs(table[~zero] - direct[~zero]) / direct[~zero]
    assert float(rel.max()) <= density_matrix._TABLE_RTOL


def test_table_rejects_unfittable_j(ctx, monkeypatch):
    # a J that is noise at every scale defeats every panel with two
    # distinct nodes: bisection stops at the panel limit, so the direct
    # evaluations stay bounded: the fits', and the one J the error quotes
    mus = []

    def noisy_j(mu, _ctx):
        mus.extend(mu)
        return 1.0 + 1e-3 * np.array([random.Random(float(m)).random()
                                      for m in mu])

    monkeypatch.setattr(density_matrix, "_kernel_j", noisy_j)
    with pytest.raises(NumericalError, match="panel fits"):
        build_meridian_matrix(ctx, 64)
    per_fit = 2 * density_matrix._TABLE_NODES + 1  # nodes and check points
    assert len(mus) == density_matrix._TABLE_MAX_PANELS * per_fit + 1


def test_table_stops_at_a_panel_too_narrow_to_fit(ctx, monkeypatch):
    # a J with a jump fails every panel that holds it; bisected towards
    # ulp(mu), that panel's nodes merge and its fit would be singular, so
    # the build stops there with a NumericalError, not numpy's LinAlgError
    jump = 0.8572473289451747
    direct = density_matrix._kernel_j
    monkeypatch.setattr(density_matrix, "_kernel_j",
                        lambda mu, c: np.where(mu > jump, 1.5, 1.0) * direct(mu, c))
    with pytest.raises(NumericalError, match="too narrow for distinct nodes"):
        build_meridian_matrix(ctx, 64)


def test_table_tolerance_checked_on_every_build(ctx, monkeypatch):
    # no panel meets a zero tolerance against the real J; the build gives
    # up within the panel limit instead of returning an unchecked table
    monkeypatch.setattr(density_matrix, "_TABLE_RTOL", 0.0)
    t0 = time.perf_counter()
    with pytest.raises(NumericalError, match="missed 0 relative"):
        build_meridian_matrix(ctx, 64)
    assert time.perf_counter() - t0 < 30.0


def test_grid_below_forward_cutoff_fails_before_j(monkeypatch):
    # E = 0.5 eV, L = 10 nm: epsilon = 0.402, and the first midpoint of a
    # 512-point theta grid maps to q = 2K sin(theta_0/2) < K epsilon
    ctx = make_context(0.5, 10.0, CALIBRATED_KSCALE)

    def no_j(mus, _ctx):  # direct J takes and returns an array
        raise AssertionError("J evaluated before the cutoff check")

    monkeypatch.setattr(density_matrix, "_kernel_j", no_j)
    with pytest.raises(ValueError, match=r"q = 2K sin\(theta_0/2\) = 0\.07.*"
                       r"K\*epsilon = 0\.077.*epsilon = 0\.4017"):
        build_meridian_matrix(ctx, 512)


@pytest.mark.parametrize("e_ev, l_nm, narrower_nm", [
    (5.0, 1e170, 1e152), (5.0, 1e153, 1e152), (1e4, 1e152, 1e151)])
def test_packet_too_wide_fails_before_j(monkeypatch, e_ev, l_nm, narrower_nm):
    # sigma_k^2 zero or below the normal floats (5 eV at 1e170 and 1e153
    # nm), or 2K / sigma_k^2 overflowing (1e4 eV at 1e152 nm), made numpy
    # warn and J come out nan; the build now stops before any J, naming
    # sigma_k.  A packet a little narrower still builds
    build_meridian_matrix(make_context(e_ev, narrower_nm, CALIBRATED_KSCALE), 4)
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)

    def no_j(mus, _ctx):
        raise AssertionError("J evaluated before the sigma_k check")

    monkeypatch.setattr(density_matrix, "_kernel_j", no_j)
    with pytest.raises(NumericalError, match=r"sigma_k = 5\.29\d*e-\d+ is too "
                       r"small for the kernel: sigma_k\^2 = "):
        build_meridian_matrix(ctx, 4)


# ---------------------------------------------------------------------------
# the eigensolve's subnormal flush
# ---------------------------------------------------------------------------

_FLUSHES = sys.platform == "linux" and os.uname().machine == "x86_64"


def _mxcsr_controls():
    """The calling thread's MXCSR without its six sticky status flags,
    which any float operation may raise and numpy's ufuncs clear."""
    env = density_matrix._FENV()
    assert density_matrix._LIBC.fegetenv(env) == 0
    return env[7] & ~0x3F


def _record_solvers(monkeypatch, fail=False) -> list:
    """(solver, MXCSR controls) for each call eigen_spectrum makes to the
    band or the dense solver, which raises LinAlgError if ``fail``; the
    controls are None where the flush does not apply."""
    calls = []
    for owner, name in ((density_matrix, "_band_eigvalsh"), (np.linalg, "eigvalsh")):
        def recording(*args, _solve=getattr(owner, name), _name=name):
            calls.append((_name, _mxcsr_controls() if _FLUSHES else None))
            if fail:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return _solve(*args)
        monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.mark.skipif(not _FLUSHES, reason="the flush applies on Linux x86-64 only")
def test_eigen_spectrum_restores_the_fp_environment(dm256, monkeypatch):
    # whichever solver runs, band (kd = 19 at n = 256) or dense (no band
    # handle), sees FTZ and DAZ set, and the thread gets its own MXCSR back
    # whether the solver returns or raises; vn-compare's worker threads
    # flush their own MXCSR, never the main thread's
    assert density_matrix._LIBC is not None
    saved = _mxcsr_controls()
    assert saved == 0x1F80
    for handle in (density_matrix._DSBEVD, None):
        monkeypatch.setattr(density_matrix, "_DSBEVD", handle)
        solver = "_band_eigvalsh" if handle else "eigvalsh"
        with monkeypatch.context() as patch:
            calls = _record_solvers(patch)
            eigen_spectrum(dm256)
            assert calls == [(solver, saved | 0x8040)] and _mxcsr_controls() == saved
        with monkeypatch.context() as patch:
            calls = _record_solvers(patch, fail=True)
            with pytest.raises(np.linalg.LinAlgError):
                eigen_spectrum(dm256)
            assert calls == [(solver, saved | 0x8040)] and _mxcsr_controls() == saved
        with monkeypatch.context() as patch:
            calls = _record_solvers(patch)
            assert main(["vn-compare", "--n-grid", "48", "--energy-list", "5,20",
                         "--threads", "2"]) == 0
            assert [c[1] for c in calls] == [saved | 0x8040] * 2
            assert _mxcsr_controls() == saved


@pytest.mark.parametrize("e_ev, n_grid", [(5.1, 1024), (19.6, 1024), (5.0, 512)])
def test_flushed_spectrum_equals_the_plain_one(e_ev, n_grid, monkeypatch):
    # pins an observation, not a guarantee: at these points the dense
    # path's fill-in outside rho's band is subnormal, and the flush changed
    # no bit of the spectrum.  With no C library handle eigen_spectrum
    # takes the fallback path, plain eigvalsh as off Linux x86-64, and with
    # no band handle the dense one, so these paths run on every platform.
    dm = build_meridian_matrix(make_context(e_ev, 100.0, CALIBRATED_KSCALE), n_grid)
    monkeypatch.setattr(density_matrix, "_DSBEVD", None)
    flushed = eigen_spectrum(dm)
    monkeypatch.setattr(density_matrix, "_LIBC", None)
    assert np.array_equal(flushed, eigen_spectrum(dm))


@pytest.mark.parametrize("e_ev, n_grid", [(5.1, 1024), (19.6, 1024), (5.0, 512)])
def test_flush_moves_the_band_spectrum_below_1e_18(e_ev, n_grid, monkeypatch):
    # the band path is not bit-identical with and without the flush: its
    # largest difference here was 1.1e-19, and the printed S_vn is equal
    if density_matrix._DSBEVD is None:
        pytest.skip("numpy's LAPACK has no dsbevd_2stage_64_")
    dm = build_meridian_matrix(make_context(e_ev, 100.0, CALIBRATED_KSCALE), n_grid)
    flushed = eigen_spectrum(dm)
    monkeypatch.setattr(density_matrix, "_LIBC", None)
    plain = eigen_spectrum(dm)
    assert float(np.abs(flushed - plain).max()) <= 1e-18
    assert format(shannon_discrete(flushed), ".12g") == \
        format(shannon_discrete(plain), ".12g")


# ---------------------------------------------------------------------------
# the band eigensolver
# ---------------------------------------------------------------------------

#: (E eV, L nm, k-scale, n, rho's lower half-bandwidth kd): the band path
#: runs where 9 kd <= 2 n.  With pairs kept to 45 sigma_k, kd was 127,
#: 91, 63, 60, 1, 38, 151, 277 (dense), 436, 873 and 133
_BAND_POINTS = [
    (5.1, 100.0, CALIBRATED_KSCALE, 1024, 77),
    (19.6, 100.0, CALIBRATED_KSCALE, 1024, 55),
    (5.0, 100.0, CALIBRATED_KSCALE, 512, 38),
    (100.0, 100.0, CALIBRATED_KSCALE, 1024, 37),
    (1e3, 5e4, CALIBRATED_KSCALE, 1024, 0),
    (1e4, 100.0, CALIBRATED_KSCALE, 2048, 23),
    (5.1, 100.0, 1.0, 1024, 92),
    (0.2, 100.0, CALIBRATED_KSCALE, 1024, 158),
    (1.0, 20.0, CALIBRATED_KSCALE, 1024, 253),
    (1.0, 20.0, CALIBRATED_KSCALE, 2048, 507),
    (0.5, 20.0, CALIBRATED_KSCALE, 256, 74),
]

_HAS_BAND = pytest.mark.skipif(density_matrix._DSBEVD is None,
                               reason="numpy's LAPACK has no dsbevd_2stage_64_")


@_HAS_BAND
@pytest.mark.parametrize("e_ev, l_nm, k_scale, n, kd", _BAND_POINTS)
def test_band_spectrum_equals_the_dense_one(e_ev, l_nm, k_scale, n, kd, monkeypatch):
    dm = build_meridian_matrix(make_context(e_ev, l_nm, k_scale), n)
    assert dm.band.shape[0] - 1 == kd
    band = 9 * kd <= 2 * n
    with monkeypatch.context() as patch:
        calls = _record_solvers(patch)
        lam = eigen_spectrum(dm)
        assert [c[0] for c in calls] == ["_band_eigvalsh" if band else "eigvalsh"]
    dense = np.maximum(np.linalg.eigvalsh(dm.rho), 0.0)
    assert float(np.abs(lam[::-1] - dense).max()) <= 1e-15
    if not band and n <= 1024:  # the band solver is right past the crossover too
        solved = density_matrix._band_eigvalsh(dm.band)
        assert float(np.abs(np.maximum(solved, 0.0) - dense).max()) <= 1e-15
    monkeypatch.setattr(density_matrix, "_DSBEVD", None)
    s_dense = shannon_discrete(eigen_spectrum(dm))
    assert abs(shannon_discrete(lam) - s_dense) <= 1e-12 * s_dense


_U = 2.0 ** -53


def test_band_cut_is_where_the_gaussian_factor_reaches_rounding():
    # exp(-B^2 / 8) = u, the cut build_meridian_matrix's docstring derives
    b = density_matrix._BAND_SIGMAS
    assert b == pytest.approx(math.sqrt(-8.0 * math.log(_U)), rel=1e-15)
    assert math.exp(-b * b / 8.0) == pytest.approx(_U, rel=1e-13)


def _binary_entropy(t: float) -> float:
    return 0.0 if t <= 0.0 else -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


@pytest.mark.parametrize("e_ev, l_nm, k_scale, n, kd", _BAND_POINTS)
def test_band_cut_moves_the_spectrum_within_its_bound(e_ev, l_nm, k_scale, n, kd,
                                                       monkeypatch):
    # the referee of the cut: the build with pairs kept to 45 sigma_k, whose
    # elements past the cut are 1e-110 of the diagonal at the least
    ctx = make_context(e_ev, l_nm, k_scale)
    cut = build_meridian_matrix(ctx, n)
    monkeypatch.setattr(density_matrix, "_BAND_SIGMAS", 45.0)
    wide = build_meridian_matrix(ctx, n)
    monkeypatch.undo()
    # the cut only drops pairs: the same J table, trace and kept elements
    kept = cut.band != 0.0
    assert np.array_equal(cut.band[kept], wide.band[:kd + 1][kept])
    rho = wide.rho
    e = rho - cut.rho
    q, sig = cut.q_grid, ctx.sigma_k
    dq = np.abs(q[:, None] - q[None, :])
    dropped = e != 0.0
    assert (dq[dropped] > density_matrix._BAND_SIGMAS * sig).all()
    # each dropped element is g(dq) R sqrt(rho_ii rho_jj) with R <= sqrt(2),
    # so ||E||_2 <= ||E||_F <= sqrt(2) u
    diag = np.diagonal(rho)
    g = np.exp(-dq[dropped] ** 2 / (8.0 * sig * sig))
    r = e[dropped] / (g * np.sqrt(np.outer(diag, diag))[dropped])
    assert r.size == 0 or float(r.max()) <= math.sqrt(2.0)
    assert float(np.linalg.norm(e)) <= math.sqrt(2.0) * _U
    # Weyl: the spectra differ by that and each solver's O(n u) backward
    # error, stated as n u; S_vn by at most the Fannes-Audenaert bound of
    # their distance t
    lam_cut, lam_wide = eigen_spectrum(cut), eigen_spectrum(wide)
    assert float(np.abs(lam_cut - lam_wide).max()) <= n * _U
    t = 0.5 * float(np.abs(lam_cut - lam_wide).sum())
    assert abs(shannon_discrete(lam_cut) - shannon_discrete(lam_wide)) <= \
        t * math.log2(n - 1) + _binary_entropy(t)


def test_lower_bandwidth():
    # the oracle helper that turns hand-built matrices into bands
    assert band_of(0.5 * np.eye(2)).shape == (1, 2)
    rho = np.diag([0.25] * 4)
    rho[3, 0] = rho[0, 3] = 0.1
    assert np.array_equal(band_of(rho), [[0.25] * 4, [0.0] * 4, [0.0] * 4,
                                         [0.1, 0.0, 0.0, 0.0]])
    rho[3, 0] = 0.0  # the lower triangle alone counts
    assert band_of(rho).shape == (1, 4)
    rho = np.zeros((5, 5))
    rho[4, 2] = rho[2, 4] = 1e-320  # subnormal is nonzero
    assert band_of(rho).shape == (3, 5)


@_HAS_BAND
@pytest.mark.parametrize("n, kd", [(2, 0), (2, 1), (3, 1), (3, 2), (5, 1)])
def test_band_solver_on_small_matrices(n, kd):
    rng = np.random.default_rng(10 * n + kd)
    a = rng.uniform(-1.0, 1.0, (n, n))
    a = np.tril(np.triu(a + a.T, -kd), kd)
    band = band_of(a)
    assert band.shape == (kd + 1, n)
    lam = density_matrix._band_eigvalsh(band)
    assert lam == pytest.approx(np.linalg.eigvalsh(a), abs=1e-14)


def test_eigen_spectrum_of_a_band_matrix_with_known_spectrum(monkeypatch):
    # Q D Q^T with Q two layers of disjoint 2 x 2 rotations, on pairs
    # (0, 1), (2, 3), ... then (1, 2), (3, 4), ...: a band of half-width
    # at most 4 with the spectrum D, on the band path wherever it exists
    rng = np.random.default_rng(2026)
    for n in (23, 64, 257):
        raw = rng.uniform(0.1, 1.0, size=n)
        lam_true = np.sort(raw / raw.sum())[::-1]
        q_mat = np.eye(n)
        for start in (0, 1):
            for i in range(start, n - 1, 2):
                c, s = math.cos(t := rng.uniform(0.0, math.pi)), math.sin(t)
                q_mat[:, [i, i + 1]] = q_mat[:, [i, i + 1]] @ [[c, -s], [s, c]]
        rho = (q_mat * rng.permutation(lam_true)) @ q_mat.T
        rho = 0.5 * (rho + rho.T)
        kd = band_of(rho).shape[0] - 1
        assert 1 <= kd <= 4 and 9 * kd <= 2 * n
        with monkeypatch.context() as patch:
            calls = _record_solvers(patch)
            lam = eigen_spectrum(_dm_from(rho))
        assert [c[0] for c in calls] == [
            "_band_eigvalsh" if density_matrix._DSBEVD else "eigvalsh"]
        assert float(np.max(np.abs(lam - lam_true))) <= 1e-15


def test_the_band_solver_is_there_with_scipy_openblas():
    # numpy's own wheels link the ILP64 scipy-openblas, whose dsbevd_2stage
    # the band path calls: its lookup must not fail there unnoticed
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") == "scipy-openblas":
        assert density_matrix._DSBEVD is not None


# ---------------------------------------------------------------------------
# spectra and entropy of hand-built states
# ---------------------------------------------------------------------------

def _dm_of_band(band):
    band = np.asarray(band, dtype=float)
    return DensityMatrix(q_grid=np.arange(band.shape[1], dtype=float) + 1.0, band=band)


def _dm_from(rho):
    return _dm_of_band(band_of(rho))


def test_eigen_spectrum_simple_cases():
    lam = eigen_spectrum(_dm_from(0.5 * np.eye(2)))
    assert lam == pytest.approx([0.5, 0.5], abs=1e-15)

    v = np.array([3.0, 4.0]) / 5.0
    lam = eigen_spectrum(_dm_from(np.outer(v, v)))
    assert lam == pytest.approx([1.0, 0.0], abs=1e-12)

    # the checked float64 array is what is kept, whatever came in
    for band in (np.full((1, 4), 0.25, np.float32), [[0.5, 0.5], [0.0, 0.0]]):
        dm = DensityMatrix(q_grid=np.arange(len(band[0])) + 1.0, band=band)
        assert isinstance(dm.band, np.ndarray) and dm.band.dtype == np.float64
        lam = eigen_spectrum(dm)
        assert lam.dtype == np.float64
        assert lam == pytest.approx([1.0 / len(lam)] * len(lam), abs=1e-15)


def test_density_matrix_rejects_non_finite():
    # NaN fails the trace comparison, so such a matrix was accepted and
    # its spectrum came out [nan, nan]; the padding past rho's end, which
    # no solver reads, is checked too
    for k, j, bad in ((1, 0, math.nan), (0, 0, math.nan), (0, 1, math.inf),
                      (1, 1, math.nan)):
        band = [[0.5, 0.5], [0.25, 0.0]]
        band[k][j] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _dm_of_band(band)


def test_density_matrix_checks_trace():
    for excess, ok in ((5e-10, True), (2e-9, False), (-2e-9, False)):
        band = np.array([[0.5, 0.5 + excess], [0.25, 0.0]])
        if ok:
            assert _dm_of_band(band).band is band
        else:
            with pytest.raises(ValueError, match="expected 1"):
                _dm_of_band(band)


def test_density_matrix_checks_the_band_shape():
    # one column per grid point, kd + 1 <= n rows, and 2-D
    q = np.arange(3, dtype=float) + 1.0
    for band in (np.full((1, 4), 0.25), np.full((1, 2), 0.5), np.zeros((4, 3)),
                 np.zeros((0, 3)), np.full(3, 1.0 / 3.0), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match=r"band must be \(kd \+ 1\) x n with "
                           r"kd < n = 3 grid points, got shape"):
            DensityMatrix(q_grid=q, band=band)
    assert DensityMatrix(q_grid=q, band=np.full((3, 3), 1.0 / 3.0)).band.shape == (3, 3)


def test_a_build_holds_rho_as_its_tight_lower_band(dm256):
    # kd + 1 rows, the top one holding the farthest nonzero element: the
    # band is what the dense scan of rho finds, and rho, expanded from it,
    # is exactly symmetric with the band on its lower diagonals
    band, rho = dm256.band, dm256.rho
    kd = band.shape[0] - 1
    assert band.shape == (kd + 1, 256) and 1 <= kd < 256
    assert band[kd].any()
    assert np.array_equal(band_of(rho), band)
    assert np.array_equal(rho, rho.T)
    for k in range(kd + 1):
        assert np.array_equal(rho.diagonal(-k), band[k, :256 - k]), k
        assert not band[k, 256 - k:].any(), k
    assert not np.tril(rho, -kd - 1).any()


@pytest.mark.parametrize("band_handle", [True, False])
def test_eigen_spectrum_leaves_the_band_alone(dm256, band_handle, monkeypatch):
    # LAPACK's band solver may overwrite its AB argument, so it gets a
    # copy, also of a band that is already in Fortran order
    if not band_handle:
        monkeypatch.setattr(density_matrix, "_DSBEVD", None)
    for dm in (dm256, _dm_of_band(np.asfortranarray(dm256.band)),
               _dm_from(np.diag([0.25] * 4))):
        before = dm.band.copy()
        eigen_spectrum(dm)
        assert np.array_equal(dm.band, before)
    if band_handle and density_matrix._DSBEVD is not None:
        # dsbevd_2stage scales AB in place where its norm is below
        # sqrt(safe minimum / eps) ~ 1e-146, which no unit-trace band is
        tiny = np.asfortranarray(dm256.band * 1e-150)
        before = tiny.copy()
        lam = density_matrix._band_eigvalsh(tiny)
        assert np.array_equal(tiny, before)
        assert lam[::-1] == pytest.approx(1e-150 * eigen_spectrum(dm256),
                                          rel=1e-9, abs=1e-165)


def test_density_matrix_is_immutable():
    dm = _dm_from(0.5 * np.eye(2))
    assert dm != _dm_from(0.5 * np.eye(2))  # identity, not array, equality
    for name in ("rho", "band", "q_grid", "extra"):
        with pytest.raises(AttributeError):
            setattr(dm, name, np.eye(2))
    for name in ("rho", "band"):
        with pytest.raises(AttributeError):
            delattr(dm, name)


def test_eigen_spectrum_rejects_nonpsd():
    with pytest.raises(NumericalError, match="not positive semidefinite"):
        eigen_spectrum(_dm_from(np.diag([1.5, -0.5])))


def test_eigen_spectrum_rejects_a_clamped_sum_off_unit_trace():
    # 99 eigenvalues of -9e-11 pass the PSD tolerance and are clamped to
    # 0, which leaves the spectrum 8.9e-9 above unit trace
    rho = np.diag([1.0 + 99 * 9e-11] + [-9e-11] * 99)
    dm = _dm_from(rho)
    with pytest.raises(NumericalError, match=r"^eigenvalue sum 1\.00000000\d* "
                       r"deviates from unit trace$"):
        eigen_spectrum(dm)


def test_eigen_spectrum_vs_characteristic_polynomial():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        raw = rng.uniform(0.1, 1.0, size=dim)
        lam_true = np.sort(raw / raw.sum())[::-1]
        q_mat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        rho = (q_mat * lam_true) @ q_mat.T
        rho = 0.5 * (rho + rho.T)
        lam = eigen_spectrum(_dm_from(rho))
        ref = charpoly_spectrum(rho)
        assert float(np.max(np.abs(lam - ref))) <= 1e-8
