import math
import mmap
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
    dm_rot = DensityMatrix(q_grid=dm256.q_grid, rho=rotated)
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
        rho = build_meridian_matrix(ctx, n).rho
        rounds = len(direct_calls)
        assert rounds <= 2, n
        mu_per_build[n] = sum(direct_calls)
        assert np.array_equal(table(band_mu[0], ctx),
                              kernel_j_table_oracle(band_mu[0], ctx)), n
        monkeypatch.setattr(density_matrix, "_kernel_j_table",
                            kernel_j_table_oracle)
        assert np.array_equal(build_meridian_matrix(ctx, n).rho, rho), n
    assert mu_per_build[1024] == mu_1024
    assert mu_per_build[2] < grown_from_min_mu_2
    assert rounds <= grown_from_min_rounds  # n = 1024


@pytest.mark.parametrize("e_ev,l_nm", [(5.0, 100.0), (20.0, 100.0),
                                       (1.0, 20.0)])
def test_assembly_matches_per_element_oracle(e_ev, l_nm):
    # 1 eV / 20 nm has sigma_k / q_min ~ 0.1: J varies fastest there
    ctx = make_context(e_ev, l_nm, CALIBRATED_KSCALE)
    for n in (48, 256, 512):
        dm = build_meridian_matrix(ctx, n)
        ref = meridian_matrix_oracle(ctx, n)
        nonzero = ref != 0.0
        assert np.array_equal(dm.rho != 0.0, nonzero), n
        rel = np.abs(dm.rho[nonzero] - ref[nonzero]) / ref[nonzero]
        assert float(rel.max()) <= 1e-9, n
        s_ref = shannon_discrete(eigen_spectrum(DensityMatrix(
            q_grid=dm.q_grid, rho=ref)))
        assert abs(shannon_discrete(eigen_spectrum(dm)) - s_ref) <= 1e-9, n


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


@pytest.mark.skipif(not (os.path.exists("/proc/self/smaps")
                         and hasattr(mmap, "MAP_PRIVATE")),
                    reason="needs /proc/self/smaps and private mappings")
def test_only_the_band_pages_are_resident():
    # rho lives on a private mapping that declines huge pages, so the
    # pages outside the 45 sigma_k band stay on the kernel's zero page
    # however often the checks and eigvalsh read them.  np.zeros put it on
    # huge pages, all 8,192 kB resident; the band's pages are ~4,200 kB
    dm = build_meridian_matrix(make_context(5.1, 100.0, CALIBRATED_KSCALE), 1024)
    eigen_spectrum(dm)
    start = dm.rho.ctypes.data
    end = start + dm.rho.nbytes
    kb, inside = {"Size:": 0, "Rss:": 0}, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            key, value = line.split()[:2]
            if not key.endswith(":"):  # a mapping's first line: lo-hi perms ...
                lo, hi = (int(a, 16) for a in key.split("-"))
                inside = lo < end and hi > start
            elif inside and key in kb:
                kb[key] += int(value)
    # the mappings that hold rho; a neighbour of the same kind may have
    # merged with rho's, and numpy's huge-page advice splits its own
    assert kb["Size:"] * 1024 >= dm.rho.nbytes
    assert kb["Rss:"] <= 0.6 * kb["Size:"], kb


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


@pytest.mark.skipif(not _FLUSHES, reason="the flush applies on Linux x86-64 only")
def test_eigen_spectrum_restores_the_fp_environment(dm256, monkeypatch):
    # eigvalsh sees FTZ and DAZ set, and the thread gets its own MXCSR
    # back whether eigvalsh returns or raises; vn-compare's worker threads
    # flush their own MXCSR, never the main thread's
    assert density_matrix._LIBC is not None
    saved = _mxcsr_controls()
    assert saved == 0x1F80
    inside = []
    plain = np.linalg.eigvalsh

    def recording(a):
        inside.append(_mxcsr_controls())
        return plain(a)

    def failing(a):
        inside.append(_mxcsr_controls())
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    eigen_spectrum(dm256)
    assert inside == [saved | 0x8040] and _mxcsr_controls() == saved
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError):
        eigen_spectrum(dm256)
    assert inside[1:] == [saved | 0x8040] and _mxcsr_controls() == saved
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    assert main(["vn-compare", "--n-grid", "48", "--energy-list", "5,20",
                 "--threads", "2"]) == 0
    assert inside[2:] == [saved | 0x8040] * 2 and _mxcsr_controls() == saved


@pytest.mark.parametrize("e_ev, n_grid", [(5.1, 1024), (19.6, 1024), (5.0, 512)])
def test_flushed_spectrum_equals_the_plain_one(e_ev, n_grid, monkeypatch):
    # pins an observation, not a guarantee: at these points LAPACK's
    # fill-in outside rho's band is subnormal, and the flush changed no bit
    # of the spectrum.  With no C library handle eigen_spectrum takes the
    # fallback path, plain eigvalsh as off Linux x86-64, so that path runs
    # on every platform.
    dm = build_meridian_matrix(make_context(e_ev, 100.0, CALIBRATED_KSCALE), n_grid)
    flushed = eigen_spectrum(dm)
    monkeypatch.setattr(density_matrix, "_LIBC", None)
    assert np.array_equal(flushed, eigen_spectrum(dm))


# ---------------------------------------------------------------------------
# spectra and entropy of hand-built states
# ---------------------------------------------------------------------------

def _dm_from(rho):
    n = rho.shape[0]
    return DensityMatrix(q_grid=np.arange(n, dtype=float) + 1.0, rho=rho)


def test_eigen_spectrum_simple_cases():
    lam = eigen_spectrum(_dm_from(0.5 * np.eye(2)))
    assert lam == pytest.approx([0.5, 0.5], abs=1e-15)

    v = np.array([3.0, 4.0]) / 5.0
    lam = eigen_spectrum(_dm_from(np.outer(v, v)))
    assert lam == pytest.approx([1.0, 0.0], abs=1e-12)

    # the checked float64 array is what is kept, whatever came in
    for rho in (np.diag([0.25] * 4).astype(np.float32), [[0.5, 0.0], [0.0, 0.5]]):
        dm = DensityMatrix(q_grid=np.arange(len(rho)) + 1.0, rho=rho)
        assert isinstance(dm.rho, np.ndarray) and dm.rho.dtype == np.float64
        lam = eigen_spectrum(dm)
        assert lam.dtype == np.float64
        assert lam == pytest.approx([1.0 / len(lam)] * len(lam), abs=1e-15)


def test_density_matrix_rejects_non_finite():
    # NaN fails the symmetry and trace comparisons, so such a matrix was
    # accepted and its spectrum came out [nan, nan]
    for i, j, bad in ((0, 1, math.nan), (0, 0, math.nan), (1, 0, math.inf)):
        rho = 0.5 * np.eye(2)
        rho[i, j] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _dm_from(rho)


def test_density_matrix_checks_symmetry_and_trace():
    # symmetric to 1e-12 of the largest |entry|, here a negative one
    for gap, ok in ((1.5e-12, True), (3e-12, False)):
        rho = np.array([[0.5, -2.0], [-2.0 + gap, 0.5]])
        if ok:
            assert _dm_from(rho).rho is rho
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                _dm_from(rho)
    for excess, ok in ((5e-10, True), (2e-9, False)):
        rho = np.diag([0.5, 0.5 + excess])
        if ok:
            _dm_from(rho)
        else:
            with pytest.raises(ValueError, match="expected 1"):
                _dm_from(rho)


def test_symmetry_check_covers_every_tile():
    # the check compares row tiles with their mirror image; an asymmetry
    # of 1e-9 of the scale is caught wherever it sits, in the first or
    # last tile, on a tile's edge or far off the diagonal, and nowhere
    # else does the check fire
    n, b = 1024, density_matrix._SYM_TILE
    rng = np.random.default_rng(3)
    base = rng.uniform(0.0, 1.0, (n, n))
    base = 0.5 * (base + base.T)
    base /= np.trace(base)
    scale = float(base.max())
    _dm_from(base)
    for i, j in ((0, 1), (1, 0), (0, n - 1), (n - 1, 0), (b - 1, b),
                 (b, b - 1), (n - 2, n - 1), (n - 1, n - 2), (500, 37)):
        rho = base.copy()
        rho[i, j] += 1e-9 * scale
        with pytest.raises(ValueError, match="not symmetric"):
            _dm_from(rho)
    for shape in ((2, 3), (4,)):
        with pytest.raises(ValueError, match="square"):
            _dm_from(np.zeros(shape))


def test_density_matrix_is_immutable():
    dm = _dm_from(0.5 * np.eye(2))
    assert dm != _dm_from(0.5 * np.eye(2))  # identity, not array, equality
    for name in ("rho", "q_grid", "extra"):
        with pytest.raises(AttributeError):
            setattr(dm, name, np.eye(2))
    with pytest.raises(AttributeError):
        del dm.rho


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
