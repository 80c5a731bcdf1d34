"""Acceptance gate: one test per shipped guarantee, at the quoted
tolerances and runtime caps.  Each test prints as its own pass/fail line
under ``pytest -v``.

All benchmark working points use the calibrated wave-number scale
(sqrt(2)); see the README for how the calibration is pinned.
"""

import csv
import math
import time

import numpy as np
import pytest

from escatter import (
    SpinChannel,
    build_meridian_matrix,
    eigen_spectrum,
    equator_entropies,
    kernel_element,
    make_context,
    postselect_entropies,
    shannon_discrete,
    shannon_ring_discrete,
    shannon_ring_jaynes,
    shannon_sphere_discrete,
)
from escatter.cli import main
from escatter.density_matrix import DensityMatrix

from oracles import (
    CALIBRATED_KSCALE,
    charpoly_spectrum,
    diagonal_convolution_oracle,
    postselect_gap_oracle,
)

SQRT2 = repr(math.sqrt(2.0))


def test_a01_equator_count_identities():
    t0 = time.perf_counter()
    for n in (3140, 18050):
        eq = equator_entropies(n)
        log2n = math.log2(n)
        assert eq.S_parallel_modified == pytest.approx(log2n, abs=1e-12)
        assert eq.S_antiparallel_modified == pytest.approx(1.0 + log2n,
                                                           abs=1e-12)
        assert eq.S_parallel == pytest.approx(1.0 + log2n, abs=1e-12)
        assert eq.S_antiparallel == pytest.approx(2.0 + log2n, abs=1e-12)
    # quoted working points: the tabulated values are the detector-count
    # logarithms, i.e. the parallel-channel detection entropies
    assert equator_entropies(3140).S_parallel_modified == \
        pytest.approx(11.6, abs=0.05)
    assert equator_entropies(18050).S_parallel_modified == \
        pytest.approx(14.1, abs=0.05)
    assert time.perf_counter() - t0 < 1.0


def test_a02_first_two_cells_triple():
    t0 = time.perf_counter()
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    row = postselect_entropies(ctx, 2.5 * ctx.delta_theta)
    assert row["n_cells"] == 2
    assert row["S_spinless"] == pytest.approx(1.0, abs=0.03)
    assert row["S_par"] == pytest.approx(0.54, abs=0.03)
    assert row["S_ap"] == pytest.approx(2.0, abs=0.03)
    assert time.perf_counter() - t0 < 1.0


def test_a03_postselect_gap_plateau():
    t0 = time.perf_counter()
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)

    # sub-check 1: with the acceptance opened to the full half shell all
    # channels approach a common value
    wide = postselect_entropies(ctx, math.pi / 2.0 - ctx.epsilon)
    for key in ("S_spinless", "S_par", "S_ap"):
        assert wide[key] == pytest.approx(2.4, abs=0.3), key

    # sub-check 2: the antiparallel-parallel gap on the band is the
    # fine-grid gap of the channel densities.  A thin band gives
    # 1 + (ln 3 - 2/3)/ln 2 = 1.6232 bits; the gap then falls as
    # -(12/25) T^2 / ln 2 with the band width T, so it is not flat at
    # 1.6 +/- 0.2 out to 1.0 rad (it leaves that band near 0.569 rad).
    rows = {theta_r: postselect_entropies(ctx, theta_r)
            for theta_r in (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)}
    assert time.perf_counter() - t0 < 60.0
    curve = ", ".join(f"{k:g}: {r['delta_S']:.5f}" for k, r in rows.items())
    gap0 = 1.0 + (math.log(3.0) - 2.0 / 3.0) / math.log(2.0)
    fall = (12.0 / 25.0) / math.log(2.0)
    for theta_r, row in rows.items():
        # the trailing sliver narrower than one cell is dropped, so the
        # grid covers T = n_cells * delta_theta, not theta_r
        T = row["n_cells"] * ctx.delta_theta
        oracle = postselect_gap_oracle(T)
        assert abs(row["delta_S"] - oracle) <= 1e-3, (
            f"theta_r={theta_r:g}: gap {row['delta_S']:.6f} vs oracle "
            f"{oracle:.6f}; measured {curve}")
        if theta_r <= 0.2:
            assert abs(oracle - (gap0 - fall * T * T)) <= 1e-4, (
                f"T={T:g}: oracle {oracle:.6f} vs small-band series "
                f"{gap0 - fall * T * T:.6f}")
    gaps = [row["delta_S"] for row in rows.values()]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), (
        f"gap must fall strictly with theta_r; measured {curve}")


def test_a04_channel_convergence_large_packet():
    t0 = time.perf_counter()
    for e_ev in (1.0, 100.0, 10_000.0):
        ctx = make_context(e_ev, 50_000.0, CALIBRATED_KSCALE)  # 50 um packet
        row = postselect_entropies(ctx, math.pi / 2.0 - ctx.epsilon)
        assert abs(row["S_par"] - row["S_spinless"]) < 1e-5, e_ev
        assert abs(row["S_ap"] - row["S_par"]) < 1e-6, e_ev
    assert time.perf_counter() - t0 < 60.0


def test_a05_energy_sweep_values_and_monotonicity(capsys):
    t0 = time.perf_counter()
    energies = list(np.logspace(0.0, math.log10(5e4), 20))
    assert main(["spinless-sweep", "--packet-nm", "50", "--k-scale", SQRT2,
                 "--threads", "1",
                 "--energy-list", ",".join(repr(float(e)) for e in energies)]
                ) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert [float(r["E_ev"]) for r in rows] == pytest.approx(energies, rel=1e-11)
    assert all(r["status"] == "ok" for r in rows)
    s = [float(r["S_bits"]) for r in rows]
    assert all(a > b for a, b in zip(s, s[1:])), "sweep must fall strictly"
    assert s[0] == pytest.approx(3.5, abs=0.3)          # 1 eV
    assert 0.5 * 7e-3 <= s[-1] <= 2.0 * 7e-3            # 50 keV, factor 2
    ctx = make_context(100.0, 50.0, CALIBRATED_KSCALE)
    s100 = shannon_ring_discrete(ctx, SpinChannel.SPINLESS)
    assert s100 == pytest.approx(0.7, abs=0.2)
    assert time.perf_counter() - t0 < 60.0


def test_a06_sphere_and_ring_benchmarks():
    t0 = time.perf_counter()
    lo = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    hi = make_context(10_000.0, 50.0, CALIBRATED_KSCALE)

    assert shannon_sphere_discrete(lo) == pytest.approx(9.3, abs=0.5)
    assert shannon_sphere_discrete(hi) == pytest.approx(1.8, abs=0.4)

    # ring values at the same working points, same relative tolerances
    assert shannon_ring_discrete(lo, SpinChannel.SPINLESS) == \
        pytest.approx(3.5, rel=0.5 / 9.3)
    assert shannon_ring_discrete(hi, SpinChannel.SPINLESS) == \
        pytest.approx(0.03, rel=0.4 / 1.8)
    assert time.perf_counter() - t0 < 60.0


def test_a07_continuous_limit_matches_discrete():
    t0 = time.perf_counter()
    ctx = make_context(1.0, 50.0, CALIBRATED_KSCALE)
    for channel in SpinChannel:
        for n in (1_000, 10_000, 100_000):
            d = shannon_ring_discrete(ctx, channel, n_cells=n)
            j = shannon_ring_jaynes(ctx, channel, n_cells=n)
            assert abs(j - d) <= 0.05, (channel, n, d, j)
    assert time.perf_counter() - t0 < 120.0


def test_a08_density_matrix_suite():
    t0 = time.perf_counter()
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    dm = build_meridian_matrix(ctx, 512)

    # symmetric, unit trace
    assert float(np.max(np.abs(dm.rho - dm.rho.T))) == 0.0
    assert float(np.trace(dm.rho)) == pytest.approx(1.0, abs=1e-12)

    # positive semidefinite after the clamp, unit eigenvalue sum
    lam = eigen_spectrum(dm)
    assert np.all(lam >= 0.0)
    assert float(lam.sum()) == pytest.approx(1.0, abs=1e-9)

    # spectrum invariant under a random orthogonal change of basis
    rng = np.random.default_rng(2026)
    q_mat, _ = np.linalg.qr(rng.normal(size=dm.rho.shape))
    rotated = q_mat @ dm.rho @ q_mat.T
    dm_rot = DensityMatrix(theta_grid=dm.theta_grid, q_grid=dm.q_grid,
                           rho=0.5 * (rotated + rotated.T))
    assert float(np.max(np.abs(eigen_spectrum(dm_rot) - lam))) <= 1e-9

    # diagonal kernel against the independent smoothing quadrature
    for i in (0, 5, 50, 255, 511):
        q = float(dm.q_grid[i])
        val = kernel_element(q, q, ctx)
        ref = diagonal_convolution_oracle(q, ctx, n_radial=800, n_phi=64)
        assert val == pytest.approx(ref, rel=1e-6), i

    # eigenbasis entropy cannot exceed the position-basis entropy
    s_vn = shannon_discrete(lam)
    assert s_vn <= shannon_discrete(np.diag(dm.rho)) + 1e-9

    # and it tracks the ring entropy on the matching 512-cell grid
    s_ring = shannon_ring_discrete(ctx, SpinChannel.SPINLESS, n_cells=512)
    assert abs(s_vn - s_ring) <= 0.3
    assert time.perf_counter() - t0 < 300.0


def test_a09_spectra_match_characteristic_polynomial():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        raw = rng.uniform(0.1, 1.0, size=dim)
        lam_true = raw / raw.sum()
        q_mat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        rho = (q_mat * lam_true) @ q_mat.T
        rho = 0.5 * (rho + rho.T)
        dm = DensityMatrix(theta_grid=np.arange(dim, dtype=float),
                           q_grid=np.arange(dim, dtype=float) + 1.0,
                           rho=rho)
        lam = eigen_spectrum(dm)
        ref = charpoly_spectrum(rho)
        assert float(np.max(np.abs(lam - ref))) <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_a10_thread_count_keeps_bytes(tmp_path):
    t0 = time.perf_counter()
    cases = (
        ["spinless-sweep", "--energy-list", "1,5,25,100",
         "--packet-nm", "50", "--k-scale", SQRT2],
        ["postselect-range", "--energy-ev", "5", "--k-scale", SQRT2],
        # the one table whose rows run on worker threads
        ["vn-compare", "--energy-list", "5,20", "--n-grid", "256",
         "--k-scale", SQRT2],
    )
    for idx, argv in enumerate(cases):
        a = tmp_path / f"{idx}-t1.csv"
        b = tmp_path / f"{idx}-t8.csv"
        assert main(argv + ["--threads", "1", "--out", str(a)]) == 0
        assert main(argv + ["--threads", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv[0]
    assert time.perf_counter() - t0 < 60.0


def test_a11_meridian_matrix_runtime():
    # assembly from the J(mu) table plus the eigenvalues-only solve; the
    # per-element assembly with eigenvectors took about 14 s on a 2-CPU host
    t0 = time.perf_counter()
    ctx = make_context(5.0, 100.0, CALIBRATED_KSCALE)
    dm = build_meridian_matrix(ctx, 2048)
    lam = eigen_spectrum(dm)
    assert time.perf_counter() - t0 < 5.0
    assert lam.size == 2048
    assert float(lam.sum()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("command", ["spinless-sweep", "sphere-sweep",
                                     "spin-sweep"])
def test_a12_teraelectronvolt_micron_rows_runtime(command, capsys):
    # 1e12 eV at 1 um: 8.05e9 ring cells (8.2e19 sphere pixels), which
    # the cell-by-cell sums took about ten minutes per row to walk
    t0 = time.perf_counter()
    assert main([command, "--energy-ev", "1e12", "--packet-nm", "1000",
                 "--k-scale", SQRT2, "--threads", "1"]) == 0
    assert time.perf_counter() - t0 < 2.0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert row["status"] == "ok"
    n = int(row.get("n_cells") or row["n_rings"])
    # the spin channels' half shell holds half the cells
    assert n == pytest.approx(4.02e9 if command == "spin-sweep" else 8.05e9,
                              rel=1e-3)
    # upper bounds: log2 of the outcome count, the exchange bit included
    bounds = {"spinless-sweep": {"S_bits": n},
              "sphere-sweep": {"S_bits": int(row.get("pixel_count", 0))},
              "spin-sweep": {"S_par": 2 * n, "S_ap": 4 * n,
                             "S_par_modified": n, "S_ap_modified": 2 * n}}
    for column, outcomes in bounds[command].items():
        assert 0.0 <= float(row[column]) <= math.log2(outcomes), column
