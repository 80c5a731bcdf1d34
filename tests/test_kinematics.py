import math

import pytest
from hypothesis import given, strategies as st

from escatter import (
    BOHR_RADIUS_NM,
    HARTREE_EV,
    NumericalError,
    ScatterContext,
    make_context,
)


def test_scatter_context_is_an_immutable_value():
    ctx = make_context(5.0, 100.0)
    same = ScatterContext(K=ctx.K, sigma_k=ctx.sigma_k, epsilon=ctx.epsilon,
                          delta_theta=ctx.delta_theta)
    assert same == ctx and hash(same) == hash(ctx)
    assert repr(ctx) == (f"ScatterContext(K={ctx.K!r}, sigma_k={ctx.sigma_k!r}, "
                         f"epsilon={ctx.epsilon!r}, "
                         f"delta_theta={ctx.delta_theta!r})")
    with pytest.raises(AttributeError):
        ctx.K = 1.0


def test_ev_to_hartree_definition():
    # K = sqrt(E), E in Hartree: one Hartree gives K = 1
    assert make_context(27.211386245988, 100.0).K == pytest.approx(1.0, rel=1e-14)
    assert make_context(100.0, 100.0).K ** 2 == pytest.approx(3.67493, abs=5e-6)


#: (e_ev, l_nm, k_scale, what the refusal says): each input is checked
#: once, E in Hartree first, then L in bohr, then k_scale, then what
#: they give together
_REFUSED = (
    (0.0, 100.0, 1.0, "energy must be positive"),
    (-1.0, 100.0, 1.0, "energy must be positive"),
    (math.nan, 100.0, 1.0, "energy must be positive"),
    (5e-324, 100.0, 1.0, "energy must be positive"),  # 0 in Hartree
    (5.0, -5.0, 1.0, "l_nm = -5.0 nm must be positive and finite in bohr"),
    (5.0, 0.0, 1.0, "l_nm = 0.0 nm must be positive and finite in bohr"),
    (5.0, math.nan, 1.0, "must be positive and finite in bohr"),
    (5.0, 1e308, 1.0, r"l_nm = 1e\+308 nm must be positive and finite in bohr"),
    (-1.0, -5.0, 0.0, "energy must be positive"),
    (5.0, -5.0, 0.0, "l_nm = -5.0 nm"),
    (5.0, 100.0, 0.0, "k_scale must be positive"),
    (5.0, 100.0, -1.0, "k_scale must be positive"),
    (5.0, 100.0, math.nan, "k_scale must be positive"),
    # 2 E b_bar underflows: refused before epsilon divides by it
    (1e-200, 1e-200, 1.0, r"2 E b_bar rounds to 0 at e_ev = 1e-200, "
                          r"l_nm = 1e-200: no scattering angle"),
    # K, or K L, below the normal range: refused before delta_theta
    # divides by K L, naming k_scale
    (1.0, 100.0, 5e-324, r"k_scale = 5e-324 is too small at e_ev = 1.0, "
                         r"l_nm = 100.0: K = 0.0 or K L = 0.0"),
    (1.0, 1e20, 1e-310, r"k_scale = 1e-310 is too small"),  # K subnormal
    (1.0, 1e-20, 1e-300, r"k_scale = 1e-300 is too small"),  # K L subnormal
)


def test_energy_domain_errors():
    for e_ev, l_nm, k_scale, message in _REFUSED:
        with pytest.raises(ValueError, match=message):
            make_context(e_ev, l_nm, k_scale)


def test_context_refuses_unrepresentable_energy():
    # the grids start epsilon past theta = 0 in cells of width
    # delta_theta: the context refuses an energy that loses the one
    # against the other, naming the energy.  K itself has no limit: at
    # 1e160 eV K^4 overflows, which the cell integrals no longer see
    with pytest.raises(NumericalError, match=r"e_ev = 1e\+160 .*epsilon .* lost"):
        make_context(1e160, 100.0)
    with pytest.raises(NumericalError, match=r"e_ev = 1e\+40 .*epsilon .* lost"):
        make_context(1e40, 100.0)
    ctx = make_context(1e12, 1000.0, math.sqrt(2.0))  # test_a12's point
    assert ctx.epsilon + ctx.delta_theta > ctx.delta_theta


@given(st.floats(min_value=1e-6, max_value=1e9))
def test_energy_round_trip(e_ev):
    assert make_context(e_ev, 100.0).K ** 2 * HARTREE_EV == pytest.approx(
        e_ev, rel=1e-12)


def test_wave_number_values():
    assert make_context(HARTREE_EV, 100.0).K == 1.0
    assert make_context(4.0 * HARTREE_EV, 100.0).K == 2.0
    assert make_context(100.0, 100.0).K == pytest.approx(1.91701, abs=5e-6)


def test_min_angle_values():
    # 2 E b_bar = 1 puts the cutoff at the equator: 1 Hartree and
    # b_bar = L / sqrt(2) = 1/2 bohr
    l_nm = BOHR_RADIUS_NM / math.sqrt(2.0)
    assert make_context(HARTREE_EV, l_nm).epsilon == pytest.approx(
        math.pi / 2, rel=1e-15)
    assert make_context(100.0, 50.0).epsilon == pytest.approx(4.073e-4, rel=1e-3)


@given(st.floats(min_value=-3, max_value=6))
def test_min_angle_monotone_in_energy(log_e):
    # epsilon decreases strictly in E and in L
    e = 10.0 ** log_e
    assert make_context(2.0 * e, 100.0).epsilon < make_context(e, 100.0).epsilon
    assert make_context(5.0, 2.0 * e).epsilon < make_context(5.0, e).epsilon


def test_context_invariants():
    # each field against its formula written out: E in Hartree, L in
    # bohr, and the limiting impact parameter b_bar = L / sqrt(2)
    for e_ev, l_nm, k_scale in ((1.0, 100.0, 1.0), (5.0, 100.0, math.sqrt(2.0)),
                                (1e12, 1000.0, 1.3)):
        ctx = make_context(e_ev, l_nm, k_scale)
        e_ha = e_ev / HARTREE_EV
        length = l_nm / BOHR_RADIUS_NM
        assert ctx.K == k_scale * math.sqrt(e_ha)
        assert ctx.sigma_k == 1.0 / length
        assert ctx.epsilon == 2.0 * math.atan(
            1.0 / (2.0 * e_ha * (length / math.sqrt(2.0))))
        assert ctx.delta_theta == 2.0 / (ctx.K * length)
        assert 0 < ctx.epsilon < math.pi / 2


def test_packet_scale_check():
    a = make_context(100.0, 50.0)
    b = make_context(100.0, 100.0)
    assert b.delta_theta == pytest.approx(a.delta_theta / 2.0, rel=1e-15)
    assert b.sigma_k == pytest.approx(a.sigma_k / 2.0, rel=1e-15)


def test_k_scale_applies_multiplicatively():
    base = make_context(5.0, 100.0)
    cal = make_context(5.0, 100.0, k_scale=math.sqrt(2.0))
    assert cal.K == pytest.approx(base.K * math.sqrt(2.0), rel=1e-15)
    # epsilon is set by energy and packet geometry, not by the calibration
    assert cal.epsilon == base.epsilon
    assert cal.delta_theta == pytest.approx(base.delta_theta / math.sqrt(2.0),
                                            rel=1e-15)
