import math

import pytest
from hypothesis import given, strategies as st

from escatter import (
    HARTREE_EV,
    NumericalError,
    ev_to_hartree,
    make_context,
    min_scattering_angle,
    nm_to_bohr,
    wave_number,
)


def test_ev_to_hartree_definition():
    assert ev_to_hartree(27.211386245988) == pytest.approx(1.0, rel=1e-14)
    assert ev_to_hartree(100.0) == pytest.approx(3.67493, abs=5e-6)


def test_energy_domain_errors():
    with pytest.raises(ValueError):
        ev_to_hartree(0.0)
    with pytest.raises(ValueError):
        ev_to_hartree(-1.0)
    with pytest.raises(ValueError):
        nm_to_bohr(-5.0)
    with pytest.raises(ValueError):
        wave_number(0.0)
    with pytest.raises(ValueError):
        wave_number(1.0, k_scale=0.0)
    with pytest.raises(ValueError):
        min_scattering_angle(1.0, 0.0)


def test_context_refuses_unrepresentable_energy():
    # the cell integrals scale as 1/K^4 and start epsilon past theta = 0
    # in cells of width delta_theta: the context refuses an energy that
    # overflows the one or loses the other, naming the energy
    with pytest.raises(NumericalError, match=r"e_ev = 1e\+160 .*K\^4 overflows"):
        make_context(1e160, 100.0)
    with pytest.raises(NumericalError, match=r"e_ev = 1e\+40 .*epsilon .* lost"):
        make_context(1e40, 100.0)
    ctx = make_context(1e12, 1000.0, math.sqrt(2.0))  # test_a12's point
    assert ctx.epsilon + ctx.delta_theta > ctx.delta_theta


@given(st.floats(min_value=1e-6, max_value=1e9))
def test_energy_round_trip(e_ev):
    assert ev_to_hartree(e_ev) * HARTREE_EV == pytest.approx(e_ev, rel=1e-12)


def test_wave_number_values():
    assert wave_number(1.0) == 1.0
    assert wave_number(4.0) == 2.0
    assert wave_number(3.67493) == pytest.approx(1.91701, abs=5e-6)


def test_min_angle_values():
    # 2 E b_bar = 1 puts the cutoff at the equator
    assert min_scattering_angle(0.5, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert min_scattering_angle(3.67493, 668.1) == pytest.approx(4.073e-4, rel=1e-3)


@given(st.floats(min_value=-3, max_value=6))
def test_min_angle_monotone_in_energy(log_e):
    e = 10.0 ** log_e
    b = 100.0
    assert min_scattering_angle(2.0 * e, b) < min_scattering_angle(e, b)


def test_context_invariants():
    ctx = make_context(1.0, 100.0)
    length = nm_to_bohr(100.0)
    assert ctx.K > 0
    assert 0 < ctx.epsilon < math.pi / 2
    assert ctx.sigma_k == pytest.approx(1.0 / length, rel=1e-15)
    assert ctx.delta_theta == pytest.approx(2.0 / (ctx.K * length), rel=1e-15)
    # each field recomputed independently: 1 eV in Hartree, and the
    # limiting impact parameter b_bar = L / sqrt(2)
    e_ha = 1.0 / HARTREE_EV
    assert ctx.K == pytest.approx(wave_number(e_ha), rel=1e-14)
    assert ctx.epsilon == pytest.approx(
        min_scattering_angle(e_ha, length / math.sqrt(2.0)), rel=1e-14)
    assert ctx.epsilon == pytest.approx(
        2.0 * math.atan(math.sqrt(2.0) / (2.0 * e_ha * length)), rel=1e-14)


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
