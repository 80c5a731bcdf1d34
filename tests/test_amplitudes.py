import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from escatter import SpinChannel
from oracles import (
    differential_probability,
    direct_amplitude,
    exchange_amplitude,
)


def test_direct_values():
    assert direct_amplitude(math.pi, 1.0) == pytest.approx(0.25, rel=1e-15)
    assert direct_amplitude(math.pi / 2, 1.0) == pytest.approx(0.5, rel=1e-15)
    th = 1e-3
    assert direct_amplitude(th, 1.917) == pytest.approx(
        1.0 / (4.0 * 1.917 ** 2 * math.sin(th / 2) ** 2), rel=1e-14)


def test_forward_growth():
    # ~1/theta^2 growth toward the forward direction
    assert direct_amplitude(1e-4, 1.0) / direct_amplitude(1e-3, 1.0) \
        == pytest.approx(100.0, rel=1e-5)


def test_exchange_values():
    assert exchange_amplitude(math.pi / 2, 1.0) == pytest.approx(0.5, rel=1e-15)
    eps = 1e-4
    assert exchange_amplitude(eps, 2.0) == pytest.approx(1.0 / 16.0, rel=1e-6)


def test_singularity_errors():
    with pytest.raises(ValueError):
        direct_amplitude(0.0, 1.0)
    with pytest.raises(ValueError):
        direct_amplitude(-0.1, 1.0)
    with pytest.raises(ValueError):
        direct_amplitude(math.pi + 1e-9, 1.0)
    with pytest.raises(ValueError):
        exchange_amplitude(math.pi, 1.0)
    with pytest.raises(ValueError):
        exchange_amplitude(-1e-12, 1.0)


@given(st.floats(min_value=0.01, max_value=math.pi - 0.01),
       st.floats(min_value=0.01, max_value=100.0))
def test_exchange_symmetry(theta, K):
    # the reflected angle pi - theta inherits the rounding of float pi,
    # which the 1/theta^2 pole amplifies; staying 0.01 away from the ends
    # keeps that reconstruction error below ~1e-13 relative
    assert exchange_amplitude(theta, K) == pytest.approx(
        direct_amplitude(math.pi - theta, K), rel=5e-13)


@given(st.floats(min_value=1e-6, max_value=math.pi - 1e-6))
def test_positivity(theta):
    assert direct_amplitude(theta, 1.3) > 0.0
    assert exchange_amplitude(theta, 1.3) > 0.0


def test_channel_combinations():
    # f and g agree to one ulp on the equator, so the antisymmetric
    # combination is zero up to squared rounding
    assert differential_probability(
        math.pi / 2, 1.0, SpinChannel.PARALLEL) < 1e-30
    assert differential_probability(
        math.pi / 2, 1.0, SpinChannel.ANTIPARALLEL) == pytest.approx(0.5, rel=1e-15)
    assert differential_probability(
        math.pi, 1.0, SpinChannel.SPINLESS) == pytest.approx(1.0 / 16.0, rel=1e-15)


def test_parallel_vanishes_quadratically():
    # p(pi/2 + d) / p(pi/2 + d/2) -> 4 as d -> 0 for a quadratic zero
    K = 1.7
    d = 1e-4
    p1 = differential_probability(math.pi / 2 + d, K, SpinChannel.PARALLEL)
    p2 = differential_probability(math.pi / 2 + d / 2, K, SpinChannel.PARALLEL)
    assert p1 / p2 == pytest.approx(4.0, rel=1e-4)
    assert p1 < 1e-6 * differential_probability(
        math.pi / 2 + d, K, SpinChannel.SPINLESS)


def test_momentum_transfer_bridge():
    # f equals 1/q^2 with q = 2 K sin(theta/2), exactly
    K = 1.917
    for theta in (1e-3, 0.3, math.pi / 2, 2.9):
        q = 2.0 * K * math.sin(theta / 2.0)
        assert direct_amplitude(theta, K) == pytest.approx(1.0 / q ** 2,
                                                           rel=1e-14)


def test_array_evaluation_matches_scalar():
    theta = np.array([0.2, 0.8, 2.0])
    arr = differential_probability(theta, 2.0, SpinChannel.ANTIPARALLEL)
    for th, val in zip(theta, arr):
        assert val == pytest.approx(
            differential_probability(float(th), 2.0, SpinChannel.ANTIPARALLEL),
            rel=1e-15)
