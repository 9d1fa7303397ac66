"""Tests for the two-level quantum toolkit."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_unit
from qbinomial import (
    BlochVector,
    DensityState,
    TwoLevelObservable,
    eigenbasis,
    expectation,
    is_faithful,
    make_observable,
    make_state,
)


def test_maximally_mixed_state():
    state = make_state(BlochVector(0.0, 0.0, 0.0))
    assert state.eigenvalues() == (0.5, 0.5)
    np.testing.assert_allclose(state.matrix(), np.eye(2) / 2)


def test_pure_state_up():
    state = make_state(BlochVector(0.0, 0.0, 1.0))
    assert state.eigenvalues() == (0.0, 1.0)
    np.testing.assert_allclose(state.matrix(), np.array([[1, 0], [0, 0]]))
    assert not is_faithful(state)


def test_faithful_state_eigenvalues_match_dense_solver():
    state = make_state(BlochVector(0.6, 0.0, 0.0))
    lo, hi = state.eigenvalues()
    assert math.isclose(lo, 0.2, abs_tol=1e-15)
    assert math.isclose(hi, 0.8, abs_tol=1e-15)
    dense = np.linalg.eigvalsh(state.matrix())
    np.testing.assert_allclose(dense, [lo, hi], atol=1e-12)
    assert is_faithful(state)


def test_norm_does_not_overflow_or_underflow():
    assert BlochVector(1e200, 0.0, 0.0).norm() == 1e200
    assert BlochVector(0.0, -3e-200, 4e-200).norm() == pytest.approx(5e-200, rel=1e-15)


def test_state_rejects_norm_above_one():
    with pytest.raises(ValueError):
        make_state(BlochVector(0.0, 0.0, 1.1))


def test_boundary_norm_within_tolerance_accepted():
    state = make_state(BlochVector(0.0, 0.0, 1.0 + 5e-10))
    assert not is_faithful(state)


def test_unit_norm_combination_is_not_faithful():
    # 0.36 + 0.2304 + 0.4096 = 1.0
    assert not is_faithful(make_state(BlochVector(0.6, 0.48, 0.64)))


def test_make_observable_scales_direction():
    obs = make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 1.0))
    assert math.isclose(obs.direction.z, 0.15, abs_tol=1e-15)
    assert obs.direction.x == obs.direction.y == 0.0

    obs = make_observable(0.0, 1.0, BlochVector(1.0, 0.0, 0.0))
    assert math.isclose(obs.direction.x, 0.5, abs_tol=1e-15)
    assert math.isclose(obs.offset, 0.5, abs_tol=1e-15)

    obs = make_observable(-1.0, 1.0, BlochVector(0.0, 1.0, 0.0))
    assert math.isclose(obs.direction.y, 1.0, abs_tol=1e-15)
    assert obs.offset == 0.0


def test_make_observable_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_observable(0.2, -0.1, BlochVector(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        make_observable(-0.1, -0.1, BlochVector(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize(
    "build",
    [
        lambda low, high: make_observable(low, high, BlochVector(0.0, 0.0, 1.0)),
        lambda low, high: TwoLevelObservable(low, high, BlochVector(0.0, 0.0, 0.15)),
    ],
    ids=["make_observable", "TwoLevelObservable"],
)
def test_observable_refuses_a_non_finite_eigenvalue(build, side, bad):
    # the spectrum is refused as the spectrum, before the direction is scaled or measured
    low, high = (bad, 0.2) if side == "low" else (-0.1, bad)
    with pytest.raises(ValueError, match="^eigenvalues low and high must be finite$"):
        build(low, high)


def test_make_observable_accepts_its_own_large_spectra():
    # a unit direction scaled by 4.5e8 rounds its norm off by more than the absolute TOL
    rng = np.random.default_rng(65)
    for _ in range(50):
        obs = make_observable(1e8, 1e9, random_unit(rng))
        assert math.isclose(obs.direction.norm(), 4.5e8, rel_tol=1e-12)
    with pytest.raises(ValueError, match="direction norm"):
        TwoLevelObservable(1e8, 1e9, BlochVector(0.0, 0.0, 4.5e8 * (1.0 + 1e-8)))


def test_expectation_of_mixed_state_is_offset():
    state = make_state(BlochVector(0.0, 0.0, 0.0))
    obs = make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 1.0))
    assert math.isclose(expectation(state, obs), 0.05, abs_tol=1e-15)


def test_expectation_of_eigenstates_gives_eigenvalues():
    obs = make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 1.0))
    up = make_state(BlochVector(0.0, 0.0, 1.0))
    down = make_state(BlochVector(0.0, 0.0, -1.0))
    assert math.isclose(expectation(up, obs), 0.2, abs_tol=1e-15)
    assert math.isclose(expectation(down, obs), -0.1, abs_tol=1e-15)


def test_expectation_matches_dense_trace():
    rng = np.random.default_rng(20)
    for _ in range(200):
        bloch = random_unit(rng).scaled(rng.uniform(0.0, 1.0))
        state = make_state(bloch)
        low = rng.uniform(-2.0, 1.0)
        obs = make_observable(low, low + rng.uniform(0.01, 3.0), random_unit(rng))
        dense = float(np.trace(state.matrix() @ obs.matrix()).real)
        assert abs(expectation(state, obs) - dense) < 1e-12


def test_state_invariants_over_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(200):
        bloch = random_unit(rng).scaled(rng.uniform(0.0, 1.0))
        state = make_state(bloch)
        matrix = state.matrix()
        assert float(np.trace(matrix).real) == 1.0
        assert np.linalg.eigvalsh(matrix).min() >= -1e-12
        lo, hi = state.eigenvalues()
        assert math.isclose(lo + hi, 1.0, abs_tol=1e-15)
        assert math.isclose(hi - lo, bloch.norm(), abs_tol=1e-15)


def test_observable_spectrum_is_low_high():
    rng = np.random.default_rng(22)
    for _ in range(100):
        low = rng.uniform(-2.0, 1.0)
        high = low + rng.uniform(0.01, 3.0)
        obs = make_observable(low, high, random_unit(rng))
        spectrum = np.linalg.eigvalsh(obs.matrix())
        np.testing.assert_allclose(spectrum, [low, high], atol=1e-10)


def test_eigenbasis_diagonal_observable():
    obs = make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 1.0))
    u, v = eigenbasis(obs)
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-15)


def test_eigenbasis_x_observable():
    obs = make_observable(0.0, 1.0, BlochVector(1.0, 0.0, 0.0))
    u, v = eigenbasis(obs)
    np.testing.assert_allclose(u, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-15)
    # v is (|0> - |1>)/sqrt(2) up to a global phase
    target = np.array([1.0, -1.0]) / math.sqrt(2)
    overlap = abs(np.vdot(target, v))
    assert math.isclose(overlap, 1.0, abs_tol=1e-14)


def test_eigenbasis_residuals_and_orthonormality():
    rng = np.random.default_rng(23)
    for _ in range(100):
        low = rng.uniform(-2.0, 1.0)
        obs = make_observable(low, low + rng.uniform(0.01, 3.0), random_unit(rng))
        u, v = eigenbasis(obs)
        matrix = obs.matrix()
        assert np.linalg.norm(matrix @ u - obs.high * u) < 1e-12
        assert np.linalg.norm(matrix @ v - obs.low * v) < 1e-12
        assert abs(np.vdot(u, v)) < 1e-12
        assert math.isclose(float(np.linalg.norm(u)), 1.0, abs_tol=1e-12)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)


def test_density_state_direct_construction_validates():
    with pytest.raises(ValueError):
        DensityState(BlochVector(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        BlochVector(float("nan"), 0.0, 0.0)


def test_zero_vector_has_no_unit_direction():
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        BlochVector(0.0, 0.0, 0.0).unit()


def test_unit_divides_each_component_by_the_norm():
    # 0.6187833130321199 * (1 / 0.6187833130321199) rounds to 0.9999999999999999; the quotient is 1.0
    assert BlochVector(0.0, 0.0, 0.6187833130321199).unit() == BlochVector(0.0, 0.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(300):
        low = rng.uniform(-1.0, 1.0)
        obs = make_observable(low, low + rng.uniform(1e-6, 3.0), BlochVector(0.0, 0.0, 1.0))
        assert obs.unit_direction() == BlochVector(0.0, 0.0, 1.0)


@pytest.mark.parametrize("low, high", [(0.2, 0.2), (0.2, -0.1)])
def test_observable_direct_construction_needs_low_below_high(low, high):
    with pytest.raises(ValueError, match="low must be strictly below high"):
        TwoLevelObservable(low, high, BlochVector(0.0, 0.0, 0.5 * abs(high - low)))
