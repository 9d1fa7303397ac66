"""Tests for the market definition and the risk-neutral disk."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import qbinomial.market as market_module
from conftest import REFERENCE, random_market, random_unit
from qbinomial.bloch import TOL
from qbinomial import (
    BlochVector,
    ClassicalModel,
    DensityState,
    MarketParams,
    bank_value,
    classical_risk_neutral_q,
    default_observable,
    disk_contains,
    eigenbasis,
    is_arbitrage_free,
    make_observable,
    make_state,
    risk_neutral_disk,
    sample_disk,
)


def _params(rate: float, down: float = -0.1, up: float = 0.2) -> MarketParams:
    return MarketParams(
        bond_initial=1.0, stock_initial=100.0, rate=rate, down=down, up=up
    )


def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(bond_initial=0.0, stock_initial=100.0, rate=0.05, down=-0.1, up=0.2)
    with pytest.raises(ValueError):
        MarketParams(bond_initial=1.0, stock_initial=-1.0, rate=0.05, down=-0.1, up=0.2)
    with pytest.raises(ValueError):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=-1.0, down=-0.1, up=0.2)
    with pytest.raises(ValueError):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-1.5, up=0.2)
    with pytest.raises(ValueError):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=0.2, up=0.2)


def test_total_loss_down_return_is_structural():
    params = MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-1.0, up=0.2)
    assert is_arbitrage_free(params)


def test_is_arbitrage_free():
    assert is_arbitrage_free(_params(0.05))
    assert not is_arbitrage_free(_params(0.2))
    assert not is_arbitrage_free(_params(0.05, down=0.1))


def test_bank_value():
    assert bank_value(_params(0.05), 0) == 1.0
    assert math.isclose(bank_value(_params(0.05), 2), 1.1025, abs_tol=1e-15)
    assert bank_value(MarketParams(100.0, 100.0, 0.0, -0.1, 0.2), 7) == 100.0
    with pytest.raises(ValueError):
        bank_value(_params(0.05), -1)


def test_classical_risk_neutral_q():
    assert classical_risk_neutral_q(_params(0.05)) == 0.5
    assert classical_risk_neutral_q(_params(0.0, down=-0.5, up=0.5)) == 0.5
    with pytest.raises(ValueError):
        classical_risk_neutral_q(_params(0.0, down=0.0, up=1.0))


def test_classical_model_probability_range():
    params = _params(0.05)
    assert ClassicalModel(params, 0.5).up_probability == 0.5
    with pytest.raises(ValueError):
        ClassicalModel(params, 1.2)
    with pytest.raises(ValueError):
        ClassicalModel(params, -0.1)


def test_disk_radius_is_one_at_midpoint_rate():
    disk = risk_neutral_disk(_params(0.05), default_observable(_params(0.05)))
    assert disk.radius == 1.0
    assert disk.plane_offset == 0.0


def test_disk_radius_off_midpoint():
    params = _params(0.05, down=0.0, up=0.2)
    disk = risk_neutral_disk(params, default_observable(params))
    assert math.isclose(disk.radius, math.sqrt(0.75), abs_tol=1e-12)


def test_disk_empty_at_thresholds():
    for rate in (0.2, -0.1, 0.5, -0.3):
        params = _params(rate)
        with pytest.raises(ValueError):
            risk_neutral_disk(params, make_observable(-0.1, 0.2, BlochVector(0, 0, 1.0)))


def test_disk_rejects_mismatched_observable():
    with pytest.raises(ValueError):
        risk_neutral_disk(_params(0.05), make_observable(-0.2, 0.2, BlochVector(0, 0, 1.0)))


def test_disk_nonempty_iff_arbitrage_free():
    rng = np.random.default_rng(30)
    for _ in range(20):
        market = random_market(rng)
        span = market.up - market.down
        for rate in np.linspace(market.down - 0.1 * span, market.up + 0.1 * span, 41):
            if rate <= -1.0:
                continue
            params = MarketParams(
                market.bond_initial, market.stock_initial, float(rate), market.down, market.up
            )
            obs = default_observable(params)
            if is_arbitrage_free(params):
                assert risk_neutral_disk(params, obs).radius > 0.0
            else:
                with pytest.raises(ValueError):
                    risk_neutral_disk(params, obs)


def test_disk_geometry_invariants():
    rng = np.random.default_rng(31)
    for _ in range(300):
        params = random_market(rng)
        disk = risk_neutral_disk(params, make_observable(params.down, params.up, random_unit(rng)))
        assert abs(disk.plane_offset**2 + disk.radius**2 - 1.0) < 1e-12
        expected = math.sqrt(
            1.0
            - (2.0 * params.rate - params.down - params.up) ** 2
            / (params.up - params.down) ** 2
        )
        assert abs(disk.radius - expected) < 1e-12


def test_disk_radius_maximized_at_midpoint():
    params = _params(0.05)
    obs = default_observable(params)
    mid = 0.5 * (params.down + params.up)
    radii = []
    for rate in np.linspace(-0.09, 0.19, 57):
        radii.append(risk_neutral_disk(_params(float(rate)), obs).radius)
    assert max(radii) <= 1.0
    assert risk_neutral_disk(_params(mid), obs).radius == 1.0


def test_disk_contains_center():
    params = _params(0.03)
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    assert disk_contains(disk, DensityState(disk.center()), obs, params.rate)


def test_disk_does_not_contain_mixed_state_off_plane():
    params = _params(0.03)  # rate != midpoint 0.05
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    assert not disk_contains(disk, make_state(BlochVector(0, 0, 0)), obs, params.rate)


def test_disk_excludes_boundary_states():
    params = _params(0.03)
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    # pure high eigenstate: not faithful (and off the plane since rate < up)
    assert not disk_contains(disk, make_state(BlochVector(0, 0, 1.0)), obs, params.rate)
    # boundary point on the plane: satisfies the constraint but is not faithful
    rim = BlochVector(disk.radius, 0.0, disk.plane_offset)
    assert abs(rim.norm() - 1.0) < 1e-15
    assert not disk_contains(disk, make_state(rim), obs, params.rate)


def test_sample_disk_empty():
    params = _params(0.05)
    disk = risk_neutral_disk(params, default_observable(params))
    assert sample_disk(disk, 0, 1) == []


def test_sample_disk_membership_and_determinism():
    rng = np.random.default_rng(32)
    for _ in range(5):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        states = sample_disk(disk, 100, 99)
        assert len(states) == 100
        for state in states:
            assert disk_contains(disk, state, obs, params.rate)
        again = sample_disk(disk, 100, 99)
        assert [s.bloch for s in states] == [s.bloch for s in again]
        other = sample_disk(disk, 100, 100)
        assert [s.bloch for s in states] != [s.bloch for s in other]


STREAM_SEEDS = [0, 2**31 - 1, 2**32, 2**64 + 5, 2**130 + 11]


def test_sample_stream_matches_numpy_default_rng():
    rng = np.random.default_rng(35)
    seeds = STREAM_SEEDS + [int(rng.integers(2**63)) >> int(rng.integers(64)) for _ in range(200)]
    for seed in seeds:
        ours, numpy_rng = market_module._Pcg64(seed), np.random.default_rng(seed)
        for _ in range(10):
            assert ours.uniform() == numpy_rng.uniform()
            assert ours.uniform(0.0, 2.0 * math.pi) == numpy_rng.uniform(0.0, 2.0 * math.pi)


def _numpy_sample_disk(disk, count, seed):
    """sample_disk computed with numpy arrays and numpy's generator: the bit-level reference."""
    n = np.array([disk.normal.x, disk.normal.y, disk.normal.z])
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(n)))] = 1.0
    e1 = axis - np.dot(axis, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    center = n * disk.plane_offset
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        radial = disk.radius * math.sqrt(rng.uniform()) * market_module._INTERIOR_MARGIN
        angle = rng.uniform(0.0, 2.0 * math.pi)
        points.append(center + radial * (math.cos(angle) * e1 + math.sin(angle) * e2))
    return points


def test_sample_disk_on_the_default_observable_matches_numpy_bits():
    rng = np.random.default_rng(36)
    for seed in STREAM_SEEDS + [int(rng.integers(2**31)) for _ in range(60)]:
        params = random_market(rng)
        disk = risk_neutral_disk(params, default_observable(params))
        ours = [s.bloch for s in sample_disk(disk, 5, seed)]
        for bloch, point in zip(ours, _numpy_sample_disk(disk, 5, seed), strict=True):
            # compare reprs so that the sign of a zero counts too
            assert repr((bloch.x, bloch.y, bloch.z)) == repr(tuple(map(float, point)))


def test_sample_frame_is_orthonormal_off_the_axes():
    rng = np.random.default_rng(37)
    for _ in range(200):
        normal = random_unit(rng)
        n = (normal.x, normal.y, normal.z)
        e1, e2 = market_module._in_plane_frame(normal)
        for a, b, expected in [(e1, e1, 1), (e2, e2, 1), (e1, e2, 0), (e1, n, 0), (e2, n, 0)]:
            assert abs(sum(x * y for x, y in zip(a, b)) - expected) < 1e-15


def test_sample_disk_rejects_a_negative_seed():
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    with pytest.raises(ValueError, match="non-negative"):
        sample_disk(disk, 2, -1)


def _near_a_threshold(rng: np.random.Generator, gap: float) -> MarketParams:
    """A random market with its rate `gap` spreads inside the down or the up threshold."""
    params = random_market(rng)
    offset = gap * (params.up - params.down)
    rate = params.down + offset if rng.uniform() < 0.5 else params.up - offset
    return dataclasses.replace(params, rate=rate)


def test_sample_disk_stays_faithful_next_to_the_thresholds():
    rng = np.random.default_rng(38)
    sampled = 0
    for gap in np.geomspace(1e-10, 1e-7, 40):
        params = _near_a_threshold(rng, gap)
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        if abs(disk.plane_offset) >= 1.0 - TOL:
            with pytest.raises(ValueError, match="no faithful state in the risk-neutral disk"):
                sample_disk(disk, 1, 0)
            continue
        for state in sample_disk(disk, 50, int(rng.integers(2**31))):
            assert disk_contains(disk, state, obs, params.rate), gap
        sampled += 1
    assert sampled >= 25


@pytest.mark.parametrize("rate", [-0.09999999999999999, -0.1 + 1e-10, 0.19999999999999998])
def test_sample_disk_refuses_a_disk_without_faithful_states(rate):
    params = _params(rate)
    disk = risk_neutral_disk(params, default_observable(params))
    assert abs(disk.plane_offset) >= 1.0 - TOL
    with pytest.raises(ValueError, match="no faithful state in the risk-neutral disk"):
        sample_disk(disk, 2, 0)
    assert sample_disk(disk, 0, 0) == []


def test_sample_disk_is_uniform_on_the_faithful_part():
    # The faithful part (Bloch norm below 1 - TOL) holds about half of this disk's area.
    params = _params(0.05 - 0.15 * math.sqrt(1.0 - 4.0 * TOL))
    disk = risk_neutral_disk(params, default_observable(params))
    faithful = (1.0 - TOL) ** 2 - disk.plane_offset**2
    assert 0.4 < faithful / disk.radius**2 < 0.6
    center = disk.center()
    squared = sorted(
        ((s.bloch.x - center.x) ** 2 + (s.bloch.y - center.y) ** 2 + (s.bloch.z - center.z) ** 2) / faithful
        for s in sample_disk(disk, 4000, 5)
    )
    # uniform on the faithful disk: the squared radius over its maximum is uniform on [0, 1)
    assert squared[-1] < 1.0
    for share in (0.25, 0.5, 0.75):
        assert abs(np.searchsorted(squared, share) / len(squared) - share) < 0.03


def test_sampled_states_price_stock_at_riskless_rate():
    from qbinomial import expectation

    rng = np.random.default_rng(33)
    for _ in range(10):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        for state in sample_disk(disk, 50, int(rng.integers(2**31))):
            assert abs(expectation(state, obs) - params.rate) < 1e-10


def test_sampled_states_diagonal_weight_equals_q():
    rng = np.random.default_rng(34)
    for _ in range(10):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        q = classical_risk_neutral_q(params)
        u, _ = eigenbasis(obs)
        for state in sample_disk(disk, 20, int(rng.integers(2**31))):
            weight = float(np.real(np.conj(u) @ state.matrix() @ u))
            assert abs(weight - q) < 1e-10


def test_reference_market_round_numbers():
    assert classical_risk_neutral_q(REFERENCE) == 0.5
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    assert disk.radius == 1.0
