"""Tests for the market definition and the risk-neutral disk."""
from __future__ import annotations

import decimal
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import qbinomial.cli as cli_module
import qbinomial.disk as disk_module
import qbinomial.market as market_module
import qbinomial.pricing as pricing_module
from conftest import REFERENCE, near_threshold_market, random_market, random_unit
from test_cli import WIDE_VERIFY_MARKETS
from test_cli_golden import GOLDEN
from qbinomial.bloch import TOL
from qbinomial import (
    BlochVector,
    CallSpec,
    ClassicalModel,
    DensityState,
    MarketParams,
    RiskNeutralDisk,
    bank_value,
    call_two_point,
    classical_risk_neutral_q,
    default_observable,
    disk_contains,
    eigenbasis,
    is_arbitrage_free,
    make_observable,
    make_state,
    oracle_price_be,
    oracle_price_mb,
    risk_neutral_disk,
    run_identity_checks,
    sample_disk,
    single_period_trace_price,
)


def _params(rate: float, down: float = -0.1, up: float = 0.2) -> MarketParams:
    return MarketParams(
        bond_initial=1.0, stock_initial=100.0, rate=rate, down=down, up=up
    )


def _golden_text(name: str) -> str:
    """The one-line stderr diagnostic of golden CLI case `name`."""
    return GOLDEN[name]["stderr"].removesuffix("\n")


def _golden_line(name: str) -> str:
    """A pattern matching exactly the one-line stderr diagnostic of golden CLI case `name`."""
    return f"^{re.escape(_golden_text(name))}$"


def test_market_params_validation():
    with pytest.raises(ValueError, match=_golden_line("error-b0")):
        MarketParams(bond_initial=0.0, stock_initial=100.0, rate=0.05, down=-0.1, up=0.2)
    with pytest.raises(ValueError, match=_golden_line("error-s0")):
        MarketParams(bond_initial=1.0, stock_initial=-1.0, rate=0.05, down=-0.1, up=0.2)
    with pytest.raises(ValueError, match=_golden_line("error-rate")):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=-1.0, down=-0.1, up=0.2)
    with pytest.raises(ValueError, match=_golden_line("error-down")):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-1.5, up=0.2)
    with pytest.raises(ValueError, match=_golden_line("error-order")):
        MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=0.2, up=0.2)


# The other library refusals that the CLI prints as they are, by the golden case that recorded the line.
LIBRARY_REFUSALS = {
    "error-strike": lambda: CallSpec(0.0),
    "error-arbitrage-high": lambda: classical_risk_neutral_q(_params(0.3)),
    "error-arbitrage-low": lambda: classical_risk_neutral_q(_params(-0.2)),
    "error-dense-cap": lambda: run_identity_checks(REFERENCE, 100.0, 13, 0),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_REFUSALS))
def test_library_refusals_are_the_cli_diagnostics(name):
    with pytest.raises(ValueError, match=_golden_line(name)):
        LIBRARY_REFUSALS[name]()


@pytest.mark.parametrize("field", ["bond_initial", "stock_initial", "rate", "up"])
def test_market_params_refuses_infinite_parameters(field):
    # An infinite up return once gave q = 0.0, outside (0, 1), and an infinite B0 an infinite bank value.
    with pytest.raises(ValueError, match="^b0, s0, r, a or b is not finite: invalid market$"):
        MarketParams(**{**market_module._as_dict(REFERENCE), field: math.inf})


# A non-finite field is reported as not finite, never as a threshold: a NaN B0 is not <= 0, and an
# infinite up return passes every threshold but would give q = 0.0, outside (0, 1).
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", MarketParams.__slots__)
def test_market_params_refuses_every_non_finite_parameter(field, value):
    with pytest.raises(ValueError) as raised:
        MarketParams(**{**market_module._as_dict(REFERENCE), field: value})
    assert str(raised.value) == "b0, s0, r, a or b is not finite: invalid market"


# A NaN strike is not <= 0, and an infinite one passes the threshold but would price every call at 0.0.
@pytest.mark.parametrize("strike", [math.inf, -math.inf, math.nan])
def test_call_spec_refuses_a_non_finite_strike(strike):
    with pytest.raises(ValueError) as raised:
        CallSpec(strike)
    assert str(raised.value) == "strike is not finite: invalid option"


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
    with pytest.raises(ValueError, match=_golden_line("error-arbitrage-low")):
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
    assert disk_contains(params, DensityState(disk.center()), obs)


def test_disk_does_not_contain_mixed_state_off_plane():
    params = _params(0.03)  # rate != midpoint 0.05
    obs = default_observable(params)
    assert not disk_contains(params, make_state(BlochVector(0, 0, 0)), obs)


def test_disk_excludes_boundary_states():
    params = _params(0.03)
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    # pure high eigenstate: not faithful (and off the plane since rate < up)
    assert not disk_contains(params, make_state(BlochVector(0, 0, 1.0)), obs)
    # boundary point on the plane: satisfies the constraint but is not faithful
    rim = BlochVector(disk.radius, 0.0, disk.plane_offset)
    assert abs(rim.norm() - 1.0) < 1e-15
    assert not disk_contains(params, make_state(rim), obs)


def test_disk_membership_with_large_returns():
    # <v, direction> near 1e9 rounds off the plane rate = offset + <v, direction> by more than 1e-9
    params = MarketParams(1.0, 1.0, 5e8, 1e8, 1e9)
    rng = np.random.default_rng(33)
    for _ in range(5):
        obs = make_observable(params.down, params.up, random_unit(rng))
        assert all(disk_contains(params, s, obs) for s in sample_disk(risk_neutral_disk(params, obs), 100, 99))
    disk = risk_neutral_disk(params, default_observable(params))
    off_plane = DensityState(BlochVector(0.0, 0.0, disk.plane_offset + 1e-6))
    assert not disk_contains(params, off_plane, default_observable(params))


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
            assert disk_contains(params, state, obs)
        again = sample_disk(disk, 100, 99)
        assert [s.bloch for s in states] == [s.bloch for s in again]
        other = sample_disk(disk, 100, 100)
        assert [s.bloch for s in states] != [s.bloch for s in other]


STREAM_SEEDS = [0, 2**31 - 1, 2**32, 2**64 + 5, 2**130 + 11]


def test_sample_stream_matches_numpy_default_rng():
    rng = np.random.default_rng(35)
    seeds = STREAM_SEEDS + [int(rng.integers(2**63)) >> int(rng.integers(64)) for _ in range(200)]
    for seed in seeds:
        ours, numpy_rng = disk_module._Pcg64(seed), np.random.default_rng(seed)
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
        radial = disk.radius * math.sqrt(rng.uniform()) * disk_module._INTERIOR_MARGIN
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
        e1, e2 = disk_module._in_plane_frame(normal)
        for a, b, expected in [(e1, e1, 1), (e2, e2, 1), (e1, e2, 0), (e1, n, 0), (e2, n, 0)]:
            assert abs(sum(x * y for x, y in zip(a, b)) - expected) < 1e-15


@pytest.mark.parametrize(
    "normal, offset, radius, message",
    [
        (BlochVector(0.0, 0.0, 2.0), 0.6, 0.8, "normal must be a unit vector"),
        (BlochVector(0.0, 0.0, 1.0), 1.0, -0.0625, "radius must be nonnegative"),
        (BlochVector(0.0, 0.0, 1.0), 0.6, 0.6, r"plane_offset\^2 \+ radius\^2 must equal 1"),
    ],
)
def test_disk_direct_construction_validates(normal, offset, radius, message):
    RiskNeutralDisk(BlochVector(0.0, 0.0, 1.0), 0.6, 0.8)  # the valid baseline the cases depart from
    with pytest.raises(ValueError, match=message):
        RiskNeutralDisk(normal, offset, radius)


def test_sample_disk_rejects_a_negative_count():
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_disk(disk, -1, 0)


def test_sample_disk_rejects_a_negative_seed():
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    for count in (0, 2):  # a count of 0 checks the seed too
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            sample_disk(disk, count, -1)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
def test_sample_disk_rejects_a_non_integer_seed(seed):
    # numpy.random.default_rng refuses these with TypeError too
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    for count in (0, 1):  # a count of 0 checks the seed too
        with pytest.raises(TypeError, match=f"^{re.escape(f'seed must be an integer, not {seed!r}')}$"):
            sample_disk(disk, count, seed)


def test_sample_disk_takes_a_numpy_integer_seed():
    disk = risk_neutral_disk(REFERENCE, default_observable(REFERENCE))
    assert sample_disk(disk, 3, np.int64(5)) == sample_disk(disk, 3, 5)


def test_sample_disk_stays_faithful_next_to_the_thresholds():
    rng = np.random.default_rng(38)
    sampled = 0
    for gap in np.geomspace(1e-10, 1e-7, 40):
        params = near_threshold_market(rng, gap)
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        if abs(disk.plane_offset) >= 1.0 - TOL:
            with pytest.raises(ValueError, match="no faithful state in the risk-neutral disk"):
                sample_disk(disk, 1, 0)
            continue
        for state in sample_disk(disk, 50, int(rng.integers(2**31))):
            assert disk_contains(params, state, obs), gap
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


# ------------------------------------------------------ one membership rule

_CALL = CallSpec(100.0)
_Z = BlochVector(0.0, 0.0, 1.0)
_CENTER = DensityState(risk_neutral_disk(REFERENCE, default_observable(REFERENCE)).center())
_ARBITRAGE = _params(0.25)
_TINY = MarketParams(1.0, 100.0, 5e-13, 0.0, 1e-12)
_NARROW = MarketParams(1.0, 100.0, 0.05, 0.05 - 5e-9, 0.05 + 5e-9)

# The routes that take a state, each checking it through disk_contains.
_MEMBERSHIP_CALLERS = {
    "single_period_trace_price": lambda p, s, o: single_period_trace_price(p, call_two_point(p, _CALL), s, o),
    "oracle_price_be": lambda p, s, o: oracle_price_be(p, s, _CALL, 2, o),
    "oracle_price_mb": lambda p, s, o: oracle_price_mb(p, [s, s], [o.unit_direction()] * 2, _CALL),
}
_MEMBERSHIP_INPUTS = {
    "foreign observable": (REFERENCE, _CENTER, make_observable(-0.2, 0.2, _Z)),
    "arbitrage market": (_ARBITRAGE, _CENTER, default_observable(_ARBITRAGE)),
    "off-disk state": (REFERENCE, make_state(BlochVector(0.0, 0.0, 0.5)), default_observable(REFERENCE)),
    # its low value is 40% of the spread off the market's down return
    "foreign observable, tiny spread": (_TINY, _CENTER, make_observable(4e-13, 1e-12, _Z)),
    # p = 0.55 against q = 0.5: off the plane by 0.1 in Bloch units, by 1e-9 in returns
    "off-disk state, narrow spread": (_NARROW, make_state(_Z.scaled(0.1)), default_observable(_NARROW)),
}
_FOREIGN = "observable values must match the market's (down, up)"
_ARBITRAGE_HIGH = _golden_text("error-arbitrage-high")  # _ARBITRAGE has r > b


# oracle_price_mb builds each factor's observable from the market, so no foreign one reaches it.
@pytest.mark.parametrize(
    "caller, inputs, message",
    [
        ("single_period_trace_price", "foreign observable", _FOREIGN),
        ("single_period_trace_price", "arbitrage market", _ARBITRAGE_HIGH),
        ("single_period_trace_price", "off-disk state", "state is not in the risk-neutral disk"),
        ("single_period_trace_price", "foreign observable, tiny spread", _FOREIGN),
        ("single_period_trace_price", "off-disk state, narrow spread", "state is not in the risk-neutral disk"),
        ("oracle_price_be", "foreign observable", _FOREIGN),
        ("oracle_price_be", "arbitrage market", _ARBITRAGE_HIGH),
        ("oracle_price_be", "off-disk state", "state is not in the risk-neutral disk"),
        ("oracle_price_be", "foreign observable, tiny spread", _FOREIGN),
        ("oracle_price_be", "off-disk state, narrow spread", "state is not in the risk-neutral disk"),
        ("oracle_price_mb", "arbitrage market", _ARBITRAGE_HIGH),
        ("oracle_price_mb", "off-disk state", "factor 0 is not in the risk-neutral disk"),
        ("oracle_price_mb", "off-disk state, narrow spread", "factor 0 is not in the risk-neutral disk"),
    ],
)
def test_membership_callers_raise_the_disk_errors(caller, inputs, message):
    with pytest.raises(ValueError) as raised:
        _MEMBERSHIP_CALLERS[caller](*_MEMBERSHIP_INPUTS[inputs])
    assert str(raised.value) == message


# The disk, its membership test and the one-period quantum price all get the plane from classical_risk_neutral_q.
_DISK_ROUTES = {
    "risk_neutral_disk": lambda p: risk_neutral_disk(p, default_observable(p)),
    "disk_contains": lambda p: disk_contains(p, _CENTER, default_observable(p)),
    "quantum_single_price": lambda p: pricing_module.quantum_single_price(p, call_two_point(p, _CALL)),
}


# r above b, r at b, r at a and r below a: the disk is empty on each, and its rule has one text per side.
@pytest.mark.parametrize("rate, golden", [(0.25, "error-arbitrage-high"), (0.2, "error-arbitrage-high"),
                                          (-0.1, "error-arbitrage-low"), (-0.2, "error-arbitrage-low")])
@pytest.mark.parametrize("route", sorted(_DISK_ROUTES))
def test_disk_routes_raise_the_arbitrage_diagnostic(route, rate, golden):
    params = _params(rate)
    with pytest.raises(ValueError) as owner:
        classical_risk_neutral_q(params)
    with pytest.raises(ValueError) as raised:
        _DISK_ROUTES[route](params)
    assert str(raised.value) == str(owner.value) == _golden_text(golden)


def test_membership_builds_no_disk(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a RiskNeutralDisk was built")

    monkeypatch.setattr(market_module.RiskNeutralDisk, "__init__", refuse)
    obs = default_observable(REFERENCE)
    assert disk_contains(REFERENCE, _CENTER, obs)
    for route in _MEMBERSHIP_CALLERS.values():
        assert math.isfinite(route(REFERENCE, _CENTER, obs))


def test_disk_of_a_market_with_a_tiny_spread():
    # the squares of the observable's Bloch components underflow to 0 here
    params = MarketParams(bond_initial=1.0, stock_initial=100.0, rate=5e-171, down=0.0, up=1e-170)
    disk = risk_neutral_disk(params, default_observable(params))
    assert (disk.normal, disk.plane_offset, disk.radius) == (BlochVector(0.0, 0.0, 1.0), 0.0, 1.0)


def _decimal_narrow_market(rng: np.random.Generator) -> MarketParams:
    """An arbitrage-free market typed as 12-digit decimals, with a spread in [1e-10, 1e-2]."""
    while True:
        center, spread = rng.uniform(-0.2, 0.3), 10 ** rng.uniform(-10, -2)
        down, up = (float(f"{x:.12g}") for x in (center - spread / 2, center + spread / 2))
        params = MarketParams(1.0, 100.0, float(f"{rng.uniform(down, up):.12g}"), down, up)
        if is_arbitrage_free(params):
            return params


def _wide_verify_market(argv: str) -> MarketParams:
    """The market of one `verify` command line of tests/test_cli.py."""
    keys = {flag: key for flag, key, _, _ in cli_module._SETTINGS}
    words = argv.split()
    flags = {keys[flag]: float(value) for flag, value in zip(words[::2], words[1::2])}
    return cli_module.config_from_dict({**cli_module._DEFAULTS, **flags}).market


def test_disk_geometry_is_within_four_epsilon_of_exact():
    # Exact: offset (2r - a - b)/(b - a) and radius 2·sqrt((r - a)(b - r))/(b - a) of the floats given.
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(39)
    markets = [near_threshold_market(rng, gap) for gap in np.geomspace(1e-15, 0.5, 200)]
    markets += [_decimal_narrow_market(rng) for _ in range(200)]
    markets += [_wide_verify_market(argv) for argv in WIDE_VERIFY_MARKETS]
    for params in markets:
        disk = risk_neutral_disk(params, default_observable(params))
        down, up, rate = map(Fraction, (params.down, params.up, params.rate))
        assert abs(Fraction(disk.plane_offset) - (2 * rate - down - up) / (up - down)) <= 4 * eps, params
        squared = 4 * (rate - down) * (up - rate) / (up - down) ** 2
        with decimal.localcontext() as context:
            context.prec = 50
            radius = (decimal.Decimal(squared.numerator) / squared.denominator).sqrt()
            assert abs(decimal.Decimal(disk.radius) - radius) <= 4 * decimal.Decimal(eps) * radius, params
