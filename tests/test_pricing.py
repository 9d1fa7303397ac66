"""Tests for the closed-form pricing routes.

Frozen expected values were computed with independent oracles: hand
arithmetic for the single-period examples, 2^N path enumeration for the
Maxwell-Boltzmann two-period value, and the dense symmetric-subspace
compression for the Bose-Einstein one.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import pytest

import qbinomial.pricing as pricing_module
from conftest import REFERENCE, random_market, random_strike, random_unit
from qbinomial import (
    BlochVector,
    CallSpec,
    ClassicalModel,
    DensityState,
    MarketParams,
    TwoPointPayoff,
    be_payoff_price,
    be_price,
    be_weights,
    call_two_point,
    classical_expected_price,
    classical_risk_neutral_q,
    complementary_binomial,
    convergence_sweep,
    crr_cutoff_tau,
    default_observable,
    make_observable,
    mb_payoff_price,
    mb_price,
    risk_neutral_disk,
    sample_disk,
    single_period_price,
    single_period_trace_price,
)

# Independently computed reference values (see module docstring).
SINGLE_PERIOD_CALL = 10.0 / 1.05          # 9.523809523809524
MB_TWO_PERIOD_CALL = 13.605442176870747   # 4-path enumeration
BE_TWO_PERIOD_CALL = 15.721844293272863   # symmetric-subspace oracle; = 52/(3*1.1025)

CALL = CallSpec(100.0)


def _arbitrage_market() -> MarketParams:
    return MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.3, down=-0.1, up=0.2)


def test_call_two_point():
    payoff = call_two_point(REFERENCE, CALL)
    assert payoff == TwoPointPayoff(at_down=0.0, at_up=20.0)

    deep_otm = call_two_point(REFERENCE, CallSpec(200.0))
    assert deep_otm == TwoPointPayoff(0.0, 0.0)

    deep_itm = call_two_point(REFERENCE, CallSpec(0.0001))
    assert math.isclose(deep_itm.at_down, 89.9999, abs_tol=1e-10)
    assert math.isclose(deep_itm.at_up, 119.9999, abs_tol=1e-10)


def test_two_point_payoff_validation():
    with pytest.raises(ValueError):
        TwoPointPayoff(-1.0, 0.0)
    with pytest.raises(ValueError):
        TwoPointPayoff(0.0, float("inf"))
    with pytest.raises(ValueError):
        CallSpec(0.0)


def test_single_period_price_reference():
    result = single_period_price(REFERENCE, TwoPointPayoff(0.0, 20.0))
    assert abs(result.price - SINGLE_PERIOD_CALL) < 1e-12
    assert result.periods == 1
    assert math.isclose(result.discounted_by, 1.0 / 1.05, abs_tol=1e-15)


def test_single_period_riskless_payoff_discounts():
    result = single_period_price(REFERENCE, TwoPointPayoff(7.5, 7.5))
    assert math.isclose(result.price, 7.5 / 1.05, abs_tol=1e-12)
    assert single_period_price(REFERENCE, TwoPointPayoff(0.0, 0.0)).price == 0.0


def test_single_period_rejects_arbitrage():
    with pytest.raises(ValueError):
        single_period_price(_arbitrage_market(), TwoPointPayoff(0.0, 20.0))


def test_trace_form_agrees_with_closed_form():
    rng = np.random.default_rng(40)
    for _ in range(20):
        params = random_market(rng)
        payoff = call_two_point(params, CallSpec(random_strike(params, rng)))
        reference = single_period_price(params, payoff).price
        obs = make_observable(params.down, params.up, random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        for state in sample_disk(disk, 10, int(rng.integers(2**31))):
            traced = single_period_trace_price(params, payoff, state, obs)
            assert abs(traced - reference) < 1e-12


def test_trace_form_exact_when_direction_rounds_off_the_pole():
    # unit() turns this market's z-axis direction into z = 0.9999999999999999.
    params = MarketParams(1.0, 89.8071, 0.0088, -0.0672, 0.1379)
    payoff = call_two_point(params, CallSpec(71.5322))
    reference = single_period_price(params, payoff).price
    obs = default_observable(params)
    for state in sample_disk(risk_neutral_disk(params, obs), 20, 1):
        traced = single_period_trace_price(params, payoff, state, obs)
        assert abs(traced - reference) < 1e-12 * max(89.8071, 71.5322)


def test_trace_form_rejects_off_disk_state():
    obs = default_observable(REFERENCE)
    off_plane = DensityState(obs.unit_direction().scaled(0.5))
    with pytest.raises(ValueError):
        single_period_trace_price(REFERENCE, TwoPointPayoff(0.0, 20.0), off_plane, obs)
    # on the plane but on the rim, so not faithful: outside the open disk
    params = MarketParams(1.0, 100.0, 0.03, -0.1, 0.2)
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    rim = DensityState(BlochVector(disk.radius, 0.0, disk.plane_offset))
    with pytest.raises(ValueError, match="not in the risk-neutral disk"):
        single_period_trace_price(params, TwoPointPayoff(0.0, 20.0), rim, obs)


def test_classical_expected_price():
    payoff = TwoPointPayoff(0.0, 20.0)
    q = classical_risk_neutral_q(REFERENCE)
    at_q = classical_expected_price(ClassicalModel(REFERENCE, q), payoff)
    assert abs(at_q - SINGLE_PERIOD_CALL) < 1e-12

    certain_up = classical_expected_price(ClassicalModel(REFERENCE, 1.0), payoff)
    assert math.isclose(certain_up, 20.0 / 1.05, abs_tol=1e-12)

    assert classical_expected_price(ClassicalModel(REFERENCE, 0.0), payoff) == 0.0


@pytest.mark.parametrize(
    "m,n,p,expected",
    [
        (0, 5, 0.3, 1.0),
        (1, 2, 0.5, 0.75),
        (2, 2, 0.5, 0.25),
        (3, 2, 0.5, 0.0),
        (1, 3, 0.0, 0.0),
        (2, 3, 1.0, 1.0),
        (0, 0, 0.4, 1.0),
    ],
)
def test_complementary_binomial_values(m, n, p, expected):
    assert complementary_binomial(m, n, p) == expected


def test_complementary_binomial_matches_direct_sum():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, n + 2))
        p = float(rng.uniform(0.01, 0.99))
        direct = sum(
            math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(m, n + 1)
        )
        got = complementary_binomial(m, n, p)
        if m == 0:
            assert got == 1.0
        else:
            assert abs(got - direct) < 1e-13


def test_complementary_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        complementary_binomial(-1, 5, 0.5)
    with pytest.raises(ValueError):
        complementary_binomial(7, 5, 0.5)
    with pytest.raises(ValueError):
        complementary_binomial(1, 5, 1.5)


def test_crr_cutoff_tau():
    assert crr_cutoff_tau(REFERENCE, CALL, 2) == 1
    # strike below every terminal price
    assert crr_cutoff_tau(REFERENCE, CallSpec(50.0), 2) == 0
    # strike above every terminal price
    assert crr_cutoff_tau(REFERENCE, CallSpec(200.0), 2) == 3
    with pytest.raises(ValueError):
        crr_cutoff_tau(REFERENCE, CALL, 0)


def test_crr_cutoff_tau_matches_linear_scan():
    rng = np.random.default_rng(61)
    for case in range(600):
        if case % 3 == 2:
            # down = -1: every price but the all-up one is 0
            params = MarketParams(
                1.0, rng.uniform(20.0, 250.0), rng.uniform(-0.5, 0.5), -1.0, rng.uniform(0.6, 2.0)
            )
        else:
            params = random_market(rng)
        periods = int(rng.integers(1, 600 if params.down == -1.0 else 1000))  # inside the float range
        prices = pricing_module.terminal_prices(params, periods)
        index = int(rng.integers(periods + 1))
        for strike in (random_strike(params, rng), prices[index], math.nextafter(prices[index], 0.0)):
            if strike <= 0.0:
                continue
            linear = next((n for n, s in enumerate(prices) if s > strike), periods + 1)
            assert crr_cutoff_tau(params, CallSpec(strike), periods) == linear


def test_mb_price_reference_two_periods():
    result = mb_price(REFERENCE, CALL, 2)
    assert abs(result.price - MB_TWO_PERIOD_CALL) < 1e-10
    assert result.cutoff_tau == 1
    assert math.isclose(result.discounted_by, 1.05**-2, abs_tol=1e-15)


def test_mb_price_one_period_reduces_to_single_period():
    rng = np.random.default_rng(42)
    for _ in range(30):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        via_mb = mb_price(params, spec, 1).price
        via_single = single_period_price(params, call_two_point(params, spec)).price
        assert abs(via_mb - via_single) < 1e-10 * max(1.0, via_single)


def test_mb_price_vanishing_strike_approaches_stock():
    price = mb_price(REFERENCE, CallSpec(1e-9), 5).price
    assert abs(price - REFERENCE.stock_initial) < 1e-6


def test_mb_price_rejects_arbitrage():
    with pytest.raises(ValueError):
        mb_price(_arbitrage_market(), CALL, 2)


def test_mb_closed_form_equals_explicit_sum_up_to_thirty_periods():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        for periods in (1, 2, 3, 5, 8, 13, 21, 30):
            closed = mb_price(params, spec, periods).price
            explicit = mb_payoff_price(
                params, lambda s: max(0.0, s - spec.strike), periods
            )
            assert abs(closed - explicit) < 1e-10


def test_crr_internal_identities():
    rng = np.random.default_rng(44)
    for _ in range(300):
        params = random_market(rng)
        q = classical_risk_neutral_q(params)
        q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
        assert abs(q * (1.0 + params.up) + (1.0 - q) * (1.0 + params.down) - (1.0 + params.rate)) < 1e-14
        assert abs((1.0 - q_prime) - (1.0 - q) * (1.0 + params.down) / (1.0 + params.rate)) < 1e-14
        assert 0.0 < q_prime < 1.0


def test_put_call_parity_under_mb_pricing():
    rng = np.random.default_rng(45)
    for _ in range(50):
        params = random_market(rng)
        strike = random_strike(params, rng)
        periods = int(rng.integers(1, 11))
        call = mb_price(params, CallSpec(strike), periods).price
        put = mb_payoff_price(params, lambda s: max(0.0, strike - s), periods)
        forward = params.stock_initial - strike * (1.0 + params.rate) ** (-periods)
        assert abs(call - put - forward) < 1e-10


def test_mb_price_monotone_in_strike_and_stock():
    strikes = np.linspace(40.0, 200.0, 33)
    prices = [mb_price(REFERENCE, CallSpec(float(k)), 4).price for k in strikes]
    assert all(a >= b - 1e-12 for a, b in zip(prices, prices[1:]))

    stocks = np.linspace(40.0, 200.0, 33)
    prices = [
        mb_price(
            MarketParams(1.0, float(s), REFERENCE.rate, REFERENCE.down, REFERENCE.up),
            CALL,
            4,
        ).price
        for s in stocks
    ]
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))


def test_be_price_reference_two_periods():
    result = be_price(REFERENCE, CALL, 2)
    assert abs(result.price - BE_TWO_PERIOD_CALL) < 1e-10
    assert result.cutoff_tau is None


def test_be_weights_reference_two_periods_all_equal():
    weights = be_weights(REFERENCE, 2)
    np.testing.assert_allclose(weights, [1.0 / 3.0] * 3, atol=1e-15)


def test_be_weights_sum_to_one():
    rng = np.random.default_rng(46)
    for _ in range(100):
        params = random_market(rng)
        periods = int(rng.integers(1, 40))
        assert abs(be_weights(params, periods).sum() - 1.0) < 1e-14


def test_be_price_one_period_reduces_to_single_period():
    rng = np.random.default_rng(47)
    for _ in range(30):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        via_be = be_price(params, spec, 1).price
        via_single = single_period_price(params, call_two_point(params, spec)).price
        assert abs(via_be - via_single) < 1e-10 * max(1.0, via_single)


def test_be_price_worthless_when_strike_above_best_path():
    assert be_price(REFERENCE, CallSpec(200.0), 2).price == 0.0


def test_be_price_rejects_arbitrage():
    with pytest.raises(ValueError):
        be_price(_arbitrage_market(), CALL, 2)


def test_total_loss_down_return_prices_stay_finite():
    params = MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-1.0, up=0.2)
    spec = CallSpec(80.0)
    # q' = 1 here; only the all-up path survives in the sum
    q = classical_risk_neutral_q(params)
    for periods in (1, 2, 5):
        expected = (
            q**periods
            * (100.0 * 1.2**periods - 80.0)
            / 1.05**periods
        )
        result = mb_price(params, spec, periods)
        assert math.isfinite(result.price)
        assert abs(result.price - expected) < 1e-10
        assert math.isfinite(be_price(params, spec, periods).price)


def test_total_loss_down_return_where_q_prime_rounds_above_one():
    # q' = 1 - (b-r)(1+a)/((b-a)(1+r)) is exactly 1 at a = -1; q (1+b)/(1+r) can round to 1 + 2^-52
    rng = np.random.default_rng(62)
    cases = [(MarketParams(1.0, 100.0, -0.5298344695251871, -1.0, -0.2692912260267206), 100.0, 30)]
    for _ in range(300):
        up = rng.uniform(-0.99, 2.0)
        params = MarketParams(1.0, rng.uniform(20.0, 250.0), rng.uniform(-1.0, up), -1.0, up)
        cases.append((params, random_strike(params, rng), 5))
    for params, strike, periods in cases:
        explicit = mb_payoff_price(params, lambda s: max(0.0, s - strike), periods)
        assert abs(mb_price(params, CallSpec(strike), periods).price - explicit) <= 1e-10 * max(
            params.stock_initial, strike
        )


def test_convergence_sweep():
    series = convergence_sweep(REFERENCE, CALL, 1, "mb")
    assert len(series) == 1
    assert series[0][0] == 1
    assert abs(series[0][1] - SINGLE_PERIOD_CALL) < 1e-12

    series = convergence_sweep(REFERENCE, CALL, 6, "mb")
    assert [n for n, _ in series] == [1, 2, 3, 4, 5, 6]
    for n, value in series:
        assert value == mb_price(REFERENCE, CALL, n).price

    series_be = convergence_sweep(REFERENCE, CALL, 4, "be")
    for n, value in series_be:
        assert value == be_price(REFERENCE, CALL, n).price

    assert convergence_sweep(REFERENCE, CALL, 6, "mb") == series

    with pytest.raises(ValueError):
        convergence_sweep(REFERENCE, CALL, 6, "classical")
    with pytest.raises(ValueError):
        convergence_sweep(REFERENCE, CALL, 0, "mb")


# ---------------------------------------------------------------- large N


def _crr_market(periods: int) -> MarketParams:
    """sigma = 20%, annual rate 5%, T = 1, S0 = 100, rescaled to N periods."""
    step = 0.2 * math.sqrt(1.0 / periods)
    return MarketParams(1.0, 100.0, math.expm1(0.05 / periods), math.expm1(-step), math.expm1(step))


@functools.lru_cache(maxsize=None)
def _mp_call_put(params: MarketParams, strike: float, periods: int, binomial: bool):
    """(call, put) at 40 digits from the market's inputs, no qbinomial code involved.

    The weights C(N,n) q^n (1-q)^(N-n) (MB) or q^n (1-q)^(N-n) (BE) are
    normalized by their exact sum, so nothing underflows at any N.
    """
    with mpmath.workdps(40):
        up, down, rate = (mpmath.mpf(x) for x in (params.up, params.down, params.rate))
        q = (rate - down) / (up - down)
        term, price = (1 - q) ** periods, params.stock_initial * (1 + down) ** periods
        mass = call = put = mpmath.mpf(0)
        for n in range(periods + 1):
            mass += term
            call += term * max(price - strike, 0)
            put += term * max(strike - price, 0)
            term *= q / (1 - q) * ((periods - n) / mpmath.mpf(n + 1) if binomial else 1)
            price *= (1 + up) / (1 + down)
        discount = (1 + rate) ** periods * mass
        return float(call / discount), float(put / discount)


def _route_value(route: str, params: MarketParams, periods: int) -> float:
    put = lambda s: max(0.0, CALL.strike - s)  # noqa: E731
    return {
        "mb_price": lambda: mb_price(params, CALL, periods).price,
        "be_price": lambda: be_price(params, CALL, periods).price,
        "mb_payoff_price": lambda: mb_payoff_price(params, put, periods),
        "be_payoff_price": lambda: be_payoff_price(params, put, periods),
    }[route]()


ROUTES = ("mb_price", "be_price", "mb_payoff_price", "be_payoff_price")


@pytest.mark.parametrize("route", ROUTES)
def test_large_n_routes_match_high_precision_reference(route):
    for periods in (1_000, 10_000):
        params = _crr_market(periods)
        call, put = _mp_call_put(params, CALL.strike, periods, route.startswith("mb"))
        expected = put if "payoff" in route else call
        got = _route_value(route, params, periods)
        assert abs(got - expected) <= 1e-10 * abs(expected), (periods, got, expected)


@pytest.mark.parametrize(
    "params,periods", [(REFERENCE, 1000), (REFERENCE, 1100), (_crr_market(1100), 1100)]
)
def test_baseline_failure_rows_price_correctly(params, periods):
    for binomial, pricer in ((True, mb_price), (False, be_price)):
        price = pricer(params, CALL, periods).price
        expected = _mp_call_put(params, CALL.strike, periods, binomial)[0]
        assert math.isfinite(price)
        assert abs(price - expected) <= 1e-10 * max(100.0, abs(expected)), (binomial, price)


def test_crr_call_at_hundred_thousand_periods_matches_black_scholes():
    d1 = (0.05 + 0.02) / 0.2  # (ln(S/K) + (r + sigma^2/2) T) / (sigma sqrt(T)) at S = K
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    black_scholes = 100.0 * cdf(d1) - 100.0 * math.exp(-0.05) * cdf(d1 - 0.2)
    assert abs(black_scholes - 10.4506) < 1e-4
    periods = 100_000
    assert abs(mb_price(_crr_market(periods), CALL, periods).price - black_scholes) < 1e-3


def test_convergence_sweep_with_q_near_one_reaches_four_hundred_periods():
    params = MarketParams(1.0, 100.0, 0.05, -0.2, 0.06)
    series = convergence_sweep(params, CALL, 400, "mb")
    assert [n for n, _ in series] == list(range(1, 401))
    assert all(math.isfinite(value) for _, value in series)
    expected = _mp_call_put(params, CALL.strike, 400, True)[0]
    assert abs(series[-1][1] - expected) <= 1e-10 * expected


@pytest.mark.parametrize("route", ROUTES)
def test_terminal_price_overflow_raises_named_regime(route):
    # 100 * 1.2^5000 is far beyond the float range.
    with pytest.raises(OverflowError, match="N=5000"):
        _route_value(route, REFERENCE, 5000)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "params,periods",
    [
        # 0.01^-200 = 1e400 overflows while every terminal price stays finite.
        (MarketParams(1.0, 100.0, -0.99, -0.999, 0.5), 200),
        # 2^-1023 is below the smallest normal float; 2.0001^1023 is still finite.
        (MarketParams(1.0, 1.0, 1.0, 0.5, 1.0001), 1023),
    ],
)
def test_discount_factor_outside_float_range_raises_named_regime(route, params, periods):
    with pytest.raises(OverflowError, match=f"discount factor .* at N={periods}$"):
        _route_value(route, params, periods)


def test_sweep_names_first_overflow_before_pricing_any_period(monkeypatch):
    def unexpected(*args):
        raise AssertionError("the sweep priced a period before checking the float range")

    monkeypatch.setattr(pricing_module, "mb_price", unexpected)
    # 100 * 1.2^N first leaves the float range at N=3868.
    with pytest.raises(OverflowError, match="terminal prices exceed the float range at N=3868$"):
        convergence_sweep(REFERENCE, CALL, 5000, "mb")


# ------------------------------------------------- one normalize-as-you-sum kernel


def _random_crr_market(rng: np.random.Generator, periods: int) -> MarketParams:
    """CRR-rescaled market: sigma in [0.1, 0.5], annual rate in [0, 0.08], T = 1."""
    step = rng.uniform(0.1, 0.5) * math.sqrt(1.0 / periods)
    rate = math.expm1(rng.uniform(0.0, 0.08) / periods)
    return MarketParams(1.0, rng.uniform(50.0, 150.0), rate, math.expm1(-step), math.expm1(step))


def _kernel_markets(seed: int):
    """(params, periods) on 40 desk markets with N <= 64 and CRR markets at N = 200, 800, 10^4."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        yield random_market(rng), int(rng.integers(1, 65))
    for periods in (200, 200, 800, 800, 10_000):
        yield _random_crr_market(rng, periods), periods


def _full_lattice_sum(params: MarketParams, payoff, periods: int, binomial: bool) -> float:
    """The normalize-then-sum over every node: all weights times all terminal prices."""
    weights = pricing_module.lattice_weights(periods, classical_risk_neutral_q(params), binomial)
    prices = pricing_module.terminal_prices(params, periods)
    total = sum(w * payoff(s) for w, s in zip(weights, prices) if w)
    return total * pricing_module.discount_factor(params.rate, periods)


def test_be_price_is_the_full_lattice_sum_bit_for_bit():
    rng = np.random.default_rng(81)
    for params, periods in _kernel_markets(82):
        prices = pricing_module.terminal_prices(params, periods)
        strikes = (
            random_strike(params, rng),
            prices[int(rng.integers(periods + 1))],  # exactly at a terminal price
            prices[0] / 2.0,  # below the all-down price: tau = 0
            prices[-1] * 1.5,  # above the all-up price: tau = N+1
        )
        for strike in strikes:
            spec = CallSpec(strike)
            call = lambda s: max(0.0, s - strike)  # noqa: E731
            result = be_price(params, spec, periods)
            assert result.price == _full_lattice_sum(params, call, periods, False), (params, periods, strike)
            assert result.cutoff_tau is None
        assert crr_cutoff_tau(params, CallSpec(strikes[2]), periods) == 0
        assert crr_cutoff_tau(params, CallSpec(strikes[3]), periods) == periods + 1
        assert be_price(params, CallSpec(strikes[3]), periods).price == 0.0


def test_payoff_routes_are_the_full_lattice_sum_bit_for_bit():
    rng = np.random.default_rng(83)
    for params, periods in _kernel_markets(84):
        strike = random_strike(params, rng)
        for payoff in (lambda s: max(0.0, strike - s), lambda s: max(0.0, s - strike)):
            for binomial, route in ((True, mb_payoff_price), (False, be_payoff_price)):
                expected = _full_lattice_sum(params, payoff, periods, binomial)
                assert route(params, payoff, periods) == expected, (route.__name__, params, periods)


def test_complementary_binomial_is_the_tail_of_lattice_weights_bit_for_bit():
    rng = np.random.default_rng(85)
    for params, periods in _kernel_markets(86):
        q = classical_risk_neutral_q(params)
        q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
        for p in (q, q_prime, float(rng.uniform())):
            weights = pricing_module.lattice_weights(periods, p, True)
            for m in (1, int(rng.integers(1, periods + 2)), periods, periods + 1):
                assert complementary_binomial(m, periods, p) == sum(weights[m:]), (periods, p, m)


def test_arbitrage_is_reported_before_terminal_price_overflow():
    # 100 * 1.2^5000 overflows, but the market admits arbitrage first.
    for route in ROUTES:
        with pytest.raises(ValueError, match="arbitrage"):
            _route_value(route, _arbitrage_market(), 5000)


@pytest.mark.parametrize("route", ROUTES)
def test_period_count_is_checked_before_arbitrage(route):
    for periods in (0, -3):
        with pytest.raises(ValueError, match="periods must be >= 1"):
            _route_value(route, _arbitrage_market(), periods)


def test_negative_periods_name_the_regime():
    with pytest.raises(ValueError, match="periods must be >= 0"):
        pricing_module.lattice_weights(-2, 0.7, True)
    with pytest.raises(ValueError, match="periods must be >= 0"):
        be_weights(REFERENCE, -1)


# ------------------------------------------------- the walk and its stopping floor


def _underflow_walk(periods: int, p: float, binomial: bool) -> list[float]:
    """The lattice walk written out plainly: N+1 slots, the largest term set to 1,
    each side filled outward by the term ratio until a term underflows to 0."""
    weights = [0.0] * (periods + 1)
    if p == 0.0 or p == 1.0:
        weights[periods if p == 1.0 else 0] = 1.0
        return weights
    odds = p / (1.0 - p)
    top = min(periods, int((periods + 1) * p)) if binomial else (periods if odds > 1.0 else 0)
    weights[top] = term = 1.0
    for n in range(top, periods):
        term *= (periods - n) / (n + 1) * odds if binomial else odds
        if term == 0.0:
            break
        weights[n + 1] = term
    term = 1.0
    for n in range(top, 0, -1):
        term /= (periods - n + 1) / n * odds if binomial else odds
        if term == 0.0:
            break
        weights[n - 1] = term
    return weights


def _padded(periods: int, walk: tuple[int, list[float]]) -> list[float]:
    lo, terms = walk
    return [0.0] * lo + terms + [0.0] * (periods + 1 - lo - len(terms))


def test_default_walk_is_the_underflow_walk_term_for_term():
    rng = np.random.default_rng(87)
    for _ in range(40):
        periods = int(rng.integers(0, 3001))
        u = float(rng.uniform())
        for p in (0.0, 1.0, 0.5, u**8, 1.0 - u**8, u):
            for binomial in (True, False):
                walk = pricing_module._lattice_terms(periods, p, binomial)
                assert _padded(periods, walk) == _underflow_walk(periods, p, binomial), (periods, p)
                assert min(walk[1]) > 0.0  # the span is exactly the nonzero terms


def _mb_floor(periods: int) -> float:
    return 2.0**-64 / (periods + 1)


def test_floored_walk_drops_less_than_two_to_the_minus_64_of_the_mass():
    rng = np.random.default_rng(88)
    dropping = 0
    for _ in range(60):
        periods = int(math.exp(rng.uniform(0.0, math.log(1e5))))
        u = float(rng.uniform())
        p = (u, u**8, 1.0 - u**8)[int(rng.integers(3))]
        lo, full = pricing_module._lattice_terms(periods, p, True)
        floored_lo, kept = pricing_module._lattice_terms(periods, p, True, _mb_floor(periods))
        first, end = floored_lo - lo, floored_lo - lo + len(kept)
        assert first >= 0 and full[first:end] == kept, (periods, p)
        dropped = full[:first] + full[end:]
        assert all(t <= _mb_floor(periods) for t in dropped), (periods, p)
        assert math.fsum(dropped) < 2.0**-64 * math.fsum(full), (periods, p)
        dropping += bool(dropped)
    assert dropping >= 30


def test_mb_price_is_the_complementary_binomial_form_up_to_the_floor():
    rng = np.random.default_rng(89)
    exact = bounded = 0
    for params, periods in _kernel_markets(90):
        spec = CallSpec(random_strike(params, rng))
        q = classical_risk_neutral_q(params)
        q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
        tau = crr_cutoff_tau(params, spec, periods)
        discount = pricing_module.discount_factor(params.rate, periods)
        full = max(
            0.0,
            params.stock_initial * complementary_binomial(tau, periods, q_prime)
            - spec.strike * discount * complementary_binomial(tau, periods, q),
        )
        price = mb_price(params, spec, periods).price
        walk = functools.partial(pricing_module._lattice_terms, periods, binomial=True)
        if all(walk(p, floor=_mb_floor(periods)) == walk(p) for p in (q, q_prime)):
            assert price == full, (params, periods)
            exact += 1
        else:
            bound = 2.0**-64 * (params.stock_initial + spec.strike * discount) + 4 * math.ulp(full)
            assert abs(price - full) <= bound, (params, periods, price, full)
            bounded += 1
    assert exact >= 10 and bounded >= 5


@pytest.mark.parametrize("periods", [1_000, 10_000])
@pytest.mark.parametrize("moneyness", [0.5, 1.5])
def test_deep_in_and_out_of_the_money_crr_calls_match_high_precision_reference(periods, moneyness):
    params = _crr_market(periods)
    strike = moneyness * params.stock_initial
    expected = _mp_call_put(params, strike, periods, True)[0]
    got = mb_price(params, CallSpec(strike), periods).price
    assert abs(got - expected) <= 1e-10 * max(params.stock_initial, strike), (got, expected)
