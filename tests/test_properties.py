"""Property tests of the N-period routes on random arbitrage-free markets.

Markets are drawn like conftest.random_market: down in [-0.3, 0.25], a
spread of 0.05 to 0.6, the rate 1% to 99% of the way from down to up,
S0 in [20, 250] and the strike 0.4 to 1.9 times S0.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbinomial import (
    CallSpec,
    MarketParams,
    be_weights,
    classical_path_enumeration,
    classical_risk_neutral_q,
    mb_payoff_price,
    mb_price,
)
from qbinomial.pricing import lattice_weights

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def markets(draw) -> MarketParams:
    down = draw(st.floats(-0.3, 0.25))
    up = down + draw(st.floats(0.05, 0.6))
    rate = down + draw(st.floats(0.01, 0.99)) * (up - down)
    return MarketParams(1.0, draw(st.floats(20.0, 250.0)), rate, down, up)


strike_ratios = st.floats(0.4, 1.9)


@PROPERTY
@given(markets(), strike_ratios, st.integers(1, 200))
def test_mb_call_within_no_arbitrage_bounds(params, ratio, periods):
    s0, strike = params.stock_initial, ratio * params.stock_initial
    call = mb_price(params, CallSpec(strike), periods).price
    lower = max(0.0, s0 - strike * (1.0 + params.rate) ** (-periods))
    assert lower - 1e-12 * s0 <= call <= s0 + 1e-12 * s0


@PROPERTY
@given(markets(), strike_ratios, st.integers(1, 200))
def test_mb_put_call_parity(params, ratio, periods):
    s0, strike = params.stock_initial, ratio * params.stock_initial
    discounted_strike = strike * (1.0 + params.rate) ** (-periods)
    call = mb_price(params, CallSpec(strike), periods).price
    put = mb_payoff_price(params, lambda s: max(0.0, strike - s), periods)
    assert abs(call - put - (s0 - discounted_strike)) < 1e-10 * max(s0, discounted_strike)


@PROPERTY
@given(markets(), st.integers(1, 2000))
def test_weights_of_both_families_sum_to_one(params, periods):
    q = classical_risk_neutral_q(params)
    for weights in (lattice_weights(periods, q, True), be_weights(params, periods)):
        assert len(weights) == periods + 1
        assert min(weights) >= 0.0
        assert abs(math.fsum(weights) - 1.0) < 1e-12


@PROPERTY
@given(markets(), st.integers(1, 60))
def test_be_weights_are_the_normalized_geometric_family(params, periods):
    q = classical_risk_neutral_q(params)
    raw = [q**n * (1.0 - q) ** (periods - n) for n in range(periods + 1)]
    expected = np.array(raw) / math.fsum(raw)
    np.testing.assert_allclose(be_weights(params, periods), expected, rtol=1e-12, atol=0.0)


@PROPERTY
@given(markets(), strike_ratios, st.integers(1, 12))
def test_mb_call_matches_path_enumeration(params, ratio, periods):
    spec = CallSpec(ratio * params.stock_initial)
    paths = classical_path_enumeration(params, spec, periods)
    assert abs(mb_price(params, spec, periods).price - paths) < 1e-10 * max(1.0, spec.strike)
