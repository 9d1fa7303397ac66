"""Acceptance suite.

Each numbered criterion runs at its stated tolerance and prints one
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Reference constants come from independent oracles: hand
arithmetic, 2^N path enumeration, and dense tensor/symmetric-subspace
traces computed before the closed forms were written.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import qbinomial.oracle as oracle_module
from conftest import (
    REFERENCE,
    REFERENCE_STRIKE,
    invoke as _invoke,
    random_disk_state,
    random_market,
    random_strike,
    random_unit,
)
from qbinomial import (
    BlochVector,
    CallSpec,
    DensityState,
    MarketParams,
    be_price,
    call_two_point,
    classical_path_enumeration,
    classical_risk_neutral_q,
    default_observable,
    make_observable,
    mb_payoff_price,
    mb_price,
    mb_weight,
    oracle_price_be,
    oracle_price_mb,
    risk_neutral_disk,
    sample_disk,
    single_period_price,
    single_period_trace_price,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
    assert ok, f"{label}: {detail}"


REFERENCE_FLAGS = [
    "--s0", "100", "--strike", "100", "--a", "-0.1", "--b", "0.2", "--r", "0.05",
]


def test_criterion_1_product_state_weights_match_binomial_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for periods in range(1, 9):
        for _ in range(20):
            params = random_market(rng)
            q = classical_risk_neutral_q(params)
            directions = [random_unit(rng) for _ in range(periods)]
            states = [random_disk_state(params, d, rng) for d in directions]
            for n in range(periods + 1):
                law = math.comb(periods, n) * q**n * (1.0 - q) ** (periods - n)
                worst = max(worst, abs(mb_weight(states, directions, n) - law))
    _report(
        "criterion 1: dense product-state weights vs binomial law, N=1..8",
        worst < 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_2_crr_triple_agreement():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        for periods in range(1, 11):
            closed = mb_price(params, spec, periods).price
            explicit = mb_payoff_price(
                params, lambda s: max(0.0, s - spec.strike), periods
            )
            paths = classical_path_enumeration(params, spec, periods)
            worst = max(worst, abs(closed - explicit), abs(closed - paths))
    _report(
        "criterion 2: closed form = explicit sum = path enumeration, N=1..10",
        worst < 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_3_worked_example_single_period():
    payoff = call_two_point(REFERENCE, CallSpec(REFERENCE_STRIKE))
    price = single_period_price(REFERENCE, payoff).price
    _report(
        "criterion 3: single-period call at reference parameters",
        abs(price - 9.523810) <= 1e-6,
        f"price {price:.9f} vs 9.523810",
    )


def test_criterion_3_worked_example_mb_two_periods():
    price = mb_price(REFERENCE, CallSpec(REFERENCE_STRIKE), 2).price
    _report(
        "criterion 3: two-period Maxwell-Boltzmann call at reference parameters",
        abs(price - 13.605442) <= 1e-6,
        f"price {price:.9f} vs 13.605442",
    )


# Hand arithmetic at the reference parameters: q = (r-a)/(b-a) = 1/2 makes the
# normalised weights q^n (1-q)^(2-n) equal, 1/3 each, on the call payoffs
# (0, 8, 44) at n = 0, 1, 2; the discount is (21/20)^2. Exactly 20800/1323.
BE_TWO_PERIOD_CALL = float(Fraction(1, 3) * (0 + 8 + 44) / Fraction(21, 20) ** 2)


def test_criterion_3_worked_example_be_two_periods():
    price = be_price(REFERENCE, CallSpec(REFERENCE_STRIKE), 2).price
    _report(
        "criterion 3: two-period Bose-Einstein call at reference parameters",
        abs(price - BE_TWO_PERIOD_CALL) <= 1e-6,
        f"price {price:.9f} vs exact 20800/1323 = {BE_TWO_PERIOD_CALL:.9f}",
    )


def test_criterion_4_disk_radius_sweep():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(5):
        base = random_market(rng)
        a, b = base.down, base.up
        span = b - a
        obs = default_observable(base)
        for rate in np.linspace(a + 0.005 * span, b - 0.005 * span, 100):
            params = MarketParams(1.0, 100.0, float(rate), a, b)
            disk = risk_neutral_disk(params, obs)
            closed = math.sqrt(1.0 - (2.0 * rate - a - b) ** 2 / (b - a) ** 2)
            worst = max(worst, abs(disk.radius - closed))
        # radius vanishes toward either threshold
        near_down = risk_neutral_disk(
            MarketParams(1.0, 100.0, a + 1e-9 * span, a, b), obs
        ).radius
        near_up = risk_neutral_disk(
            MarketParams(1.0, 100.0, b - 1e-9 * span, a, b), obs
        ).radius
        assert near_down < 1e-4 and near_up < 1e-4
        # construction fails outside the open interval
        for bad_rate in (a, b, a - 0.05 * span, b + 0.05 * span):
            if bad_rate <= -1.0:
                continue
            with pytest.raises(ValueError):
                risk_neutral_disk(MarketParams(1.0, 100.0, float(bad_rate), a, b), obs)
        mid = risk_neutral_disk(MarketParams(1.0, 100.0, 0.5 * (a + b), a, b), obs)
        assert mid.radius == 1.0
    _report(
        "criterion 4: disk radius closed form, limits, thresholds",
        worst < 1e-12,
        f"max radius deviation {worst:.3e}",
    )


def test_criterion_5_state_independence_of_single_period_price():
    payoff = call_two_point(REFERENCE, CallSpec(REFERENCE_STRIKE))
    reference_price = single_period_price(REFERENCE, payoff).price
    obs = default_observable(REFERENCE)
    disk = risk_neutral_disk(REFERENCE, obs)
    traces = [
        single_period_trace_price(REFERENCE, payoff, state, obs)
        for state in sample_disk(disk, 100, 105)
    ]
    spread = max(traces) - min(traces)
    offset = max(abs(t - reference_price) for t in traces)
    _report(
        "criterion 5: trace price identical across 100 disk states",
        spread < 1e-12 and offset < 1e-12,
        f"spread {spread:.3e}, offset from closed form {offset:.3e}",
    )


def test_criterion_6_direction_independence_of_dense_oracle():
    rng = np.random.default_rng(106)
    worst = 0.0
    spec = CallSpec(REFERENCE_STRIKE)
    for periods in range(1, 7):
        prices = []
        for _ in range(10):
            directions = [random_unit(rng) for _ in range(periods)]
            states = [random_disk_state(REFERENCE, d, rng) for d in directions]
            prices.append(oracle_price_mb(REFERENCE, states, directions, spec))
        worst = max(worst, max(prices) - min(prices))
    _report(
        "criterion 6: dense oracle invariant over 10 direction draws, N<=6",
        worst < 1e-12,
        f"max spread {worst:.3e}",
    )


def test_criterion_7_be_closed_form_matches_symmetric_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for periods in range(1, 11):
        for _ in range(3):
            params = random_market(rng)
            spec = CallSpec(random_strike(params, rng))
            obs = make_observable(params.down, params.up, random_unit(rng))
            center = DensityState(risk_neutral_disk(params, obs).center())
            dense = oracle_price_be(params, center, spec, periods, obs)
            closed = be_price(params, spec, periods).price
            worst = max(worst, abs(dense - closed))
    _report(
        "criterion 7: Bose-Einstein closed form vs symmetric-subspace oracle, N<=10",
        worst < 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_8_measure_identities_and_parity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(200):
        params = random_market(rng)
        q = classical_risk_neutral_q(params)
        q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
        worst = max(
            worst,
            abs(q * (1.0 + params.up) + (1.0 - q) * (1.0 + params.down) - (1.0 + params.rate)),
            abs((1.0 - q_prime) - (1.0 - q) * (1.0 + params.down) / (1.0 + params.rate)),
        )
        assert 0.0 < q_prime < 1.0
    for _ in range(50):
        params = random_market(rng)
        strike = random_strike(params, rng)
        periods = int(rng.integers(1, 11))
        call = mb_price(params, CallSpec(strike), periods).price
        put = mb_payoff_price(params, lambda s: max(0.0, strike - s), periods)
        forward = params.stock_initial - strike * (1.0 + params.rate) ** (-periods)
        worst = max(worst, abs(call - put - forward))
    _report(
        "criterion 8: measure identities and put-call parity",
        worst < 1e-10,
        f"max deviation {worst:.3e}",
    )


def _cli_price(model: str, periods: int) -> float:
    result = _invoke(
        ["price", "--model", model, *REFERENCE_FLAGS, "--periods", str(periods), "--format", "json"]
    )
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)["price"]


def test_criterion_9_cli_single_period_value():
    price = _cli_price("quantum_single", 1)
    _report(
        "criterion 9: CLI single-period price",
        abs(price - 9.523810) <= 1e-6,
        f"price {price:.9f} vs 9.523810",
    )


def test_criterion_9_cli_mb_value():
    price = _cli_price("mb", 2)
    _report(
        "criterion 9: CLI two-period Maxwell-Boltzmann price",
        abs(price - 13.605442) <= 1e-6,
        f"price {price:.9f} vs 13.605442",
    )


def test_criterion_9_cli_be_value():
    price = _cli_price("be", 2)
    _report(
        "criterion 9: CLI two-period Bose-Einstein price",
        abs(price - BE_TWO_PERIOD_CALL) <= 1e-6,
        f"price {price:.9f} vs exact 20800/1323 = {BE_TWO_PERIOD_CALL:.9f}",
    )


def test_criterion_9_cli_disk_verify_sweep():
    disk_result = _invoke(["disk", *REFERENCE_FLAGS, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(disk_result.stdout)))
    radius_ok = disk_result.exit_code == 0 and rows[1][0] == "1.000000"

    verify_result = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "4", "--seed", "9"])
    verify_ok = verify_result.exit_code == 0

    sweep_result = _invoke(["sweep", "--model", "mb", *REFERENCE_FLAGS, "--periods", "3"])
    sweep_rows = [r for r in csv.reader(io.StringIO(sweep_result.stdout)) if r]
    sweep_ok = (
        sweep_result.exit_code == 0
        and sweep_rows[1] == ["1", "mb", "9.523810"]
        and sweep_rows[2] == ["2", "mb", "13.605442"]
    )
    _report(
        "criterion 9: CLI disk/verify/sweep on reference parameters",
        radius_ok and verify_ok and sweep_ok,
        f"disk radius row {rows[1][0]}, verify exit {verify_result.exit_code}, "
        f"sweep N=2 row {sweep_rows[2]}",
    )


def test_criterion_9_cli_exit_code_contract(monkeypatch):
    ok = _invoke(["price", *REFERENCE_FLAGS])
    invalid = _invoke(["price", "--model", "mb", "--r", "0.3", "--a", "-0.1", "--b", "0.2"])
    capped = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "13"])

    true_paths = oracle_module.classical_path_enumeration
    monkeypatch.setattr(
        oracle_module,
        "classical_path_enumeration",
        lambda params, spec, periods: true_paths(params, spec, periods) + 1e-6,
    )
    corrupted = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "3"])
    monkeypatch.undo()

    ok_codes = (
        ok.exit_code == 0
        and invalid.exit_code == 2
        and "r >= b: arbitrage" in invalid.stderr
        and capped.exit_code == 2
        and corrupted.exit_code == 1
        and "identity failed" in corrupted.stderr
    )
    _report(
        "criterion 9: CLI exit-code contract 0/1/2",
        ok_codes,
        f"success {ok.exit_code}, invalid {invalid.exit_code}, "
        f"cap {capped.exit_code}, injected failure {corrupted.exit_code}",
    )
