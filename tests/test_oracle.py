"""Tests for the dense tensor-product verification layer."""
from __future__ import annotations

import collections
import functools
import itertools
import math
import types

import numpy as np
import pytest

import qbinomial.oracle as oracle_module
from conftest import REFERENCE, random_disk_state, random_market, random_strike, random_unit
from qbinomial import (
    BlochVector,
    CallSpec,
    DensityState,
    build_product_state,
    build_stock_operator,
    build_symmetric_be_state,
    be_price,
    call_two_point,
    classical_path_enumeration,
    classical_risk_neutral_q,
    default_observable,
    eigenbasis,
    enumerate_path_outcomes,
    make_observable,
    make_state,
    mb_price,
    mb_weight,
    oracle_price_be,
    oracle_price_mb,
    risk_neutral_disk,
    run_identity_checks,
    single_period_price,
)
from qbinomial.oracle import DENSE_CAP, symmetric_isometry

CALL = CallSpec(100.0)
Z = BlochVector(0.0, 0.0, 1.0)

MB_TWO_PERIOD_CALL = 13.605442176870747
BE_TWO_PERIOD_CALL = 15.721844293272863


def test_stock_operator_single_period_diagonal():
    op = build_stock_operator(REFERENCE, [Z])
    np.testing.assert_allclose(op, np.diag([120.0, 90.0]), atol=1e-12)


def test_stock_operator_two_periods_diagonal():
    op = build_stock_operator(REFERENCE, [Z, Z])
    np.testing.assert_allclose(op, np.diag([144.0, 108.0, 108.0, 81.0]), atol=1e-12)


def test_stock_operator_spectrum_with_random_directions():
    rng = np.random.default_rng(50)
    for periods in (3, 4, 6):
        directions = [random_unit(rng) for _ in range(periods)]
        op = build_stock_operator(REFERENCE, directions)
        asymmetry = np.abs(op - op.conj().T).max()
        assert asymmetry < 1e-12
        spectrum = np.sort(np.linalg.eigvalsh(op))
        expected = np.sort(
            [
                100.0 * 1.2**n * 0.9 ** (periods - n)
                for n in range(periods + 1)
                for _ in range(math.comb(periods, n))
            ]
        )
        np.testing.assert_allclose(spectrum, expected, atol=1e-9)


def test_stock_operator_guards():
    with pytest.raises(ValueError):
        build_stock_operator(REFERENCE, [Z] * 13)
    with pytest.raises(ValueError):
        build_stock_operator(REFERENCE, [BlochVector(0.0, 0.0, 0.5)])


def test_product_state_of_maximally_mixed_factors():
    mixed = make_state(BlochVector(0.0, 0.0, 0.0))
    rho = build_product_state([mixed] * 3)
    np.testing.assert_allclose(rho, np.eye(8) / 8.0, atol=1e-15)


def test_product_state_single_factor_is_the_state():
    state = make_state(BlochVector(0.3, -0.2, 0.1))
    np.testing.assert_allclose(build_product_state([state]), state.matrix(), atol=1e-15)


def test_product_state_is_density_operator():
    rng = np.random.default_rng(51)
    params = random_market(rng)
    states = [random_disk_state(params, random_unit(rng), rng) for _ in range(2)]
    rho = build_product_state(states)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0.0


def test_product_state_rejects_boundary_factor():
    with pytest.raises(ValueError):
        build_product_state([make_state(BlochVector(0.0, 0.0, 1.0))])


def test_mb_weights_sum_to_one():
    rng = np.random.default_rng(52)
    params = random_market(rng)
    directions = [random_unit(rng) for _ in range(4)]
    states = [random_disk_state(params, d, rng) for d in directions]
    total = sum(mb_weight(states, directions, n) for n in range(5))
    assert abs(total - 1.0) < 1e-12


def test_mb_weight_reference_values():
    # q = 1/2 at the reference parameters
    rng = np.random.default_rng(53)
    directions = [random_unit(rng) for _ in range(2)]
    states = [random_disk_state(REFERENCE, d, rng) for d in directions]
    assert abs(mb_weight(states, directions, 1) - 0.5) < 1e-10

    directions = [random_unit(rng) for _ in range(3)]
    states = [random_disk_state(REFERENCE, d, rng) for d in directions]
    assert abs(mb_weight(states, directions, 0) - 0.125) < 1e-10


def test_mb_weight_matches_binomial_law():
    rng = np.random.default_rng(54)
    for periods in (1, 2, 3, 5):
        for _ in range(3):
            params = random_market(rng)
            q = classical_risk_neutral_q(params)
            directions = [random_unit(rng) for _ in range(periods)]
            states = [random_disk_state(params, d, rng) for d in directions]
            for n in range(periods + 1):
                law = math.comb(periods, n) * q**n * (1.0 - q) ** (periods - n)
                assert abs(mb_weight(states, directions, n) - law) < 1e-10


def test_oracle_price_mb_reference_two_periods():
    rng = np.random.default_rng(55)
    directions = [random_unit(rng) for _ in range(2)]
    states = [random_disk_state(REFERENCE, d, rng) for d in directions]
    price = oracle_price_mb(REFERENCE, states, directions, CALL)
    assert abs(price - MB_TWO_PERIOD_CALL) < 1e-10


def test_oracle_price_mb_single_period_matches_closed_form():
    rng = np.random.default_rng(56)
    for _ in range(10):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        direction = random_unit(rng)
        state = random_disk_state(params, direction, rng)
        dense = oracle_price_mb(params, [state], [direction], spec)
        closed = single_period_price(params, call_two_point(params, spec)).price
        assert abs(dense - closed) < 1e-10


def test_oracle_price_mb_state_invariance():
    rng = np.random.default_rng(57)
    params = random_market(rng)
    spec = CallSpec(random_strike(params, rng))
    directions = [random_unit(rng) for _ in range(3)]
    first = [random_disk_state(params, d, rng) for d in directions]
    second = [random_disk_state(params, d, rng) for d in directions]
    p1 = oracle_price_mb(params, first, directions, spec)
    p2 = oracle_price_mb(params, second, directions, spec)
    assert abs(p1 - p2) < 1e-12


def test_dense_pass_weights_are_mb_weight():
    rng = np.random.default_rng(71)
    for periods in (1, 3, 5):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        directions = [random_unit(rng) for _ in range(periods)]
        states = [random_disk_state(params, d, rng) for d in directions]
        weights, price = oracle_module._mb_pass(params, states, directions, spec)
        assert price == oracle_price_mb(params, states, directions, spec)
        assert len(weights) == periods + 1
        for n, weight in enumerate(weights):
            assert abs(weight - mb_weight(states, directions, n)) < 1e-13, (periods, n)


def test_oracle_price_mb_rejects_off_disk_state():
    off_plane = make_state(BlochVector(0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        oracle_price_mb(REFERENCE, [off_plane], [Z], CALL)


def _eigh_price_mb(params, states, directions, spec):
    """The generic dense route: eigh of the kron-built stock operator, clipped against the populations."""
    eigvals, eigvecs = np.linalg.eigh(build_stock_operator(params, directions))
    rho = build_product_state(states)
    populations = np.sum(eigvecs.conj() * (rho @ eigvecs), axis=0).real
    payoff = np.maximum(eigvals - spec.strike, 0.0) @ populations
    return float(payoff) * (1.0 + params.rate) ** -len(directions)


def test_oracle_price_mb_matches_eigh_of_the_stock_operator():
    rng = np.random.default_rng(69)
    for periods in [*range(1, 9), *range(1, 9)]:
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        directions = [random_unit(rng) for _ in range(periods)]
        states = [random_disk_state(params, d, rng) for d in directions]
        dense = oracle_price_mb(params, states, directions, spec)
        assert abs(dense - _eigh_price_mb(params, states, directions, spec)) < 1e-10, periods


# Stock operators off the product eigenbasis at N=2: up and down swapped on
# every factor, shifted by 1e-10 of the top price 144, and NaN off the diagonal.
WRONG_STOCK_OPERATORS = {
    "swapped": lambda build, params, directions: build(params, [d.scaled(-1.0) for d in directions]),
    "perturbed": lambda build, params, directions: build(params, directions) + 1e-10 * 144.0,
    "nan": lambda build, params, directions: np.where(np.eye(4), build(params, directions), np.nan),
}


@pytest.mark.parametrize("wrong", WRONG_STOCK_OPERATORS)
def test_oracle_price_mb_checks_the_stock_operator_on_its_basis(monkeypatch, wrong):
    rng = np.random.default_rng(70)
    directions = [random_unit(rng) for _ in range(2)]
    states = [random_disk_state(REFERENCE, d, rng) for d in directions]
    build = functools.partial(WRONG_STOCK_OPERATORS[wrong], oracle_module.build_stock_operator)
    monkeypatch.setattr(oracle_module, "build_stock_operator", build)
    with pytest.raises(ArithmeticError, match="residual"):
        oracle_price_mb(REFERENCE, states, directions, CALL)


Z_CENTER = DensityState(risk_neutral_disk(REFERENCE, default_observable(REFERENCE)).center())

# The three entry points that take per-factor directions, called as (states, directions).
DIRECTION_CALLS = {
    "build_stock_operator": lambda states, directions: build_stock_operator(REFERENCE, directions),
    "mb_weight": lambda states, directions: mb_weight(states, directions, 0),
    "oracle_price_mb": lambda states, directions: oracle_price_mb(REFERENCE, states, directions, CALL),
}


def _no_dense_build(factors):
    raise AssertionError("dense build before the inputs are validated")


@pytest.mark.parametrize("name", DIRECTION_CALLS)
def test_direction_inputs_are_validated(monkeypatch, name):
    call = DIRECTION_CALLS[name]
    call([Z_CENTER] * 2, [Z] * 2)  # the valid baseline the cases below depart from
    with pytest.raises(ValueError, match="not unit norm"):
        call([Z_CENTER], [BlochVector(0.0, 0.0, 0.5)])

    monkeypatch.setattr(oracle_module, "_kron_chain", _no_dense_build)
    with pytest.raises(ValueError, match="exceeds dense oracle cap"):
        call([Z_CENTER] * (DENSE_CAP + 1), [Z] * (DENSE_CAP + 1))


@pytest.mark.parametrize("name", ["mb_weight", "oracle_price_mb"])
def test_direction_count_must_match_state_count(name):
    call = DIRECTION_CALLS[name]
    with pytest.raises(ValueError, match="one direction per state"):
        call([Z_CENTER] * 2, [Z] * 3)
    with pytest.raises(ValueError, match="one direction per state"):
        call([Z_CENTER] * 3, [Z] * 2)


@pytest.mark.parametrize("n", [-1, 3])
def test_mb_weight_rejects_up_count_outside_range(n):
    with pytest.raises(ValueError, match="n must lie"):
        mb_weight([Z_CENTER] * 2, [Z] * 2, n)


def test_symmetric_isometry_columns_are_orthonormal():
    rng = np.random.default_rng(66)
    for periods in range(1, 7):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        isometry = symmetric_isometry(obs, periods)
        assert isometry.shape == (2**periods, periods + 1)
        np.testing.assert_allclose(isometry.conj().T @ isometry, np.eye(periods + 1), atol=1e-12)


def test_symmetric_isometry_on_z_is_the_dicke_basis():
    # +z has u = |0>, so n up-moves are the basis indices with N - n one-bits.
    obs = default_observable(REFERENCE)
    for periods in range(1, 7):
        isometry = symmetric_isometry(obs, periods)
        for n in range(periods + 1):
            expected = np.array(
                [1.0 / math.sqrt(math.comb(periods, n)) if index.bit_count() == periods - n else 0.0
                 for index in range(2**periods)]
            )
            assert np.array_equal(isometry[:, n], expected)


def test_symmetric_isometry_columns_are_permutation_symmetric():
    rng = np.random.default_rng(67)
    for periods in (2, 3, 5):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        isometry = symmetric_isometry(obs, periods)
        for _ in range(3):
            axes = [0, *(1 + rng.permutation(periods))]
            permuted = isometry.T.reshape([periods + 1] + [2] * periods).transpose(axes)
            np.testing.assert_allclose(permuted.reshape(periods + 1, -1).T, isometry, atol=1e-14)


def _subset_sum(pairs, n):
    """Sum over every n-subset A of (x)_j (pairs[j][0] if j in A else pairs[j][1])."""
    return sum(
        functools.reduce(np.kron, [high if j in subset else low for j, (high, low) in enumerate(pairs)])
        for subset in itertools.combinations(range(len(pairs)), n)
    )


def test_product_basis_matches_the_subset_definition():
    # The subset walk the oracle used to run: projector sums of (I +- n.sigma)/2
    # for the MB weights, placement sums of (u, v) for the symmetric columns.
    rng = np.random.default_rng(68)
    identity = np.eye(2)
    for periods in range(1, 6):
        params = random_market(rng)
        directions = [random_unit(rng) for _ in range(periods)]
        states = [random_disk_state(params, d, rng) for d in directions]
        rho = build_product_state(states)
        paulis = [d.pauli_matrix() for d in directions]
        projectors = [(0.5 * (identity + p), 0.5 * (identity - p)) for p in paulis]
        obs = make_observable(params.down, params.up, random_unit(rng))
        isometry = symmetric_isometry(obs, periods)
        for n in range(periods + 1):
            expected = np.trace(rho @ _subset_sum(projectors, n)).real
            assert abs(mb_weight(states, directions, n) - expected) < 1e-13, (periods, n)
            column = _subset_sum([eigenbasis(obs)] * periods, n)
            assert np.abs(isometry[:, n] - column / np.linalg.norm(column)).max() < 1e-13, (periods, n)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_oracle_reuses_no_pricing_route():
    # The oracle may take the terminal-price ladder and the discount factor
    # from pricing, but no weight or price route; run_identity_checks is the
    # one place that compares against the closed forms.
    routes = {
        "mb_price", "be_price", "mb_payoff_price", "be_payoff_price", "lattice_weights",
        "be_weights", "complementary_binomial", "crr_cutoff_tau", "_lattice_expectation",
        "convergence_sweep", "_lattice_terms", "_normalized_sum",
    }
    functions = []
    for value in vars(oracle_module).values():
        if getattr(value, "__module__", None) != oracle_module.__name__:
            continue
        members = vars(value).values() if isinstance(value, type) else [value]
        functions += [getattr(m, "fget", m) for m in members if isinstance(m, (types.FunctionType, property))]
    names = {f.__name__ for f in functions}
    assert {"mb_weight", "oracle_price_mb", "_product_basis", "passed"} <= names
    for function in functions:
        if function.__name__ == "run_identity_checks":
            continue
        for code in _code_objects(function.__code__):
            assert not routes & set(code.co_names), f"{function.__qualname__} uses {routes & set(code.co_names)}"


def test_symmetric_state_single_period_is_change_of_basis():
    rng = np.random.default_rng(58)
    params = random_market(rng)
    obs = make_observable(params.down, params.up, random_unit(rng))
    state = random_disk_state(params, obs.unit_direction(), rng)
    compressed = build_symmetric_be_state(state, obs, 1)
    u, v = eigenbasis(obs)
    # index n counts up-moves, so the basis order is (v, u)
    basis = np.column_stack([v, u])
    np.testing.assert_allclose(
        compressed, basis.conj().T @ state.matrix() @ basis, atol=1e-14
    )


def test_symmetric_state_reference_two_periods_is_flat():
    obs = default_observable(REFERENCE)
    disk = risk_neutral_disk(REFERENCE, obs)
    center = DensityState(disk.center())  # q = 1/2: the maximally mixed state
    compressed = build_symmetric_be_state(center, obs, 2)
    np.testing.assert_allclose(compressed, np.eye(3) / 3.0, atol=1e-12)


def test_symmetric_state_has_unit_trace():
    rng = np.random.default_rng(59)
    for _ in range(5):
        params = random_market(rng)
        obs = make_observable(params.down, params.up, random_unit(rng))
        state = random_disk_state(params, obs.unit_direction(), rng)
        for periods in (1, 2, 4):
            compressed = build_symmetric_be_state(state, obs, periods)
            assert abs(np.trace(compressed).real - 1.0) < 1e-14
            assert np.abs(compressed - compressed.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(compressed).min() >= -1e-10


def test_symmetric_state_diagonal_matches_occupation_weights():
    # A state diagonal in the observable eigenbasis compresses exactly to
    # the normalized geometric family; off-axis states deviate.
    rng = np.random.default_rng(60)
    params = random_market(rng)
    obs = make_observable(params.down, params.up, random_unit(rng))
    disk = risk_neutral_disk(params, obs)
    center = DensityState(disk.center())
    q = classical_risk_neutral_q(params)
    periods = 4
    raw = np.array([q**n * (1.0 - q) ** (periods - n) for n in range(periods + 1)])
    expected = raw / raw.sum()
    compressed = build_symmetric_be_state(center, obs, periods)
    np.testing.assert_allclose(np.diag(compressed).real, expected, atol=1e-12)


def test_oracle_price_be_reference_two_periods():
    obs = default_observable(REFERENCE)
    disk = risk_neutral_disk(REFERENCE, obs)
    center = DensityState(disk.center())
    price = oracle_price_be(REFERENCE, center, CALL, 2)
    assert abs(price - BE_TWO_PERIOD_CALL) < 1e-10


def test_oracle_price_be_single_period_matches_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(10):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        obs = make_observable(params.down, params.up, random_unit(rng))
        center = DensityState(risk_neutral_disk(params, obs).center())
        dense = oracle_price_be(params, center, spec, 1, obs)
        closed = single_period_price(params, call_two_point(params, spec)).price
        assert abs(dense - closed) < 1e-10


def test_oracle_price_be_direction_invariance():
    rng = np.random.default_rng(62)
    params = random_market(rng)
    spec = CallSpec(random_strike(params, rng))
    prices = []
    for _ in range(5):
        obs = make_observable(params.down, params.up, random_unit(rng))
        center = DensityState(risk_neutral_disk(params, obs).center())
        prices.append(oracle_price_be(params, center, spec, 3, obs))
    assert max(prices) - min(prices) < 1e-12
    assert abs(prices[0] - be_price(params, spec, 3).price) < 1e-10


def test_oracle_price_be_rejects_off_disk_state():
    off_plane = make_state(BlochVector(0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        oracle_price_be(REFERENCE, off_plane, CALL, 2)


def test_path_enumeration_reference_two_periods():
    # independent 4-path check, spelled out
    q = 0.5
    by_hand = (
        q * q * max(0.0, 144.0 - 100.0)
        + q * (1 - q) * max(0.0, 108.0 - 100.0)
        + (1 - q) * q * max(0.0, 108.0 - 100.0)
        + (1 - q) * (1 - q) * max(0.0, 81.0 - 100.0)
    ) / 1.05**2
    got = classical_path_enumeration(REFERENCE, CALL, 2)
    assert abs(got - by_hand) < 1e-14
    assert abs(got - MB_TWO_PERIOD_CALL) < 1e-12


def test_path_enumeration_single_period_matches_closed_form():
    rng = np.random.default_rng(63)
    for _ in range(10):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        got = classical_path_enumeration(params, spec, 1)
        closed = single_period_price(params, call_two_point(params, spec)).price
        assert abs(got - closed) < 1e-12


def test_path_enumeration_vanishing_strike_prices_the_forward():
    # discounted stock is a martingale: with K ~ 0 the call prices the stock
    got = classical_path_enumeration(REFERENCE, CallSpec(1e-12), 8)
    assert abs(got - REFERENCE.stock_initial) < 1e-9


def test_path_enumeration_guards():
    with pytest.raises(ValueError):
        classical_path_enumeration(REFERENCE, CALL, 26)
    with pytest.raises(ValueError):
        classical_path_enumeration(REFERENCE, CALL, 0)


def test_path_outcomes_reproduce_binomial_law():
    rng = np.random.default_rng(65)
    for _ in range(5):
        params = random_market(rng)
        periods = int(rng.integers(1, 12))
        q = classical_risk_neutral_q(params)
        outcomes = enumerate_path_outcomes(params, periods)
        assert [o.up_count for o in outcomes] == list(range(periods + 1))
        assert abs(sum(o.weight for o in outcomes) - 1.0) < 1e-12
        for outcome in outcomes:
            law = (
                math.comb(periods, outcome.up_count)
                * q**outcome.up_count
                * (1.0 - q) ** (periods - outcome.up_count)
            )
            assert abs(outcome.weight - law) < 1e-12
            expected_price = (
                params.stock_initial
                * (1.0 + params.up) ** outcome.up_count
                * (1.0 + params.down) ** (periods - outcome.up_count)
            )
            assert outcome.terminal_price == expected_price


def test_triple_agreement_small_sweep():
    rng = np.random.default_rng(64)
    for _ in range(5):
        params = random_market(rng)
        spec = CallSpec(random_strike(params, rng))
        for periods in (1, 2, 4, 6):
            closed = mb_price(params, spec, periods).price
            paths = classical_path_enumeration(params, spec, periods)
            directions = [random_unit(rng) for _ in range(periods)]
            states = [random_disk_state(params, d, rng) for d in directions]
            dense = oracle_price_mb(params, states, directions, spec)
            assert abs(closed - paths) < 1e-10
            assert abs(closed - dense) < 1e-10


def test_run_identity_checks_all_pass():
    checks = run_identity_checks(REFERENCE, 100.0, 4, seed=11)
    assert len(checks) == 7
    for check in checks:
        assert check.passed, f"{check.name}: {check.deviation}"


def test_run_identity_checks_takes_one_dense_pass_per_draw(monkeypatch):
    # Each MB draw builds one product state and one product eigenbasis for
    # both its weight law and its price; each BE draw builds one eigenbasis.
    calls = collections.Counter()
    for name in ("build_product_state", "_product_basis"):

        def counted(*args, name=name, original=getattr(oracle_module, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(oracle_module, name, counted)
    run_identity_checks(REFERENCE, 100.0, 3, seed=1, draws=2)
    assert calls == {"build_product_state": 2, "_product_basis": 4}


@pytest.mark.parametrize("draws", [0, -2])
def test_run_identity_checks_needs_a_draw(monkeypatch, draws):
    monkeypatch.setattr(oracle_module, "_kron_chain", _no_dense_build)
    with pytest.raises(ValueError, match="draws must be >= 1"):
        run_identity_checks(REFERENCE, 100.0, 2, seed=1, draws=draws)


def test_run_identity_checks_respects_cap():
    with pytest.raises(ValueError):
        run_identity_checks(REFERENCE, 100.0, 13, seed=1)
