"""Exact brute-force verification layer.

Everything here is built densely from raw tensor products: the N-period
stock operator on (C^2)^(x)N, product risk-neutral states, the product
eigenbasis whose 2^N columns, grouped by up-move count, give the MB
projector sums, the BE symmetric basis and the stock operator's
eigenvectors (checked by a dense residual), and plain 2^N path
enumeration of the classical model. Each MB draw takes one dense pass:
one product state, eigenbasis and population vector give both its
weight law and its price. No oracle reuses a weight or price route from
the pricing module, only its terminal-price ladder and discount factor;
run_identity_checks compares the oracles with those routes, the weight
law with the kernel's lattice_weights. Exactness and auditability are the
point, not speed.
"""
from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from . import pricing
from .bloch import (
    BlochVector,
    DensityState,
    TwoLevelObservable,
    eigenbasis,
    is_faithful,
    make_observable,
)
from .disk import default_observable, disk_contains, risk_neutral_disk, sample_disk
from .market import MarketParams, _Record, _set, classical_risk_neutral_q
from .pricing import CallSpec

# Memory and loop guards for dense 2^N x 2^N builds and path enumeration;
# `verify --periods 12` takes 36-43 s and 1.1 GB on 2 x86-64 cores (Python 3.11, numpy 2.4).
DENSE_CAP = 12
PATH_CAP = 25


def _check_dense_cap(periods: int) -> None:
    if periods > DENSE_CAP:
        raise ValueError("N exceeds dense oracle cap")
    if periods < 1:
        raise ValueError("periods must be >= 1")


def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def _capped_directions(
    directions: Sequence[BlochVector], states: Sequence[DensityState] | None = None
) -> list[BlochVector]:
    """The directions as a list, once there is one per state (if given) and at most DENSE_CAP of them."""
    if states is not None and len(states) != len(directions):
        raise ValueError("need one direction per state")
    _check_dense_cap(len(directions))
    return list(directions)


def _product_basis(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """All 2^N product vectors (x)_j pairs[j][b_j] as columns, with their up counts.

    Bit j of the column index (most significant first) picks pairs[j][0],
    the high eigenvector, when 0 and pairs[j][1] when 1, so ups[k] =
    N - popcount(k) and the columns with ups == n are the n-subsets.
    """
    basis = _kron_chain([np.column_stack(pair) for pair in pairs])
    ups = len(pairs) - np.array([k.bit_count() for k in range(len(basis))])
    return basis, ups


def _call_value(params: MarketParams, spec: CallSpec, weights: Sequence[float]) -> float:
    """Discounted clipped call (S_n - K)^+ against weights over the up-move count n = 0..N."""
    periods = len(weights) - 1
    payoffs = np.maximum(np.array(pricing.terminal_prices(params, periods)) - spec.strike, 0.0)
    return pricing.discount_factor(params.rate, periods) * float(payoffs @ np.asarray(weights))


def _populations(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re diag(B^H rho B): the weight rho puts on each column of B."""
    return np.sum(basis.conj() * (rho @ basis), axis=0).real


def build_stock_operator(
    params: MarketParams, directions: Sequence[BlochVector]
) -> np.ndarray:
    """Dense terminal stock operator S0 * (x)_j (1 + R_j).

    Each factor 1 + R_j is the two-level observable (1+down, 1+up) along
    its own unit Bloch direction. The spectrum, S0 (1+up)^n (1+down)^(N-n)
    with binomial multiplicities, sits on the product eigenbasis, which
    oracle_price_mb checks against this operator by a dense residual.
    """
    dirs = _capped_directions(directions)
    factors = [make_observable(1.0 + params.down, 1.0 + params.up, d).matrix() for d in dirs]
    return params.stock_initial * _kron_chain(factors)


def build_product_state(states: Sequence[DensityState]) -> np.ndarray:
    """Dense 2^N x 2^N product density matrix of N faithful factors."""
    _check_dense_cap(len(states))
    for k, state in enumerate(states):
        if not is_faithful(state):
            raise ValueError(f"factor {k} is not faithful")
    return _kron_chain([state.matrix() for state in states])


def mb_weight(states: Sequence[DensityState], directions: Sequence[BlochVector], n: int) -> float:
    """Dense trace of the product state against the n-up projector sum.

    The projector sum runs over every subset of exactly n factors, each
    term the tensor product of high-eigenvector projectors on the subset
    and low-eigenvector projectors elsewhere. Each term is B_k B_k^H for
    one column B_k of the product eigenbasis, so the trace is the sum of
    rho's populations on the columns with n up-moves. For risk-neutral
    factors this equals C(N,n) q^n (1-q)^(N-n).
    """
    dirs = _capped_directions(directions, states)
    if not 0 <= n <= len(dirs):
        raise ValueError("n must lie in [0, N]")
    basis, ups = _product_basis([eigenbasis(make_observable(-1.0, 1.0, d)) for d in dirs])
    return float(_populations(build_product_state(states), basis[:, ups == n]).sum())


def _mb_pass(
    params: MarketParams,
    states: Sequence[DensityState],
    directions: Sequence[BlochVector],
    spec: CallSpec,
) -> tuple[np.ndarray, float]:
    """The N+1 weights tr(rho P_n) and oracle_price_mb's price, from one dense pass."""
    dirs = _capped_directions(directions, states)
    observables = [make_observable(params.down, params.up, d) for d in dirs]
    for k, (state, obs) in enumerate(zip(states, observables)):
        if not disk_contains(params, state, obs):
            raise ValueError(f"factor {k} is not in the risk-neutral disk")
    basis, ups = _product_basis([eigenbasis(obs) for obs in observables])
    eigvals = np.array(pricing.terminal_prices(params, len(dirs)))[ups]
    residual = float(np.abs(build_stock_operator(params, dirs) @ basis - basis * eigvals).max())
    if not residual <= max(1e-12 * eigvals.max(), 2.0**-1022):
        raise ArithmeticError(f"stock operator residual {residual:.3e} on the product eigenbasis")
    weights = np.bincount(ups, _populations(build_product_state(states), basis), len(dirs) + 1)
    return weights, _call_value(params, spec, weights)


def oracle_price_mb(
    params: MarketParams,
    states: Sequence[DensityState],
    directions: Sequence[BlochVector],
    spec: CallSpec,
) -> float:
    """Discounted dense trace of the clipped stock operator.

    S_N is diagonalized on the product of the factor eigenbases (n up-moves:
    S0 (1+up)^n (1+down)^(N-n)); a dense residual against the kron-built S_N
    above max(1e-12 of the top price, 2^-1022) raises ArithmeticError. The product
    state's populations on those columns, summed by up-move count, weigh the clipped
    terminal prices. Every factor state must be risk-neutral for its own direction.
    """
    return _mb_pass(params, states, directions, spec)[1]


def symmetric_isometry(
    obs: TwoLevelObservable, periods: int
) -> np.ndarray:
    """Columns are the orthonormal symmetric basis vectors of (C^2)^(x)N.

    Column n is the normalized sum over all placements of n copies of
    the high eigenvector u among N tensor slots (the rest carrying the
    low eigenvector v): the product-eigenbasis columns with n up-moves.
    """
    _check_dense_cap(periods)
    basis, ups = _product_basis([eigenbasis(obs)] * periods)
    columns = basis @ np.equal.outer(ups, range(periods + 1))
    return columns / np.linalg.norm(columns, axis=0)


def build_symmetric_be_state(
    state: DensityState, obs: TwoLevelObservable, periods: int
) -> np.ndarray:
    """Symmetric-subspace compression of the N-fold product of one state.

    The (N+1) x (N+1) result is V* rho^(x)N V renormalized by its trace,
    V being the symmetric-basis isometry. For a state diagonal in the
    observable's eigenbasis the diagonal is q^n (1-q)^(N-n) divided by
    the sum of those terms; off-diagonal Bloch components make the
    compression deviate from that family, which callers can inspect.
    """
    isometry = symmetric_isometry(obs, periods)
    rho_n = _kron_chain([state.matrix()] * periods)
    compressed = isometry.conj().T @ rho_n @ isometry
    return compressed / float(np.trace(compressed).real)


def oracle_price_be(
    params: MarketParams,
    state: DensityState,
    spec: CallSpec,
    periods: int,
    obs: TwoLevelObservable | None = None,
) -> float:
    """Discounted symmetric-subspace trace against the diagonal payoff.

    The payoff operator is diag([S0 (1+up)^n (1+down)^(N-n) - K]^+) in
    the symmetric basis ordered by up-move count. The state must be
    risk-neutral for the observable (default: the market's z-axis one).
    """
    if obs is None:
        obs = default_observable(params)
    if not disk_contains(params, state, obs):
        raise ValueError("state is not in the risk-neutral disk")
    return _call_value(params, spec, np.diag(build_symmetric_be_state(state, obs, periods)).real)


def classical_path_enumeration(
    params: MarketParams, spec: CallSpec, periods: int
) -> float:
    """Discounted call value summed over all 2^N up/down paths.

    The weights come from enumerate_path_outcomes, which walks every path
    and never computes a binomial coefficient, so agreement with the
    binomial sum genuinely checks the combinatorics.
    """
    return _call_value(params, spec, [o.weight for o in enumerate_path_outcomes(params, periods)])


class PathOutcome(_Record):
    """Terminal outcome aggregated over all paths with one up-move count."""

    __slots__ = ("up_count", "terminal_price", "weight")

    def __init__(self, up_count: int, terminal_price: float, weight: float) -> None:
        _set(self, "up_count", up_count)
        _set(self, "terminal_price", terminal_price)
        _set(self, "weight", weight)


def enumerate_path_outcomes(params: MarketParams, periods: int) -> list[PathOutcome]:
    """Walk all 2^N paths and aggregate their weights by up-move count.

    The weights sum to 1 and, path by path, reproduce the binomial law
    C(N,n) q^n (1-q)^(N-n) without ever computing a binomial coefficient.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    if periods > PATH_CAP:
        raise ValueError(f"N={periods} exceeds path enumeration cap ({PATH_CAP})")
    q = classical_risk_neutral_q(params)
    weights = [0.0] * (periods + 1)
    for mask in range(2**periods):
        ups = mask.bit_count()
        weights[ups] += q**ups * (1.0 - q) ** (periods - ups)
    return [
        PathOutcome(up_count=n, terminal_price=price, weight=weights[n])
        for n, price in enumerate(pricing.terminal_prices(params, periods))
    ]


class IdentityCheck(_Record):
    """One verified identity: its largest observed deviation vs tolerance."""

    __slots__ = ("name", "deviation", "tolerance")

    def __init__(self, name: str, deviation: float, tolerance: float = 1e-10) -> None:
        _set(self, "name", name)
        _set(self, "deviation", deviation)
        _set(self, "tolerance", tolerance)

    @property
    def passed(self) -> bool:
        return bool(self.deviation < self.tolerance)


def _random_unit(rng: np.random.Generator) -> BlochVector:
    vec = rng.normal(size=3)
    return BlochVector(*(vec / np.linalg.norm(vec)))


def _random_factors(
    params: MarketParams, count: int, rng: np.random.Generator
) -> tuple[list[DensityState], list[BlochVector]]:
    """`count` random unit directions, then one random disk state for each: (states, directions)."""
    directions = [_random_unit(rng) for _ in range(count)]
    disks = [risk_neutral_disk(params, make_observable(params.down, params.up, d)) for d in directions]
    return [sample_disk(disk, 1, int(rng.integers(2**31)))[0] for disk in disks], directions


def run_identity_checks(
    params: MarketParams,
    strike: float,
    periods: int,
    seed: int,
    draws: int = 3,
) -> list[IdentityCheck]:
    """Run every oracle agreement suite at the given period count.

    Each IdentityCheck holds the largest absolute deviation over `draws`
    draws of random directions and disk states, NaN if any draw is NaN.
    Its tolerance is max(1e-10, 4(N+1)·ε·scale): scale is 1 for the weight
    law and max(S0, K, S0 (1+up)^n (1+r)^-n), a bound on each discounted
    payoff kept finite, for a price at n = N periods (n = 1 for one period).
    Each route prices the call as a dot product of N+1 weights with payoffs
    of N+1 roundings each (N products for S_n, a subtraction), so it is
    within γ_{2(N+1)}·scale of the exact price (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, §3.1) and two routes within
    about 4(N+1)·ε·scale. The reference market's scale is < 500 to N = 12.
    """
    _check_dense_cap(periods)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    spec = CallSpec(strike)
    rng = np.random.default_rng(seed)
    q = classical_risk_neutral_q(params)
    law = np.array(pricing.lattice_weights(periods, q, binomial=True))
    closed = pricing.mb_price(params, spec, periods).price
    passes = [_mb_pass(params, *_random_factors(params, periods, rng), spec) for _ in range(draws)]
    weights, dense = (np.array(column) for column in zip(*passes))
    explicit = pricing.mb_payoff_price(params, lambda s: max(0.0, s - spec.strike), periods)
    paths = classical_path_enumeration(params, spec, periods)
    be_closed = pricing.be_price(params, spec, periods).price
    be_obs = [make_observable(params.down, params.up, _random_unit(rng)) for _ in range(draws)]
    be_centers = [DensityState(risk_neutral_disk(params, o).center()) for o in be_obs]
    be = np.array([oracle_price_be(params, c, spec, periods, o) for c, o in zip(be_centers, be_obs)])
    payoff = pricing.call_two_point(params, spec)
    reference = pricing.single_period_price(params, payoff).price
    obs = default_observable(params)
    samples = sample_disk(risk_neutral_disk(params, obs), 20, int(rng.integers(2**31)))
    traces = np.array([pricing.single_period_trace_price(params, payoff, state, obs) for state in samples])
    tops = [pricing.discount_factor(params.rate, n) * pricing.terminal_prices(params, n)[-1]
            for n in (periods, 1)]
    scale_n, scale_1 = (min(max(params.stock_initial, strike, top), np.finfo(float).max) for top in tops)
    rows = [
        ("product-state weights vs binomial law", np.abs(weights - law).max(), 1.0),
        ("crr closed form vs explicit sum", abs(closed - explicit), scale_n),
        ("crr closed form vs path enumeration", abs(closed - paths), scale_n),
        ("crr closed form vs dense product oracle", np.abs(dense - closed).max(), scale_n),
        ("dense product oracle direction invariance", np.ptp(dense), scale_n),
        ("be closed form vs symmetric-subspace oracle", np.abs(be - be_closed).max(), scale_n),
        ("single-period state independence", max(np.ptp(traces), np.abs(traces - reference).max()), scale_1),
    ]
    unit = 4 * (periods + 1) * math.ulp(1.0)
    return [IdentityCheck(name, float(dev), max(1e-10, unit * size)) for name, dev, size in rows]
