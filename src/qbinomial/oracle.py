"""Exact brute-force verification layer.

Everything here is built densely from raw tensor products: the N-period
stock operator on (C^2)^(x)N, product risk-neutral states, projector
sums enumerated subset by subset, the symmetric-subspace compression
used by the Bose-Einstein model, and plain 2^N path enumeration of the
classical model. No weight or price route from the pricing module is
reused, only its terminal-price ladder; exactness and auditability are
the point, not speed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import pricing
from .bloch import (
    TOL,
    BlochVector,
    DensityState,
    TwoLevelObservable,
    eigenbasis,
    expectation,
    is_faithful,
    make_observable,
)
from .market import (
    MEMBERSHIP_TOL,
    MarketParams,
    classical_risk_neutral_q,
    default_observable,
    risk_neutral_disk,
    sample_disk,
)
from .pricing import CallSpec

# Memory guard for dense 2^N x 2^N construction and loop guard for path
# enumeration; chosen so the full verification suite runs in seconds.
DENSE_CAP = 12
PATH_CAP = 25

I2 = np.eye(2, dtype=complex)


def _check_dense_cap(periods: int) -> None:
    if periods > DENSE_CAP:
        raise ValueError(f"N={periods} exceeds dense oracle cap ({DENSE_CAP})")
    if periods < 1:
        raise ValueError("periods must be >= 1")


def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def _unit_directions(directions: Sequence[BlochVector]) -> list[BlochVector]:
    out = []
    for d in directions:
        if abs(d.norm() - 1.0) > TOL:
            raise ValueError(f"direction {d} is not unit norm")
        out.append(d)
    return out


def build_stock_operator(
    params: MarketParams, directions: Sequence[BlochVector]
) -> np.ndarray:
    """Dense terminal stock operator S0 * (x)_j (1 + R_j).

    Each factor's return observable R_j takes the market's (down, up)
    values along its own unit Bloch direction. The spectrum is the
    terminal-price set S0 (1+up)^n (1+down)^(N-n) with binomial
    multiplicities.
    """
    dirs = _unit_directions(directions)
    _check_dense_cap(len(dirs))
    factors = []
    for d in dirs:
        obs = make_observable(params.down, params.up, d)
        factors.append(I2 + obs.matrix())
    return params.stock_initial * _kron_chain(factors)


def build_product_state(states: Sequence[DensityState]) -> np.ndarray:
    """Dense 2^N x 2^N product density matrix of N faithful factors."""
    _check_dense_cap(len(states))
    for k, state in enumerate(states):
        if not is_faithful(state):
            raise ValueError(f"factor {k} is not faithful")
    return _kron_chain([state.matrix() for state in states])


def _eigenprojectors(direction: BlochVector) -> tuple[np.ndarray, np.ndarray]:
    """(P_high, P_low) = ((I + n.sigma)/2, (I - n.sigma)/2) for unit n."""
    pauli = direction.pauli_matrix()
    return 0.5 * (I2 + pauli), 0.5 * (I2 - pauli)


def mb_weight(
    states: Sequence[DensityState],
    directions: Sequence[BlochVector],
    n: int,
) -> float:
    """Dense trace of the product state against the n-up projector sum.

    The projector sum runs over every subset of exactly n factors, each
    term the tensor product of high-eigenvector projectors on the subset
    and low-eigenvector projectors elsewhere, enumerated by bitmask. For
    risk-neutral factors this equals C(N,n) q^n (1-q)^(N-n).
    """
    count = len(states)
    if len(directions) != count:
        raise ValueError("need one direction per state")
    dirs = _unit_directions(directions)
    _check_dense_cap(count)
    if not 0 <= n <= count:
        raise ValueError("n must lie in [0, N]")
    rho = build_product_state(states)
    projectors = [_eigenprojectors(d) for d in dirs]
    proj_sum = np.zeros((2**count, 2**count), dtype=complex)
    for mask in range(2**count):
        if mask.bit_count() != n:
            continue
        factors = [
            projectors[j][0] if (mask >> j) & 1 else projectors[j][1]
            for j in range(count)
        ]
        proj_sum += _kron_chain(factors)
    return float(np.trace(rho @ proj_sum).real)


def _check_risk_neutral(
    params: MarketParams, state: DensityState, obs: TwoLevelObservable, label: str
) -> None:
    if not is_faithful(state):
        raise ValueError(f"{label} is not faithful")
    if abs(expectation(state, obs) - params.rate) >= MEMBERSHIP_TOL:
        raise ValueError(f"{label} is not risk-neutral for this market")


def oracle_price_mb(
    params: MarketParams,
    states: Sequence[DensityState],
    directions: Sequence[BlochVector],
    spec: CallSpec,
) -> float:
    """Discounted dense trace of the clipped stock operator.

    The payoff operator (S_N - K)^+ is formed spectrally: eigenvalues of
    the dense S_N are clipped at the strike while eigenvectors are kept.
    Every factor state must be risk-neutral for its own direction.
    """
    if len(states) != len(directions):
        raise ValueError("need one direction per state")
    dirs = _unit_directions(directions)
    periods = len(states)
    _check_dense_cap(periods)
    for k, (state, d) in enumerate(zip(states, dirs)):
        obs = make_observable(params.down, params.up, d)
        _check_risk_neutral(params, state, obs, f"factor {k}")
    stock = build_stock_operator(params, dirs)
    eigvals, eigvecs = np.linalg.eigh(stock)
    clipped = np.maximum(eigvals - spec.strike, 0.0)
    payoff_op = (eigvecs * clipped) @ eigvecs.conj().T
    rho = build_product_state(states)
    discount = (1.0 + params.rate) ** (-periods)
    return discount * float(np.trace(rho @ payoff_op).real)


def symmetric_isometry(
    obs: TwoLevelObservable, periods: int
) -> np.ndarray:
    """Columns are the orthonormal symmetric basis vectors of (C^2)^(x)N.

    Column n is the normalized sum over all placements of n copies of
    the high eigenvector u among N tensor slots (the rest carrying the
    low eigenvector v).
    """
    _check_dense_cap(periods)
    u, v = eigenbasis(obs)
    columns = []
    for n in range(periods + 1):
        vec = np.zeros(2**periods, dtype=complex)
        for positions in itertools.combinations(range(periods), n):
            factors = [u if j in positions else v for j in range(periods)]
            vec += _kron_chain(factors)
        columns.append(vec / np.linalg.norm(vec))
    return np.column_stack(columns)


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
    _check_dense_cap(periods)
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
    if abs(obs.low - params.down) > TOL or abs(obs.high - params.up) > TOL:
        raise ValueError("observable values must match the market's (down, up)")
    _check_risk_neutral(params, state, obs, "state")
    compressed = build_symmetric_be_state(state, obs, periods)
    payoffs = np.maximum(np.array(pricing.terminal_prices(params, periods)) - spec.strike, 0.0)
    discount = (1.0 + params.rate) ** (-periods)
    return discount * float(np.trace(compressed @ np.diag(payoffs)).real)


def classical_path_enumeration(
    params: MarketParams, spec: CallSpec, periods: int
) -> float:
    """Discounted call value summed over all 2^N up/down paths.

    Each path carries weight q^ups (1-q)^downs computed from scratch;
    nothing is grouped by up-move count, so agreement with the binomial
    sum genuinely checks the combinatorics.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    if periods > PATH_CAP:
        raise ValueError(f"N={periods} exceeds path enumeration cap ({PATH_CAP})")
    q = classical_risk_neutral_q(params)
    terminal = pricing.terminal_prices(params, periods)
    total = 0.0
    for mask in range(2**periods):
        ups = mask.bit_count()
        weight = q**ups * (1.0 - q) ** (periods - ups)
        total += weight * max(0.0, terminal[ups] - spec.strike)
    return total / (1.0 + params.rate) ** periods


@dataclass(frozen=True)
class PathOutcome:
    """Terminal outcome aggregated over all paths with one up-move count."""

    up_count: int
    terminal_price: float
    weight: float


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


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: its largest observed deviation vs tolerance."""

    name: str
    deviation: float
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return bool(self.deviation < self.tolerance)


def _random_unit(rng: np.random.Generator) -> BlochVector:
    vec = rng.normal(size=3)
    return BlochVector(*(vec / np.linalg.norm(vec)))


def _random_disk_state(
    params: MarketParams, direction: BlochVector, rng: np.random.Generator
) -> DensityState:
    obs = make_observable(params.down, params.up, direction)
    disk = risk_neutral_disk(params, obs)
    return sample_disk(disk, 1, int(rng.integers(2**31)))[0]


def run_identity_checks(
    params: MarketParams,
    strike: float,
    periods: int,
    seed: int,
    draws: int = 3,
) -> list[IdentityCheck]:
    """Run every oracle agreement suite at the given period count.

    Returns one IdentityCheck per identity with the maximum absolute
    deviation observed over `draws` random draws of directions and disk
    states. All tolerances are 1e-10. The subset-enumerated weight-law
    check costs 8^N, so it runs at min(periods, 8); everything else runs
    at the requested period count.
    """
    _check_dense_cap(periods)
    spec = CallSpec(strike)
    rng = np.random.default_rng(seed)
    q = classical_risk_neutral_q(params)
    checks = []

    dev = 0.0
    weight_periods = min(periods, 8)
    for _ in range(draws):
        directions = [_random_unit(rng) for _ in range(weight_periods)]
        states = [_random_disk_state(params, d, rng) for d in directions]
        for n in range(weight_periods + 1):
            law = math.comb(weight_periods, n) * q**n * (1.0 - q) ** (weight_periods - n)
            dev = max(dev, abs(mb_weight(states, directions, n) - law))
    checks.append(IdentityCheck("product-state weights vs binomial law", dev))

    closed = pricing.mb_price(params, spec, periods).price
    explicit = pricing.mb_payoff_price(
        params, lambda s: max(0.0, s - spec.strike), periods
    )
    checks.append(IdentityCheck("crr closed form vs explicit sum", abs(closed - explicit)))

    paths = classical_path_enumeration(params, spec, periods)
    checks.append(IdentityCheck("crr closed form vs path enumeration", abs(closed - paths)))

    dense_prices = []
    for _ in range(draws):
        directions = [_random_unit(rng) for _ in range(periods)]
        states = [_random_disk_state(params, d, rng) for d in directions]
        dense_prices.append(oracle_price_mb(params, states, directions, spec))
    checks.append(
        IdentityCheck(
            "crr closed form vs dense product oracle",
            max(abs(p - closed) for p in dense_prices),
        )
    )
    checks.append(
        IdentityCheck(
            "dense product oracle direction invariance",
            max(dense_prices) - min(dense_prices),
        )
    )

    be_closed = pricing.be_price(params, spec, periods).price
    dev = 0.0
    for _ in range(draws):
        obs = make_observable(params.down, params.up, _random_unit(rng))
        disk = risk_neutral_disk(params, obs)
        center = DensityState(disk.center())
        dev = max(dev, abs(oracle_price_be(params, center, spec, periods, obs) - be_closed))
    checks.append(IdentityCheck("be closed form vs symmetric-subspace oracle", dev))

    payoff = pricing.call_two_point(params, spec)
    reference = pricing.single_period_price(params, payoff).price
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    traces = [
        pricing.single_period_trace_price(params, payoff, state, obs)
        for state in sample_disk(disk, 20, int(rng.integers(2**31)))
    ]
    dev = max(max(traces) - min(traces), max(abs(t - reference) for t in traces))
    checks.append(IdentityCheck("single-period state independence", dev))

    return checks
