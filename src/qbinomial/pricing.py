"""Payoff definitions and closed-form option pricing.

Four pricing routes live here: the classical subjective (Bernoulli)
price, the single-period risk-neutral price (identical for every state
in the risk-neutral disk), the N-period Maxwell-Boltzmann price in
Cox-Ross-Rubinstein form, and the N-period Bose-Einstein price whose
weights are a normalized geometric family rather than binomial terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal

from .bloch import DensityState, TwoLevelObservable, eigenbasis, expectation
from .market import (
    MEMBERSHIP_TOL,
    ClassicalModel,
    MarketParams,
    classical_risk_neutral_q,
    default_observable,
    risk_neutral_disk,
)

if TYPE_CHECKING:
    import numpy as np

Model = Literal["classical", "quantum_single", "mb", "be"]

MODELS: tuple[Model, ...] = ("classical", "quantum_single", "mb", "be")


@dataclass(frozen=True)
class TwoPointPayoff:
    """Payoff paid at the down and up terminal prices of one period."""

    at_down: float
    at_up: float

    def __post_init__(self) -> None:
        for value in (self.at_down, self.at_up):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError("payoffs must be finite and nonnegative")


@dataclass(frozen=True)
class CallSpec:
    """European call with strike K; terminal payoff (S - K)^+."""

    strike: float

    def __post_init__(self) -> None:
        if not self.strike > 0.0:
            raise ValueError("strike must be positive")


@dataclass(frozen=True)
class PricingResult:
    price: float
    discounted_by: float
    model: Model
    periods: int
    cutoff_tau: int | None = None


def call_two_point(params: MarketParams, spec: CallSpec) -> TwoPointPayoff:
    """Clipped call payoffs at the two one-period terminal prices."""
    at_down = max(0.0, params.stock_initial * (1.0 + params.down) - spec.strike)
    at_up = max(0.0, params.stock_initial * (1.0 + params.up) - spec.strike)
    return TwoPointPayoff(at_down=at_down, at_up=at_up)


def single_period_price(
    params: MarketParams, payoff: TwoPointPayoff, *, model: Model = "quantum_single"
) -> PricingResult:
    """Discounted risk-neutral expectation of a one-period payoff.

    This is the state-independent price: every state in the risk-neutral
    disk gives the same number (see single_period_trace_price). The
    classical risk-neutral price is the same number, so `model` only
    labels the result.
    """
    q = classical_risk_neutral_q(params)
    discount = 1.0 / (1.0 + params.rate)
    price = discount * (q * payoff.at_up + (1.0 - q) * payoff.at_down)
    return PricingResult(price=price, discounted_by=discount, model=model, periods=1)


def single_period_trace_price(
    params: MarketParams,
    payoff: TwoPointPayoff,
    state: DensityState,
    obs: TwoLevelObservable,
) -> float:
    """One-period price as the discounted dense trace tr(rho H).

    H is the payoff observable assembled from the eigenprojectors of the
    return observable. The supplied state must lie in the risk-neutral
    disk; the result then equals single_period_price within 1e-12.
    """
    if abs(obs.low - params.down) > 1e-9 or abs(obs.high - params.up) > 1e-9:
        raise ValueError("observable values must match the market's (down, up)")
    if abs(expectation(state, obs) - params.rate) >= MEMBERSHIP_TOL:
        raise ValueError("state is not risk-neutral for this market")
    import numpy as np

    u, v = eigenbasis(obs)
    h = payoff.at_up * np.outer(u, u.conj()) + payoff.at_down * np.outer(v, v.conj())
    return float(np.trace(state.matrix() @ h).real) / (1.0 + params.rate)


def quantum_single_price(params: MarketParams, payoff: TwoPointPayoff) -> PricingResult:
    """One-period price as the dense trace at the center of the risk-neutral disk.

    Uses the default (+z) return observable; any state of the disk would
    give the same price.
    """
    obs = default_observable(params)
    disk = risk_neutral_disk(params, obs)
    price = single_period_trace_price(params, payoff, DensityState(disk.center()), obs)
    return PricingResult(
        price=price, discounted_by=1.0 / (1.0 + params.rate), model="quantum_single", periods=1
    )


def classical_expected_price(model: ClassicalModel, payoff: TwoPointPayoff) -> float:
    """Subjective Bernoulli price: discounted expectation under p.

    Coincides with the risk-neutral price exactly when p equals the
    risk-neutral up-probability.
    """
    p = model.up_probability
    return (p * payoff.at_up + (1.0 - p) * payoff.at_down) / (1.0 + model.params.rate)


def lattice_weights(periods: int, p: float, binomial: bool) -> list[float]:
    """Normalized weights over the up-move count n = 0..N.

    binomial=True gives the Maxwell-Boltzmann law C(N,n) p^n (1-p)^(N-n);
    binomial=False drops C(N,n), giving the Bose-Einstein geometric
    family p^n (1-p)^(N-n) / sum_k p^k (1-p)^(N-k). The largest term
    (the mode floor((N+1)p) for MB, an end of the lattice for BE) is set
    to 1 and the others follow outward by the term ratio, so no power of
    p underflows before the weights are normalized. Terms that underflow
    far from the largest one stay 0. p = 0 and p = 1 are point masses.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
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
    total = sum(weights)
    return [w / total for w in weights]


def terminal_prices(params: MarketParams, periods: int) -> list[float]:
    """Terminal stock prices S0 (1+up)^n (1+down)^(N-n) for n = 0..N.

    Raises OverflowError naming N when the all-up price leaves the float
    range; the ladder increases in n, so no other price can.
    """
    s0, grow, shrink = params.stock_initial, 1.0 + params.up, 1.0 + params.down
    try:
        prices = [s0 * grow**n * shrink ** (periods - n) for n in range(periods + 1)]
    except OverflowError:
        prices = [math.inf]
    if prices[-1] == math.inf:
        raise OverflowError(f"terminal prices exceed the float range at N={periods}")
    return prices


def complementary_binomial(m: int, n: int, p: float) -> float:
    """Upper binomial tail: sum of C(n,j) p^j (1-p)^(n-j) for j = m..n.

    By convention the full sum (m <= 0) is exactly 1 and the empty sum
    (m = n+1) exactly 0.
    """
    if not 0 <= m <= n + 1:
        raise ValueError("m must lie in [0, n+1]")
    weights = lattice_weights(n, p, True)
    return 1.0 if m == 0 else sum(weights[m:])


def crr_cutoff_tau(params: MarketParams, spec: CallSpec, periods: int) -> int:
    """Smallest up-move count whose terminal price strictly exceeds the strike.

    Returns periods + 1 when even the all-up path stays at or below K
    (the call is then worthless).
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    prices = terminal_prices(params, periods)
    return next((n for n, s in enumerate(prices) if s > spec.strike), periods + 1)


def _lattice_expectation(
    params: MarketParams,
    payoff: Callable[[float], float],
    periods: int,
    binomial: bool,
) -> float:
    """Discounted expectation of a terminal payoff under MB or BE weights."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    q = classical_risk_neutral_q(params)
    prices = terminal_prices(params, periods)
    weights = lattice_weights(periods, q, binomial)
    total = sum(w * payoff(s) for w, s in zip(weights, prices) if w)
    return total / (1.0 + params.rate) ** periods


def mb_payoff_price(
    params: MarketParams,
    payoff: Callable[[float], float],
    periods: int,
) -> float:
    """Discounted binomial-weighted expectation of a terminal payoff.

    The explicit Maxwell-Boltzmann sum: weight C(N,n) q^n (1-q)^(N-n) on
    the terminal price with n up moves. Accepts any terminal payoff
    function, which is how puts and other payoffs are priced.
    """
    return _lattice_expectation(params, payoff, periods, binomial=True)


def mb_price(params: MarketParams, spec: CallSpec, periods: int) -> PricingResult:
    """N-period Maxwell-Boltzmann call price in Cox-Ross-Rubinstein form.

    Evaluates S0 * Psi(tau; N, q') - K (1+r)^-N * Psi(tau; N, q) with
    q' = q (1+up)/(1+rate). The explicit binomial sum (mb_payoff_price)
    is compared with it by oracle.run_identity_checks, not here.
    """
    q = classical_risk_neutral_q(params)
    q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
    tau = crr_cutoff_tau(params, spec, periods)
    discount = (1.0 + params.rate) ** (-periods)
    closed = (
        params.stock_initial * complementary_binomial(tau, periods, q_prime)
        - spec.strike * discount * complementary_binomial(tau, periods, q)
    )
    return PricingResult(
        price=max(0.0, closed),
        discounted_by=discount,
        model="mb",
        periods=periods,
        cutoff_tau=tau,
    )


def be_weights(params: MarketParams, periods: int) -> np.ndarray:
    """Bose-Einstein occupation weights q^n (1-q)^(N-n) normalized to sum 1.

    A geometric-ratio family indexed by the up-move count n; no binomial
    coefficients appear.
    """
    import numpy as np

    q = classical_risk_neutral_q(params)
    return np.array(lattice_weights(periods, q, binomial=False))


def be_payoff_price(
    params: MarketParams,
    payoff: Callable[[float], float],
    periods: int,
) -> float:
    """Discounted Bose-Einstein-weighted expectation of a terminal payoff."""
    return _lattice_expectation(params, payoff, periods, binomial=False)


def be_price(params: MarketParams, spec: CallSpec, periods: int) -> PricingResult:
    """N-period Bose-Einstein call price (identical-particle statistics)."""
    price = be_payoff_price(params, lambda s: max(0.0, s - spec.strike), periods)
    discount = (1.0 + params.rate) ** (-periods)
    return PricingResult(price=price, discounted_by=discount, model="be", periods=periods)


def convergence_sweep(
    params: MarketParams,
    spec: CallSpec,
    max_periods: int,
    model: Model,
) -> list[tuple[int, float]]:
    """Prices for N = 1..max_periods with the per-period (down, up, rate) held fixed.

    No rescaling with N is performed, so this sweeps the fixed-parameter
    family rather than approaching a continuous-time limit.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    if model == "mb":
        pricer = mb_price
    elif model == "be":
        pricer = be_price
    else:
        raise ValueError(f"model {model!r} is single-period; sweep needs 'mb' or 'be'")
    return [(n, pricer(params, spec, n).price) for n in range(1, max_periods + 1)]
