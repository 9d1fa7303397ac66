"""Payoff definitions and closed-form option pricing.

Four pricing routes live here: the classical subjective (Bernoulli)
price, the single-period risk-neutral price (identical for every state
in the risk-neutral disk), the N-period Maxwell-Boltzmann price in
Cox-Ross-Rubinstein form, and the N-period Bose-Einstein price whose
weights are a normalized geometric family rather than binomial terms.
"""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal

from .bloch import DensityState, TwoLevelObservable, eigenbasis, is_faithful
from .market import (
    ClassicalModel,
    MarketParams,
    classical_risk_neutral_q,
    default_observable,
    disk_contains,
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
    if not disk_contains(risk_neutral_disk(params, obs), state, obs, params.rate):
        raise ValueError("state is not in the risk-neutral disk")
    import numpy as np

    u, v = eigenbasis(obs)
    h = payoff.at_up * np.outer(u, u.conj()) + payoff.at_down * np.outer(v, v.conj())
    return float(np.trace(state.matrix() @ h).real) / (1.0 + params.rate)


def quantum_single_price(params: MarketParams, payoff: TwoPointPayoff) -> PricingResult:
    """One-period price as the dense trace at the center of the risk-neutral disk.

    Uses the default (+z) return observable; any state of the disk would
    give the same price. The center is the disk's most mixed state, so when
    it is not faithful no state is, and ValueError is raised.
    """
    obs = default_observable(params)
    center = DensityState(risk_neutral_disk(params, obs).center())
    if not is_faithful(center):
        raise ValueError("no faithful state in the risk-neutral disk")
    price = single_period_trace_price(params, payoff, center, obs)
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


def _lattice_terms(
    periods: int, p: float, binomial: bool, floor: float = 0.0
) -> tuple[int, list[float]]:
    """Unnormalized weights over the up-move count n, as (lo, terms): terms[i] weighs n = lo + i,
    and every n outside the span weighs 0.

    binomial=True gives the Maxwell-Boltzmann terms C(N,n) p^n (1-p)^(N-n),
    binomial=False the Bose-Einstein geometric family p^n (1-p)^(N-n). The
    largest term (the mode floor((N+1)p) for MB, an end of the lattice for BE)
    is set to 1 and the others follow outward by the term ratio, so no power
    of p underflows. p = 0 and p = 1 are point masses.

    Each side of the walk stops at its first term <= floor. With the default
    floor 0.0 that is the first term to underflow, so the span holds exactly
    the nonzero terms. A floor > 0 bounds the error absolutely. The terms fall
    monotonically away from the largest (a ratio below 1 rounds to at most 1),
    so every dropped term is <= floor. At most N of the N+1 terms are dropped,
    so the dropped mass D is at most N floor, and the largest term, 1, is kept,
    so the kept mass M_k = M - D is >= 1. A tail share T/M of the full mass
    then becomes T_k/M_k with T - T_k = D_T <= D, and
    |T_k/M_k - T/M| = |T D - M D_T| / (M M_k) <= D / M_k <= N floor.
    mb_price's floor 2^-64/(N+1) moves each of its tails by less than 2^-64,
    so a call worth under 2^-64 (S0 + K) (for r >= 0) may price as 0.0."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return (periods if p == 1.0 else 0), [1.0]
    odds = p / (1.0 - p)
    terms, term = [], 1.0
    if binomial:  # t_n / t_(n-1) = (N+1-n)/n * odds, which falls through 1 at the mode
        top, after = min(periods, int((periods + 1) * p)), periods + 1
        for n in range(top, 0, -1):
            term /= (after - n) / n * odds
            if term <= floor:
                break
            terms.append(term)
    else:  # the ratio is odds throughout, so the largest term sits at an end
        top = periods if odds > 1.0 else 0
        for _ in range(top):
            term /= odds
            if term <= floor:
                break
            terms.append(term)
    lo = top - len(terms)
    terms.reverse()
    terms.append(1.0)
    term = 1.0
    if binomial:
        for n in range(top + 1, after):
            term *= (after - n) / n * odds
            if term <= floor:
                break
            terms.append(term)
    else:
        for _ in range(periods - top):
            term *= odds
            if term <= floor:
                break
            terms.append(term)
    return lo, terms


def lattice_weights(periods: int, p: float, binomial: bool) -> list[float]:
    """The _lattice_terms normalized to sum 1 over n = 0..N: the MB binomial law or the BE family."""
    lo, terms = _lattice_terms(periods, p, binomial)
    mass = sum(terms)
    return [0.0] * lo + [w / mass for w in terms] + [0.0] * (periods + 1 - lo - len(terms))


def _normalized_sum(
    walk: tuple[int, list[float]],
    start: int,
    payoff: Callable[[float], float] | None = None,
    ladder: tuple = (),
) -> float:
    """Sum over the walked nodes n >= start of w_n * payoff(S_n), or of w_n alone with no payoff, in
    increasing n; w_n = t_n / sum(t) over the walk (lo, t) of _lattice_terms, S_n = s0 grow^n
    shrink^(N-n) with ladder = (s0, grow, shrink, N). On a walk with the default floor, bit for bit the
    full sum over lattice_weights and terminal_prices when the payoff is 0 below start, as unwalked and
    skipped nodes add +0.0. Keep the built-in sum(): from 3.12 on it compensates rounding."""
    lo, terms = walk
    mass = sum(terms)
    if start > lo:
        lo, terms = start, terms[start - lo :]
    if payoff is None:
        return sum([w / mass for w in terms], 0.0)
    s0, grow, shrink, top = ladder
    nodes = enumerate(terms, lo)
    return sum([x * payoff(s0 * grow**n * shrink ** (top - n)) for n, w in nodes if (x := w / mass)])


def _price_ladder(params: MarketParams, periods: int) -> tuple[float, float, float]:
    """(S0, 1+up, 1+down), or OverflowError naming N if the all-up price S0 (1+up)^N
    is not finite; the ladder increases in n, so no other price can leave the range."""
    s0, grow, shrink = params.stock_initial, 1.0 + params.up, 1.0 + params.down
    try:
        top = s0 * grow**periods
    except OverflowError:
        top = math.inf
    if top == math.inf:
        raise OverflowError(f"terminal prices exceed the float range at N={periods}")
    return s0, grow, shrink


def terminal_prices(params: MarketParams, periods: int) -> list[float]:
    """Terminal stock prices S0 (1+up)^n (1+down)^(N-n) for n = 0..N (_price_ladder's errors)."""
    s0, grow, shrink = _price_ladder(params, periods)
    return [s0 * grow**n * shrink ** (periods - n) for n in range(periods + 1)]


def discount_factor(rate: float, periods: int) -> float:
    """(1+rate)^-N; OverflowError naming N when it leaves the range of normal floats."""
    try:
        factor = (1.0 + rate) ** -periods
    except OverflowError:
        factor = math.inf
    if not sys.float_info.min <= factor < math.inf:
        raise OverflowError(f"discount factor (1+r)^-N leaves the float range at N={periods}")
    return factor


def complementary_binomial(m: int, n: int, p: float) -> float:
    """Upper binomial tail: sum of C(n,j) p^j (1-p)^(n-j) for j = m..n.

    By convention the full sum (m <= 0) is exactly 1 and the empty sum
    (m = n+1) exactly 0.
    """
    if not 0 <= m <= n + 1:
        raise ValueError("m must lie in [0, n+1]")
    return _binomial_tail(m, n, p)


def _binomial_tail(m: int, n: int, p: float, floor: float = 0.0) -> float:
    """complementary_binomial over the binomial walk stopped at floor (see _lattice_terms)."""
    walk = _lattice_terms(n, p, True, floor)
    return 1.0 if m == 0 else _normalized_sum(walk, m)


def crr_cutoff_tau(params: MarketParams, spec: CallSpec, periods: int) -> int:
    """Smallest up-move count whose terminal price strictly exceeds the strike.

    Returns periods + 1 when even the all-up path stays at or below K
    (the call is then worthless).
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    s0, grow, shrink = _price_ladder(params, periods)
    # terminal_prices' expression, so tau matches its n-th price bit for bit
    return bisect.bisect_right(
        range(periods + 1), spec.strike, key=lambda n: s0 * grow**n * shrink ** (periods - n)
    )


def _lattice_expectation(
    params: MarketParams, payoff: Callable[[float], float], periods: int, binomial: bool
) -> float:
    """Discounted expectation of a terminal payoff under MB or BE weights."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    q = classical_risk_neutral_q(params)
    ladder = (*_price_ladder(params, periods), periods)
    total = _normalized_sum(_lattice_terms(periods, q, binomial), 0, payoff, ladder)
    return total * discount_factor(params.rate, periods)


def mb_payoff_price(params: MarketParams, payoff: Callable[[float], float], periods: int) -> float:
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

    Each Psi sums only the binomial terms above the floor 2^-64/(N+1), about
    ten standard deviations either side of the mode, so a call costs
    O(sqrt(N)) instead of two full O(N) walks. By _lattice_terms' bound each
    Psi then differs from complementary_binomial's full-lattice value by at
    most N 2^-64/(N+1) < 2^-64, and the price by less than
    2^-64 (S0 + K (1+r)^-N), at most 2^-64 (S0 + K) when r >= 0. The
    accuracy is absolute: a call worth less than that may price as 0.0.
    When every term lies above the floor, the price is bit for bit the
    complementary_binomial form.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    q = classical_risk_neutral_q(params)
    # q' = 1 - (b-r)(1+a)/((b-a)(1+r)) <= 1, exactly 1 at a = -1, where the product can round above 1
    q_prime = min(1.0, q * (1.0 + params.up) / (1.0 + params.rate))
    tau = crr_cutoff_tau(params, spec, periods)
    discount = discount_factor(params.rate, periods)
    floor = 2.0**-64 / (periods + 1)
    closed = (
        params.stock_initial * _binomial_tail(tau, periods, q_prime, floor)
        - spec.strike * discount * _binomial_tail(tau, periods, q, floor)
    )
    return PricingResult(
        price=max(0.0, closed), discounted_by=discount, model="mb", periods=periods, cutoff_tau=tau
    )


def be_weights(params: MarketParams, periods: int) -> np.ndarray:
    """Bose-Einstein occupation weights q^n (1-q)^(N-n) normalized to sum 1: a geometric-ratio
    family indexed by the up-move count n; no binomial coefficients appear."""
    import numpy as np

    q = classical_risk_neutral_q(params)
    return np.array(lattice_weights(periods, q, binomial=False))


def be_payoff_price(params: MarketParams, payoff: Callable[[float], float], periods: int) -> float:
    """Discounted Bose-Einstein-weighted expectation of a terminal payoff."""
    return _lattice_expectation(params, payoff, periods, binomial=False)


def be_price(params: MarketParams, spec: CallSpec, periods: int) -> PricingResult:
    """N-period Bose-Einstein call price (identical-particle statistics): the geometric
    weights times S_n - K over the paying nodes n >= tau only, so bit for bit
    be_payoff_price of the clipped call payoff."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    q = classical_risk_neutral_q(params)
    tau = crr_cutoff_tau(params, spec, periods)
    ladder = (*_price_ladder(params, periods), periods)
    paid = _normalized_sum(_lattice_terms(periods, q, False), tau, lambda s: s - spec.strike, ladder)
    discount = discount_factor(params.rate, periods)
    return PricingResult(price=paid * discount, discounted_by=discount, model="be", periods=periods)


def convergence_sweep(
    params: MarketParams, spec: CallSpec, max_periods: int, model: Model
) -> list[tuple[int, float]]:
    """Prices for N = 1..max_periods with the per-period (down, up, rate) held fixed.

    No rescaling with N is performed, so this sweeps the fixed-parameter
    family rather than approaching a continuous-time limit. If some N leaves
    the float range, OverflowError names the first one before any pricing.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    pricer = {"mb": mb_price, "be": be_price}.get(model)
    if pricer is None:
        raise ValueError(f"model {model!r} is single-period; sweep needs 'mb' or 'be'")

    def range_error(n: int) -> OverflowError | None:
        try:
            _price_ladder(params, n)
            discount_factor(params.rate, n)
        except OverflowError as exc:
            return exc
        return None

    if range_error(max_periods):  # each test fails for every N from some N on
        first = 1 + bisect.bisect_left(range(1, max_periods + 1), True, key=lambda n: bool(range_error(n)))
        raise range_error(first)
    return [(n, pricer(params, spec, n).price) for n in range(1, max_periods + 1)]
