"""Payoff definitions and closed-form option pricing.

Four pricing routes live here: the classical subjective (Bernoulli)
price, the single-period risk-neutral price (the Bernoulli price at q,
which every state in the risk-neutral disk gives as its Born-rule
price), the N-period Maxwell-Boltzmann price in
Cox-Ross-Rubinstein form, and the N-period Bose-Einstein price whose
weights are a normalized geometric family rather than binomial terms.
"""
from __future__ import annotations

import bisect
import math
import sys
from typing import TYPE_CHECKING, Callable, Literal, get_args

from .market import ClassicalModel, MarketParams, _Record, _set, classical_risk_neutral_q

if TYPE_CHECKING:
    import numpy as np

    from .bloch import DensityState, TwoLevelObservable

Model = Literal["classical", "quantum_single", "mb", "be"]

MODELS: tuple[Model, ...] = get_args(Model)


class TwoPointPayoff(_Record):
    """Payoff paid at the down and up terminal prices of one period."""

    __slots__ = ("at_down", "at_up")

    def __init__(self, at_down: float, at_up: float) -> None:
        for value in (at_down, at_up):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError("payoffs must be finite and nonnegative")
        _set(self, "at_down", at_down)
        _set(self, "at_up", at_up)


class CallSpec(_Record):
    """European call with strike K; terminal payoff (S - K)^+."""

    __slots__ = ("strike",)

    def __init__(self, strike: float) -> None:
        if not strike - strike == 0:  # NaN or infinite: x - x is NaN
            raise ValueError("strike is not finite: invalid option")
        if strike <= 0.0:
            raise ValueError("strike <= 0: invalid option")
        _set(self, "strike", strike)


class PricingResult(_Record):
    """A price and its risk-neutral q; only mb_price sets q' = q (1+up)/(1+rate), clamped to 1, and tau."""

    __slots__ = ("model", "periods", "price", "discounted_by", "q", "q_prime", "cutoff_tau")

    def __init__(self, model: Model, periods: int, price: float, discounted_by: float, q: float,
                 q_prime: float | None = None, cutoff_tau: int | None = None) -> None:
        _set(self, "model", model)
        _set(self, "periods", periods)
        _set(self, "price", price)
        _set(self, "discounted_by", discounted_by)
        _set(self, "q", q)
        _set(self, "q_prime", q_prime)
        _set(self, "cutoff_tau", cutoff_tau)


def call_two_point(params: MarketParams, spec: CallSpec) -> TwoPointPayoff:
    """Clipped call payoffs at the two one-period terminal prices."""
    at_down = max(0.0, params.stock_initial * (1.0 + params.down) - spec.strike)
    at_up = max(0.0, params.stock_initial * (1.0 + params.up) - spec.strike)
    return TwoPointPayoff(at_down=at_down, at_up=at_up)


def classical_expected_price(model: ClassicalModel, payoff: TwoPointPayoff) -> float:
    """Bernoulli price: the expectation of a one-period payoff under p, discounted by 1/(1+r).

    Every one-period price is this one: the risk-neutral price at p = q, and
    the quantum price of a state at its Born probability of the up return.
    """
    p = model.up_probability
    return 1.0 / (1.0 + model.params.rate) * (p * payoff.at_up + (1.0 - p) * payoff.at_down)


def single_period_price(
    params: MarketParams, payoff: TwoPointPayoff, *, model: Model = "quantum_single"
) -> PricingResult:
    """Discounted risk-neutral expectation of a one-period payoff: the Bernoulli price at q.

    This is the state-independent price: every state in the risk-neutral
    disk gives the same number (see single_period_trace_price). The
    classical risk-neutral price is the same number, so `model` only
    labels the result.
    """
    q = classical_risk_neutral_q(params)
    price = classical_expected_price(ClassicalModel(params, q), payoff)
    return PricingResult(model=model, periods=1, price=price, discounted_by=1.0 / (1.0 + params.rate), q=q)


def single_period_trace_price(
    params: MarketParams,
    payoff: TwoPointPayoff,
    state: DensityState,
    obs: TwoLevelObservable,
) -> float:
    """One-period price tr(rho H)/(1+r) of the payoff observable H = U |u><u| + D |v><v|.

    That trace is the Bernoulli price at the state's Born probability of the
    up return, <u|rho|u> = (1 + <bloch, n>)/2 for the unit direction n, so no
    matrix is built. The supplied state must lie in the risk-neutral disk,
    which is where that probability equals q; for a state on the disk's
    plane the result equals single_period_price up to rounding.
    """
    from .disk import disk_contains

    if not disk_contains(params, state, obs):
        raise ValueError("state is not in the risk-neutral disk")
    born = 0.5 * (1.0 + state.bloch.dot(obs.unit_direction()))
    return classical_expected_price(ClassicalModel(params, born), payoff)


def quantum_single_price(params: MarketParams, payoff: TwoPointPayoff) -> PricingResult:
    """One-period quantum price: single_period_price, once the risk-neutral disk holds a faithful state.

    Every state of the disk has Born probability q of the up return (see
    single_period_trace_price), so the price is the Bernoulli price at q,
    bit for bit the classical one. Whether the disk holds a faithful state
    depends only on its plane offset, whatever the observable's direction;
    the disk module's one faithful-part rule, which sample_disk also applies,
    decides it and raises ValueError when no state is faithful.
    """
    from .disk import _faithful_part, _plane

    _faithful_part(_plane(params)[0])
    return single_period_price(params, payoff)


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
    mb_price's floors move each of its tails, the q one after discounting, by
    less than 2^-64, so a call worth under 2^-64 (S0 + K) may price as 0.0."""
    if periods < 0:
        raise ValueError("periods must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return (periods if p == 1.0 else 0), [1.0]
    # the statistic sets only the top and the step ratio t_n / t_(n-1): (N+1-n)/n * odds for MB,
    # which falls through 1 at the mode, and odds throughout for BE, so its top is an end
    odds, after = p / (1.0 - p), periods + 1
    top = min(periods, int(after * p)) if binomial else (periods if odds > 1.0 else 0)
    terms, term = [], 1.0
    for n in range(top, 0, -1):
        term /= (after - n) / n * odds if binomial else odds
        if term <= floor:
            break
        terms.append(term)
    lo = top - len(terms)
    terms.reverse()
    terms.append(1.0)
    term = 1.0
    for n in range(top + 1, after):
        term *= (after - n) / n * odds if binomial else odds
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
    walk: tuple[int, list[float]], start: int, payoff: Callable[[float], float], ladder: tuple
) -> float:
    """Sum over the walked nodes n >= start of w_n * payoff(S_n) in increasing n; w_n = t_n / sum(t)
    over the walk (lo, t) of _lattice_terms, S_n = s0 grow^n shrink^(N-n) with ladder = (s0, grow,
    shrink, N). On a walk with the default floor, bit for bit the full sum over lattice_weights and
    terminal_prices when the payoff is 0 below start, as unwalked and skipped nodes add +0.0. Keep
    the built-in sum(): from 3.12 on it compensates rounding."""
    lo, terms = walk
    mass = sum(terms)
    if start > lo:
        lo, terms = start, terms[start - lo :]
    s0, grow, shrink, top = ladder
    nodes = enumerate(terms, lo)
    return sum([x * payoff(s0 * grow**n * shrink ** (top - n)) for n, w in nodes if (x := w / mass)])


def _price_ladder(params: MarketParams, periods: int) -> tuple[float, float, float, int]:
    """(S0, 1+up, 1+down, N), or OverflowError naming N if the all-up price S0 (1+up)^N
    is not finite; the ladder increases in n, so no other price can leave the range."""
    s0, grow, shrink = params.stock_initial, 1.0 + params.up, 1.0 + params.down
    try:
        top = s0 * grow**periods
    except OverflowError:
        top = math.inf
    if top == math.inf:
        raise OverflowError(f"terminal prices exceed the float range at N={periods}")
    return s0, grow, shrink, periods


def terminal_prices(params: MarketParams, periods: int) -> list[float]:
    """Terminal stock prices S0 (1+up)^n (1+down)^(N-n) for n = 0..N (_price_ladder's errors)."""
    s0, grow, shrink, top = _price_ladder(params, periods)
    return [s0 * grow**n * shrink ** (top - n) for n in range(top + 1)]


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

    By convention the full sum (m = 0) is exactly 1 and the empty sum
    (m = n+1) exactly 0; both return without walking the lattice.
    """
    if not 0 <= m <= n + 1:
        raise ValueError("m must lie in [0, n+1]")
    return _binomial_tail(m, n, p)


def _binomial_tail(m: int, n: int, p: float, floor: float = 0.0) -> float:
    """complementary_binomial over the binomial walk stopped at floor (see _lattice_terms): the
    walked weights t_j / sum(t) for j >= m, summed in increasing j. The full (m = 0) and empty
    (m > n) sums are 1.0 and 0.0 with no walk; an invalid n or p still raises in the walk."""
    if (m == 0 or m > n) and n >= 0 and 0.0 <= p <= 1.0:
        return 1.0 if m == 0 else 0.0
    lo, terms = _lattice_terms(n, p, True, floor)
    mass = sum(terms)
    return sum([w / mass for w in terms[max(0, m - lo) :]], 0.0)


def _cutoff(ladder: tuple[float, float, float, int], strike: float) -> int:
    """Smallest n whose ladder price strictly exceeds the strike, N+1 if none does; the price is
    terminal_prices' expression, so tau matches its n-th price bit for bit."""
    s0, grow, shrink, top = ladder
    return bisect.bisect_right(range(top + 1), strike, key=lambda n: s0 * grow**n * shrink ** (top - n))


def crr_cutoff_tau(params: MarketParams, spec: CallSpec, periods: int) -> int:
    """Smallest up-move count whose terminal price strictly exceeds the strike.

    Returns periods + 1 when even the all-up path stays at or below K
    (the call is then worthless).
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    return _cutoff(_price_ladder(params, periods), spec.strike)


def _setup(params: MarketParams, periods: int) -> tuple[float, tuple[float, float, float, int], float]:
    """(q, _price_ladder, (1+r)^-N) of an N-period route, checked in one order: periods >= 1,
    arbitrage, terminal prices, discount; so every error comes before any walk."""
    if periods < 1:
        raise ValueError("periods must be >= 1")
    q = classical_risk_neutral_q(params)
    return q, _price_ladder(params, periods), discount_factor(params.rate, periods)


def _lattice_expectation(
    params: MarketParams, payoff: Callable[[float], float], periods: int, binomial: bool
) -> float:
    """Discounted expectation of a terminal payoff under MB or BE weights."""
    q, ladder, discount = _setup(params, periods)
    return _normalized_sum(_lattice_terms(periods, q, binomial), 0, payoff, ladder) * discount


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

    Each Psi sums only the binomial terms above a floor, about ten standard
    deviations either side of the mode, so a call costs O(sqrt(N)) instead of
    two full O(N) walks. The q' tail's floor is 2^-64/(N+1); the q tail's is
    that divided by max(1, (1+r)^-N), as the discount multiplies that tail.
    By _lattice_terms' bound the q' tail then differs from
    complementary_binomial's full-lattice value by less than 2^-64 and the
    discounted q tail by less than 2^-64, so the price moves by less than
    2^-64 (S0 + K) for every r. The accuracy is absolute: a call worth less
    than that may price as 0.0. When every term lies above the floor, the
    price is bit for bit the complementary_binomial form.
    """
    q, ladder, discount = _setup(params, periods)
    # q' = 1 - (b-r)(1+a)/((b-a)(1+r)) <= 1, exactly 1 at a = -1, where the product can round above 1
    q_prime = min(1.0, q * (1.0 + params.up) / (1.0 + params.rate))
    tau = _cutoff(ladder, spec.strike)
    floor = 2.0**-64 / (periods + 1)
    closed = (
        params.stock_initial * _binomial_tail(tau, periods, q_prime, floor)
        - spec.strike * discount * _binomial_tail(tau, periods, q, floor / max(1.0, discount))
    )
    return PricingResult("mb", periods, max(0.0, closed), discount, q, q_prime, tau)


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
    q, ladder, discount = _setup(params, periods)
    tau = _cutoff(ladder, spec.strike)
    if tau > periods:  # no node pays, so the walk would sum nothing
        return PricingResult("be", periods, 0.0, discount, q)
    paid = _normalized_sum(_lattice_terms(periods, q, False), tau, lambda s: s - spec.strike, ladder)
    return PricingResult("be", periods, paid * discount, discount, q)


def convergence_sweep(
    params: MarketParams, spec: CallSpec, max_periods: int, model: Model
) -> list[tuple[int, float]]:
    """Prices for N = 1..max_periods with the per-period (down, up, rate) held fixed.

    No rescaling with N is performed, so this sweeps the fixed-parameter
    family rather than approaching a continuous-time limit. Before any pricing, one pass runs
    the routes' _setup at every N in turn, so the sweep raises on arbitrage, or else raises the
    OverflowError of the first N whose price ladder or discount leaves the float range.
    """
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    pricer = {"mb": mb_price, "be": be_price}.get(model)
    if pricer is None:
        raise ValueError(f"model '{model}': sweep requires mb or be")

    for n in range(1, max_periods + 1):
        _setup(params, n)
    return [(n, pricer(params, spec, n).price) for n in range(1, max_periods + 1)]
