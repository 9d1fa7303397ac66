"""Independent price references that the benchmark checks qbinomial against.

Nothing here imports qbinomial or copies its arithmetic. Maxwell-Boltzmann
(Cox-Ross-Rubinstein) prices come from binomial tails in scipy.stats.binom;
Bose-Einstein prices come from log-space weights normalised with
scipy.special.logsumexp, so they stay finite where a direct product of
q^n (1-q)^(N-n) underflows.

Every function takes a Market whose fields are arrays (or scalars) that
broadcast against `periods`, so one call prices a whole block of draws.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom

# An output x agrees with its reference y when
# |x - y| <= REL_TOL * max(S0, K, |y|).
REL_TOL = 1e-9

# Half a unit in the last printed place of the CLI's "%.6f" fields.
PRINTED_TOL = 0.5e-6


class Market:
    """One-period markets and call/put strikes, as float arrays."""

    __slots__ = ("s0", "rate", "down", "up", "strike")

    def __init__(self, s0, rate, down, up, strike):
        self.s0, self.rate, self.down, self.up, self.strike = (
            np.asarray(x, dtype=float) for x in (s0, rate, down, up, strike)
        )
        if not np.all((-1.0 < self.down) & (self.down < self.rate) & (self.rate < self.up)):
            raise ValueError("reference market must satisfy -1 < down < rate < up")
        if not np.all((self.s0 > 0.0) & (self.strike > 0.0)):
            raise ValueError("reference market needs positive S0 and strike")

    @property
    def q(self) -> np.ndarray:
        return (self.rate - self.down) / (self.up - self.down)

    @property
    def q_prime(self) -> np.ndarray:
        return self.q * (1.0 + self.up) / (1.0 + self.rate)

    def scale(self, value) -> np.ndarray:
        return np.maximum(np.maximum(self.s0, self.strike), np.abs(value))

    def log_terminal(self, periods, node) -> np.ndarray:
        """log S_N after `node` up-moves in `periods` periods."""
        return np.log(self.s0) + node * np.log1p(self.up) + (periods - node) * np.log1p(self.down)

    def cutoff(self, periods) -> np.ndarray:
        """Smallest up-move count whose terminal price exceeds the strike."""
        lu, ld = np.log1p(self.up), np.log1p(self.down)
        x = (np.log(self.strike / self.s0) - periods * ld) / (lu - ld)
        return np.clip(np.floor(x) + 1, 0, np.asarray(periods) + 1).astype(np.int64)

    def discount(self, periods) -> np.ndarray:
        return np.exp(-periods * np.log1p(self.rate))


def mb_call(m: Market, periods) -> np.ndarray:
    """S0 Psi(tau; N, q') - K (1+r)^-N Psi(tau; N, q) from binomial tails."""
    k = m.cutoff(periods) - 1
    return m.s0 * binom.sf(k, periods, m.q_prime) - m.strike * m.discount(periods) * binom.sf(k, periods, m.q)


def mb_put(m: Market, periods) -> np.ndarray:
    """K (1+r)^-N P(n < tau; q) - S0 P(n < tau; q'), the lower binomial tails."""
    k = m.cutoff(periods) - 1
    return m.strike * m.discount(periods) * binom.cdf(k, periods, m.q) - m.s0 * binom.cdf(k, periods, m.q_prime)


def _be(m: Market, periods, call: bool) -> np.ndarray:
    """Discounted sum of normalised geometric weights times the payoff.

    Draws with different N share one grid n = 0..max N; nodes above a
    draw's own N get weight zero (log weight -inf).
    """
    periods = np.asarray(periods)
    n = np.arange(int(periods.max()) + 1)
    column = lambda x: np.asarray(x)[..., None]  # noqa: E731
    big_n = column(periods)
    valid = n <= big_n
    q = column(m.q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_w = np.where(valid, n * np.log(q) + (big_n - n) * np.log1p(-q), -np.inf)
        log_w -= logsumexp(log_w, axis=-1, keepdims=True)
        log_k = column(np.log(m.strike))
        log_s = column(np.log(m.s0)) + n * column(np.log1p(m.up)) + (big_n - n) * column(np.log1p(m.down))
        if call:
            itm = valid & (log_s > log_k)
            log_payoff = log_s + np.log(-np.expm1(log_k - log_s))
        else:
            itm = valid & (log_s < log_k)
            log_payoff = log_k + np.log(-np.expm1(log_s - log_k))
        total = logsumexp(np.where(itm, log_w + log_payoff, -np.inf), axis=-1)
        return np.exp(total - periods * np.log1p(m.rate))


def be_call(m: Market, periods) -> np.ndarray:
    return _be(m, periods, call=True)


def be_put(m: Market, periods) -> np.ndarray:
    return _be(m, periods, call=False)


def disk_geometry(m: Market) -> tuple[float, float]:
    """(radius, plane_offset) of the risk-neutral disk along +z."""
    half_spread = 0.5 * (m.up - m.down)
    offset = float((m.rate - 0.5 * (m.down + m.up)) / half_spread)
    return math.sqrt(1.0 - offset * offset), offset


# The two-period reference market (S0 = K = 100, a = -0.1, b = 0.2,
# r = 0.05) has exact prices: MB 15/1.05^2 = 13.605442..., BE
# (0 + 8 + 44)/3/1.05^2 = 15.721844293...
REFERENCE_MARKET = Market(100.0, 0.05, -0.1, 0.2, 100.0)
ANCHORS = {"mb": 15 / 1.1025, "be": 52 / 3.3075}


def anchors_hold() -> bool:
    """True when this module reproduces the exact two-period prices."""
    return bool(
        abs(mb_call(REFERENCE_MARKET, 2) - ANCHORS["mb"]) < 1e-12
        and abs(be_call(REFERENCE_MARKET, 2) - ANCHORS["be"]) < 1e-12
    )


def failure_kind(value: object, reference: float, scale: float) -> str | None:
    """None when `value` is a finite float within REL_TOL of `reference`.

    Otherwise the kind of failure: the exception's class name for a
    raise, "nonfinite" for NaN or infinity, "mismatch" for a finite value
    outside the tolerance.
    """
    if isinstance(value, BaseException):
        return type(value).__name__
    if not math.isfinite(value):
        return "nonfinite"
    if abs(value - reference) > REL_TOL * max(scale, abs(reference)):
        return "mismatch"
    return None
