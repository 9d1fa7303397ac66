"""Binomial market definition and its quantum risk-neutral world.

A single-period market is a bank account growing at rate r and a stock
whose return takes the two values down (a) and up (b). The risk-neutral
states of the two-level quantum model form an open disk cut from the
open unit Bloch ball by the plane <direction, v> = r - (a+b)/2; this
module builds that disk, tests membership, and samples it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bloch import (
    TOL,
    BlochVector,
    DensityState,
    TwoLevelObservable,
    expectation,
    is_faithful,
    make_observable,
)

# Tolerance on the plane constraint for membership tests; matches the
# bloch construction tolerance so membership survives round-trips.
MEMBERSHIP_TOL = 1e-9

# Sampled radii are scaled by this factor so samples stay strictly
# inside the open disk.
_INTERIOR_MARGIN = 1.0 - 1e-12


@dataclass(frozen=True)
class MarketParams:
    """One stock, one bond: B_n = B0 (1+r)^n, stock return in {down, up}.

    The ordering -1 <= down < up is structural; whether the market is
    arbitrage-free (down < rate < up) is a separate queryable predicate.
    """

    bond_initial: float
    stock_initial: float
    rate: float
    down: float
    up: float

    def __post_init__(self) -> None:
        if not self.bond_initial > 0:
            raise ValueError("bond_initial must be positive")
        if not self.stock_initial > 0:
            raise ValueError("stock_initial must be positive")
        if not self.rate > -1.0:
            raise ValueError("rate must exceed -1")
        if not self.down >= -1.0:
            raise ValueError("down must be >= -1")
        if not self.down < self.up:
            raise ValueError("down must be strictly below up")


@dataclass(frozen=True)
class ClassicalModel:
    """Bernoulli stock model: up move with subjective probability p.

    The degenerate certainties p = 0 and p = 1 are representable so the
    subjective price can be evaluated at its limits.
    """

    params: MarketParams
    up_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.up_probability <= 1.0:
            raise ValueError("up_probability must lie in [0, 1]")


@dataclass(frozen=True)
class RiskNeutralDisk:
    """Plane section of the open unit Bloch ball holding all risk-neutral states.

    normal is the unit vector along the observable direction,
    plane_offset the signed distance of the cutting plane from the
    origin, and radius the disk radius; offset^2 + radius^2 = 1. The
    boundary is excluded (only faithful states are risk-neutral).
    """

    normal: BlochVector
    plane_offset: float
    radius: float

    def __post_init__(self) -> None:
        if abs(self.normal.norm() - 1.0) > TOL:
            raise ValueError("normal must be a unit vector")
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        residual = self.plane_offset**2 + self.radius**2 - 1.0
        if abs(residual) > 1e-12:
            raise ValueError("plane_offset^2 + radius^2 must equal 1")

    def center(self) -> BlochVector:
        """Bloch vector of the disk center, plane_offset * normal."""
        return self.normal.scaled(self.plane_offset)


def is_arbitrage_free(params: MarketParams) -> bool:
    """True iff down < rate < up."""
    return params.down < params.rate < params.up


def bank_value(params: MarketParams, n: int) -> float:
    """Bank account value B0 (1 + rate)^n after n periods."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.bond_initial * (1.0 + params.rate) ** n


def classical_risk_neutral_q(params: MarketParams) -> float:
    """The unique classical risk-neutral up-probability (rate-down)/(up-down)."""
    if not is_arbitrage_free(params):
        raise ValueError("market admits arbitrage: no risk-neutral q in (0, 1)")
    return (params.rate - params.down) / (params.up - params.down)


def default_observable(params: MarketParams) -> TwoLevelObservable:
    """Return observable for (down, up) along the +z axis.

    Prices are invariant across directions, so the diagonal choice is
    the convenient default.
    """
    return make_observable(params.down, params.up, BlochVector(0.0, 0.0, 1.0))


def check_observable(params: MarketParams, obs: TwoLevelObservable) -> None:
    """Raise ValueError unless the observable takes the market's (down, up) values."""
    if abs(obs.low - params.down) > TOL or abs(obs.high - params.up) > TOL:
        raise ValueError("observable values must match the market's (down, up)")


def risk_neutral_disk(params: MarketParams, obs: TwoLevelObservable) -> RiskNeutralDisk:
    """Geometry of the set of risk-neutral states for the given observable.

    The observable must carry the market's own return values; the result
    is the open disk where the plane <direction, v> = rate - (down+up)/2
    cuts the open unit ball. Raises when the disk is empty, which happens
    exactly when the market admits arbitrage.
    """
    check_observable(params, obs)
    if not is_arbitrage_free(params):
        # exact threshold comparison on the raw parameters: the derived
        # plane offset can round a hair below 1 right at rate == up
        raise ValueError("empty risk-neutral disk: market admits arbitrage")
    half_spread = 0.5 * (params.up - params.down)
    t = (params.rate - 0.5 * (params.down + params.up)) / half_spread
    radius = math.sqrt(max(0.0, 1.0 - t * t))
    return RiskNeutralDisk(normal=obs.unit_direction(), plane_offset=t, radius=radius)


def disk_contains(
    disk: RiskNeutralDisk,
    state: DensityState,
    obs: TwoLevelObservable,
    rate: float,
) -> bool:
    """True iff the state is faithful and prices the stock at the riskless rate.

    Faithfulness plus the expectation constraint determine membership;
    the disk argument carries the same information geometrically.
    """
    return is_faithful(state) and abs(expectation(state, obs) - rate) < MEMBERSHIP_TOL


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """The uniform() stream of numpy.random.default_rng(seed), bit for bit, without numpy.

    numpy's SeedSequence hashes the seed into four 32-bit pool words and
    expands them into eight more; those seed PCG64 (O'Neill 2014), a
    128-bit LCG whose state is emitted through the XSL-RR output function.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("expected non-negative integer")
        entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        const, multiplier = 0x43B0D7E5, 0x931E8875

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * multiplier & _MASK32
            value = value * const & _MASK32
            return value ^ value >> 16

        pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
        extra = itertools.product(range(4, len(entropy)), range(4))  # seeds of 2^128 and up
        for src, dst in [*itertools.permutations(range(4), 2), *extra]:
            value = hashmix(pool[src] if src < 4 else entropy[src])
            mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
        const, multiplier = 0x8B51F9DD, 0x58F38DED  # generate_state's own hash constants
        w = [hashmix(pool[i % 4]) for i in range(8)]
        state, stream = (w[k] << 64 | w[k + 1] << 96 | w[k + 2] | w[k + 3] << 32 for k in (0, 4))
        self._inc = (stream << 1 | 1) & _MASK128
        self._state = ((self._inc + state) * _PCG64_MULTIPLIER + self._inc) & _MASK128

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        self._state = state = (self._state * _PCG64_MULTIPLIER + self._inc) & _MASK128
        word, rotation = (state >> 64 ^ state) & _MASK64, state >> 122
        word = (word >> rotation | word << (64 - rotation)) & _MASK64
        return low + (high - low) * ((word >> 11) * 2.0**-53)


def _in_plane_frame(normal: BlochVector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Deterministic orthonormal pair spanning the plane orthogonal to normal."""
    n = (normal.x, normal.y, normal.z)
    axis = min(range(3), key=lambda i: abs(n[i]))
    e1 = [(1.0 if i == axis else 0.0) - n[axis] * n[i] for i in range(3)]
    length = math.sqrt(sum(c * c for c in e1))
    e1 = [c / length for c in e1]
    e2 = (n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2], n[0] * e1[1] - n[1] * e1[0])
    return tuple(e1), e2


def sample_disk(disk: RiskNeutralDisk, count: int, seed: int) -> list[DensityState]:
    """Draw `count` faithful states uniformly from the open disk.

    Uniformity comes from the radial inverse CDF (radius * sqrt(U)) over
    in-plane polar coordinates, redrawn inside the thin rim is_faithful
    rejects; a disk with no faithful state raises ValueError. Deterministic
    for a fixed seed, which must be nonnegative; outside that rim the
    samples are those numpy.random.default_rng(seed) would draw.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    faithful = (1.0 - TOL) ** 2 - disk.plane_offset**2  # squared radius of the faithful part
    if faithful <= 0.0:
        raise ValueError("no faithful state in the risk-neutral disk")
    rng = _Pcg64(seed)
    e1, e2 = _in_plane_frame(disk.normal)
    center = disk.center()
    center_xyz = (center.x, center.y, center.z)
    states = []
    for _ in range(count):
        radial = disk.radius * math.sqrt(rng.uniform()) * _INTERIOR_MARGIN
        if radial * radial >= faithful:  # in the TOL-thin rim that is_faithful rejects
            radial = math.sqrt(faithful * rng.uniform()) * _INTERIOR_MARGIN
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cos, sin = math.cos(angle), math.sin(angle)
        point = (c + radial * (cos * a + sin * b) for c, a, b in zip(center_xyz, e1, e2))
        states.append(DensityState(BlochVector(*point)))
    return states
