"""The quantum risk-neutral world of a binomial market.

The risk-neutral states of the two-level quantum model form an open disk
cut from the open unit Bloch ball by the plane <normal, v> = q - q̄
(risk-neutral up minus down probability); this module builds that disk,
tests membership, and samples it.
"""
from __future__ import annotations

import itertools
import math
import operator

from .bloch import TOL, BlochVector, DensityState, TwoLevelObservable, is_faithful, make_observable
from .market import MarketParams, _Record, _set, classical_risk_neutral_q

# Tolerance on the plane constraint for membership tests, in Bloch units
# (the state's component along the normal against the plane offset);
# matches the bloch construction tolerance so membership survives round-trips.
MEMBERSHIP_TOL = 1e-9

# Sampled radii are scaled by this factor so samples stay strictly
# inside the open disk.
_INTERIOR_MARGIN = 1.0 - 1e-12


class RiskNeutralDisk(_Record):
    """Plane section of the open unit Bloch ball holding all risk-neutral states.

    normal is the unit vector along the observable direction,
    plane_offset the signed distance of the cutting plane from the
    origin, and radius the disk radius; offset^2 + radius^2 = 1. The
    boundary is excluded (only faithful states are risk-neutral).
    """

    __slots__ = ("normal", "plane_offset", "radius")

    def __init__(self, normal: BlochVector, plane_offset: float, radius: float) -> None:
        if abs(normal.norm() - 1.0) > TOL:
            raise ValueError("normal must be a unit vector")
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        if abs(plane_offset**2 + radius**2 - 1.0) > 1e-12:
            raise ValueError("plane_offset^2 + radius^2 must equal 1")
        _set(self, "normal", normal)
        _set(self, "plane_offset", plane_offset)
        _set(self, "radius", radius)

    def center(self) -> BlochVector:
        """Bloch vector of the disk center, plane_offset * normal."""
        return self.normal.scaled(self.plane_offset)


def default_observable(params: MarketParams) -> TwoLevelObservable:
    """Return observable for (down, up) along the +z axis.

    Prices are invariant across directions, so the diagonal choice is
    the convenient default.
    """
    return make_observable(params.down, params.up, BlochVector(0.0, 0.0, 1.0))


def check_observable(params: MarketParams, obs: TwoLevelObservable) -> None:
    """Raise ValueError unless the observable takes the market's (down, up) values."""
    tol = TOL * (params.up - params.down)
    if abs(obs.low - params.down) > tol or abs(obs.high - params.up) > tol:
        raise ValueError("observable values must match the market's (down, up)")


def _plane(params: MarketParams) -> tuple[float, float]:
    """(offset, radius) of the disk on the market's observables; classical_risk_neutral_q refuses an empty disk."""
    q = classical_risk_neutral_q(params)
    q_bar = (params.up - params.rate) / (params.up - params.down)
    return q - q_bar, 2.0 * math.sqrt(q * q_bar)


def _faithful_part(plane_offset: float) -> float:
    """Squared radius of the faithful part (Bloch norm below 1 - TOL) of a disk at this offset; ValueError if none."""
    faithful = (1.0 - TOL) ** 2 - plane_offset**2
    if faithful <= 0.0:
        raise ValueError("no faithful state in the risk-neutral disk")
    return faithful


def risk_neutral_disk(params: MarketParams, obs: TwoLevelObservable) -> RiskNeutralDisk:
    """Geometry of the set of risk-neutral states for the given observable.

    The observable must carry the market's own return values; the result is
    the open disk where the plane <normal, v> = q - q̄ cuts the open unit ball,
    of radius 2·sqrt(q·q̄), for the risk-neutral up and down probabilities
    q = (rate-down)/(up-down) and q̄ = (up-rate)/(up-down). A foreign observable
    raises first; then an empty disk, which is an arbitrage market, raises
    classical_risk_neutral_q's diagnostic for the threshold crossed.
    """
    check_observable(params, obs)
    t, radius = _plane(params)
    return RiskNeutralDisk(normal=obs.unit_direction(), plane_offset=t, radius=radius)


def disk_contains(params: MarketParams, state: DensityState, obs: TwoLevelObservable) -> bool:
    """True iff the state is faithful and its Bloch component along the normal is q - q̄.

    On that plane a state prices the stock at the riskless rate; no disk is built.
    Raises what risk_neutral_disk raises (foreign observable, arbitrage market).
    """
    check_observable(params, obs)
    t, _ = _plane(params)
    return is_faithful(state) and abs(state.bloch.dot(obs.unit_direction()) - t) < MEMBERSHIP_TOL


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """The uniform() stream of numpy.random.default_rng(seed), bit for bit, without numpy.

    numpy's SeedSequence hashes the seed into four 32-bit pool words and
    expands them into eight more; those seed PCG64 (O'Neill 2014), a
    128-bit LCG whose state is emitted through the XSL-RR output function.
    """

    def __init__(self, seed: int) -> None:
        try:  # any integer type, numpy's included; numpy refuses a float seed with TypeError too
            seed = operator.index(seed)
        except TypeError:
            raise TypeError(f"seed must be an integer, not {seed!r}") from None
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
    for a fixed seed, which must be a nonnegative integer; outside that rim the
    samples are those numpy.random.default_rng(seed) would draw.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        _Pcg64(seed)  # refuses the seeds that a drawing call refuses
        return []
    faithful = _faithful_part(disk.plane_offset)
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
