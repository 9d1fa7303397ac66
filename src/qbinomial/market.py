"""Binomial market definition and the value-record base of every qbinomial type.

A single-period market is a bank account growing at rate r and a stock
whose return takes the two values down (a) and up (b). Its quantum
risk-neutral world, the disk of risk-neutral states, is qbinomial.disk.
"""
from __future__ import annotations

# A record's __init__ checks its arguments, then sets each field once through _set.
_set = object.__setattr__


class _Record:
    """Immutable value whose fields are its __slots__; equality, hash, repr and pickle go field by field."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


def _as_dict(record: _Record) -> dict:
    """The record's fields by name in slot order; a field that is a record becomes a dict too."""
    return {name: _as_dict(v) if isinstance(v, _Record) else v for name, v in zip(record.__slots__, record._values())}


class MarketParams(_Record):
    """One stock, one bond: B_n = B0 (1+r)^n, stock return in {down, up}.

    The ordering -1 <= down < up is structural; whether the market is
    arbitrage-free (down < rate < up) is a separate queryable predicate.
    A NaN or infinite parameter (x - x is not 0) is refused first; then the
    first threshold violated raises the one-line diagnostic the CLI prints.
    """

    __slots__ = ("bond_initial", "stock_initial", "rate", "down", "up")

    def __init__(self, bond_initial: float, stock_initial: float, rate: float, down: float, up: float) -> None:
        if not (bond_initial - bond_initial == stock_initial - stock_initial == rate - rate
                == down - down == up - up == 0):
            raise ValueError("b0, s0, r, a or b is not finite: invalid market")
        if bond_initial <= 0:
            raise ValueError("b0 <= 0: invalid market")
        if stock_initial <= 0:
            raise ValueError("s0 <= 0: invalid market")
        if rate <= -1.0:
            raise ValueError("r <= -1: invalid market")
        if down < -1.0:
            raise ValueError("a < -1: invalid market")
        if down >= up:
            raise ValueError("a >= b: invalid market")
        _set(self, "bond_initial", bond_initial)
        _set(self, "stock_initial", stock_initial)
        _set(self, "rate", rate)
        _set(self, "down", down)
        _set(self, "up", up)


class ClassicalModel(_Record):
    """Bernoulli stock model: up move with subjective probability p.

    The degenerate certainties p = 0 and p = 1 are representable so the
    subjective price can be evaluated at its limits.
    """

    __slots__ = ("params", "up_probability")

    def __init__(self, params: MarketParams, up_probability: float) -> None:
        if not 0.0 <= up_probability <= 1.0:
            raise ValueError("up_probability must lie in [0, 1]")
        _set(self, "params", params)
        _set(self, "up_probability", up_probability)


def is_arbitrage_free(params: MarketParams) -> bool:
    """True iff down < rate < up."""
    return params.down < params.rate < params.up


def bank_value(params: MarketParams, n: int) -> float:
    """Bank account value B0 (1 + rate)^n after n periods."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.bond_initial * (1.0 + params.rate) ** n


def classical_risk_neutral_q(params: MarketParams) -> float:
    """The unique classical risk-neutral up-probability (rate-down)/(up-down); raises the side crossed otherwise."""
    if not is_arbitrage_free(params):
        raise ValueError("r >= b: arbitrage" if params.rate >= params.up else "r <= a: arbitrage")
    return (params.rate - params.down) / (params.up - params.down)


# What market defined or imported before its disk half moved to qbinomial.disk
# resolves there on first use, so earlier imports and pickles still load.
_FORWARDED = ("MEMBERSHIP_TOL", "RiskNeutralDisk", "check_observable", "default_observable", "disk_contains",
              "risk_neutral_disk", "sample_disk", "TOL", "BlochVector", "DensityState", "TwoLevelObservable",
              "is_faithful", "make_observable")


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import disk

        return getattr(disk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
