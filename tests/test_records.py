"""The value types' contract: immutable records compared, hashed, printed and pickled by field.

Every value type takes its fields positionally or by keyword, equals only a
value of its own type with equal fields, refuses assignment and deletion,
survives pickle and copy, and prints as `Type(field=value, ...)` in field
order.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from qbinomial import (
    BlochVector,
    CallSpec,
    ClassicalModel,
    DensityState,
    MarketParams,
    PricingResult,
    RiskNeutralDisk,
    TwoLevelObservable,
    TwoPointPayoff,
)
from qbinomial.cli import RunConfig
from qbinomial.oracle import IdentityCheck, PathOutcome

MARKET = MarketParams(1.0, 100.0, 0.05, -0.1, 0.2)
MARKET_REPR = "MarketParams(bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-0.1, up=0.2)"
Z = BlochVector(0.0, 0.0, 1.0)

# (type, positional arguments, keyword arguments, repr)
CASES = [
    (BlochVector, (0.6, 0.0, -0.8), {"x": 0.6, "y": 0.0, "z": -0.8}, "BlochVector(x=0.6, y=0.0, z=-0.8)"),
    (
        DensityState,
        (BlochVector(0.0, 0.0, 0.5),),
        {"bloch": BlochVector(0.0, 0.0, 0.5)},
        "DensityState(bloch=BlochVector(x=0.0, y=0.0, z=0.5))",
    ),
    (
        TwoLevelObservable,
        (-1.0, 1.0, Z),
        {"low": -1.0, "high": 1.0, "direction": Z},
        "TwoLevelObservable(low=-1.0, high=1.0, direction=BlochVector(x=0.0, y=0.0, z=1.0))",
    ),
    (
        MarketParams,
        (1.0, 100.0, 0.05, -0.1, 0.2),
        {"bond_initial": 1.0, "stock_initial": 100.0, "rate": 0.05, "down": -0.1, "up": 0.2},
        MARKET_REPR,
    ),
    (
        ClassicalModel,
        (MARKET, 0.5),
        {"params": MARKET, "up_probability": 0.5},
        f"ClassicalModel(params={MARKET_REPR}, up_probability=0.5)",
    ),
    (
        RiskNeutralDisk,
        (Z, 0.6, 0.8),
        {"normal": Z, "plane_offset": 0.6, "radius": 0.8},
        "RiskNeutralDisk(normal=BlochVector(x=0.0, y=0.0, z=1.0), plane_offset=0.6, radius=0.8)",
    ),
    (TwoPointPayoff, (0.0, 20.0), {"at_down": 0.0, "at_up": 20.0}, "TwoPointPayoff(at_down=0.0, at_up=20.0)"),
    (CallSpec, (100.0,), {"strike": 100.0}, "CallSpec(strike=100.0)"),
    (
        PricingResult,
        ("mb", 2, 13.6, 0.9, 0.5),
        {"model": "mb", "periods": 2, "price": 13.6, "discounted_by": 0.9, "q": 0.5},
        "PricingResult(model='mb', periods=2, price=13.6, discounted_by=0.9, q=0.5, q_prime=None, cutoff_tau=None)",
    ),
    (
        PricingResult,
        ("mb", 2, 13.6, 0.9, 0.5, 0.6, 1),
        {"model": "mb", "periods": 2, "price": 13.6, "discounted_by": 0.9, "q": 0.5, "q_prime": 0.6, "cutoff_tau": 1},
        "PricingResult(model='mb', periods=2, price=13.6, discounted_by=0.9, q=0.5, q_prime=0.6, cutoff_tau=1)",
    ),
    (
        RunConfig,
        (MARKET, 100.0, 1, "mb", 0, 0, "table"),
        {"market": MARKET, "strike": 100.0, "periods": 1, "model": "mb", "seed": 0, "samples": 0,
         "output_format": "table"},
        f"RunConfig(market={MARKET_REPR}, strike=100.0, periods=1, model='mb', seed=0, samples=0,"
        " output_format='table')",
    ),
    (
        PathOutcome,
        (1, 110.0, 0.5),
        {"up_count": 1, "terminal_price": 110.0, "weight": 0.5},
        "PathOutcome(up_count=1, terminal_price=110.0, weight=0.5)",
    ),
    (
        IdentityCheck,
        ("crr closed form vs path enumeration", 1e-12),
        {"name": "crr closed form vs path enumeration", "deviation": 1e-12},
        "IdentityCheck(name='crr closed form vs path enumeration', deviation=1e-12, tolerance=1e-10)",
    ),
]


@pytest.mark.parametrize(
    "kind, args, kwargs, text", CASES, ids=[f"{case[0].__name__}-{len(case[1])}" for case in CASES]
)
def test_value_type_is_an_immutable_record(kind, args, kwargs, text):
    value, by_keyword = kind(*args), kind(**kwargs)
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert repr(value) == text

    # Only a value of the same type with equal fields is equal: not a plain
    # tuple of the fields, and not another type that holds the same fields.
    fields = tuple(getattr(value, name) for name in kind.__slots__)
    twin = type("Twin", (kind,), {})(*args)
    assert fields[: len(args)] == args
    assert value != fields and fields != value
    assert value != twin and twin != value
    assert not value != by_keyword

    first = kind.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in kind.__slots__) == fields

    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is kind and clone == value and hash(clone) == hash(value)


def test_every_value_type_is_covered():
    assert len({case[0] for case in CASES}) == 12
    assert BlochVector(1.0, 2.0, 3.0) != PathOutcome(1.0, 2.0, 3.0)
