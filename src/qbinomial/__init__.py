"""Quantum two-level model of binomial markets.

Risk-neutral states of the one-period quantum binomial market form an
open disk in the Bloch ball; option prices are invariant across that
disk. Over N periods, distinguishable-particle (Maxwell-Boltzmann)
statistics reproduce the Cox-Ross-Rubinstein binomial formula, while
identical-particle (Bose-Einstein) statistics give an alternative
pricing rule on the symmetric subspace. Every closed form is verified
against exact dense tensor-product oracles.

The quantum layer (bloch, disk) and the oracle are resolved on first
access, so importing the package for lattice pricing loads only market
and pricing: not the quantum code, the dense layer or numpy.
"""
import importlib

from .market import ClassicalModel, MarketParams, bank_value, classical_risk_neutral_q, is_arbitrage_free
from .pricing import (
    CallSpec,
    PricingResult,
    TwoPointPayoff,
    be_payoff_price,
    be_price,
    be_weights,
    call_two_point,
    classical_expected_price,
    complementary_binomial,
    convergence_sweep,
    crr_cutoff_tau,
    mb_payoff_price,
    mb_price,
    single_period_price,
    single_period_trace_price,
)

# Name -> the submodule that defines it; a submodule's own name maps to itself.
_LAZY = {
    "bloch": "bloch",
    "disk": "disk",
    "oracle": "oracle",
    **dict.fromkeys(
        ("BlochVector", "DensityState", "TwoLevelObservable", "eigenbasis", "expectation", "is_faithful",
         "make_observable", "make_state"),
        "bloch",
    ),
    **dict.fromkeys(
        ("RiskNeutralDisk", "default_observable", "disk_contains", "risk_neutral_disk", "sample_disk"), "disk"
    ),
    **dict.fromkeys(
        ("PathOutcome", "build_product_state", "build_stock_operator", "build_symmetric_be_state",
         "classical_path_enumeration", "enumerate_path_outcomes", "mb_weight", "oracle_price_be",
         "oracle_price_mb", "run_identity_checks"),
        "oracle",
    ),
}

# The eager imports above plus the lazily resolved names.
__all__ = sorted(
    {name for name, value in vars().items() if getattr(value, "__module__", "").startswith(f"{__name__}.")}
    | {name for name, module in _LAZY.items() if name != module}
)


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return module if name == _LAZY[name] else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
