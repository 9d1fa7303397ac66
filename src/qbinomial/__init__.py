"""Quantum two-level model of binomial markets.

Risk-neutral states of the one-period quantum binomial market form an
open disk in the Bloch ball; option prices are invariant across that
disk. Over N periods, distinguishable-particle (Maxwell-Boltzmann)
statistics reproduce the Cox-Ross-Rubinstein binomial formula, while
identical-particle (Bose-Einstein) statistics give an alternative
pricing rule on the symmetric subspace. Every closed form is verified
against exact dense tensor-product oracles.

The oracle names are resolved on first access, so importing the package
for scalar pricing does not load the dense layer or numpy.
"""
import importlib

from .bloch import (
    BlochVector,
    DensityState,
    TwoLevelObservable,
    eigenbasis,
    expectation,
    is_faithful,
    make_observable,
    make_state,
)
from .market import (
    ClassicalModel,
    MarketParams,
    RiskNeutralDisk,
    bank_value,
    classical_risk_neutral_q,
    default_observable,
    disk_contains,
    is_arbitrage_free,
    risk_neutral_disk,
    sample_disk,
)
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

__all__ = [
    "BlochVector",
    "CallSpec",
    "ClassicalModel",
    "DensityState",
    "MarketParams",
    "PathOutcome",
    "PricingResult",
    "RiskNeutralDisk",
    "TwoLevelObservable",
    "TwoPointPayoff",
    "bank_value",
    "be_payoff_price",
    "be_price",
    "be_weights",
    "build_product_state",
    "build_stock_operator",
    "build_symmetric_be_state",
    "call_two_point",
    "classical_expected_price",
    "classical_path_enumeration",
    "classical_risk_neutral_q",
    "complementary_binomial",
    "convergence_sweep",
    "crr_cutoff_tau",
    "default_observable",
    "disk_contains",
    "eigenbasis",
    "enumerate_path_outcomes",
    "expectation",
    "is_arbitrage_free",
    "is_faithful",
    "make_observable",
    "make_state",
    "mb_payoff_price",
    "mb_price",
    "mb_weight",
    "oracle_price_be",
    "oracle_price_mb",
    "risk_neutral_disk",
    "run_identity_checks",
    "sample_disk",
    "single_period_price",
    "single_period_trace_price",
]

_ORACLE_NAMES = (
    "PathOutcome",
    "build_product_state",
    "build_stock_operator",
    "build_symmetric_be_state",
    "classical_path_enumeration",
    "enumerate_path_outcomes",
    "mb_weight",
    "oracle_price_be",
    "oracle_price_mb",
    "run_identity_checks",
)


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
