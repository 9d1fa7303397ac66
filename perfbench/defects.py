"""Known defects of qbinomial, exercised once per run outside the timed loop.

The timed workloads hold only operations that qbinomial gets right, so
every run can demand that none fails. The defects found while the
benchmark was built (README.md, Findings) are not dropped with them:
each run performs this fixed list of operations after its timed loop,
checks them against the same references and with the same checks as the
workloads, and reports how many still fail and how. Fixing a defect
lowers `known_defects.failed_ratio`; nothing else depends on it.

The list is the same for every workload and seed, so its outcome is a
property of the code alone.
"""
from __future__ import annotations

from collections import Counter

import ops
import workloads

REFERENCE = [100.0, 0.05, -0.1, 0.2, 100.0]  # ROADMAP's reference market, K = S0
CRR = [100.0, 0.2, 0.05, 1.0, 100.0]  # S0, sigma, annual rate, T, K

# ROADMAP's baseline rows: mb_price raises ArithmeticError at N = 1000 and
# OverflowError from N = 1100; be_price returns NaN from N = 1100. The
# CRR-rescaled market is lattice_large_n's, past its N range.
PRICING = [
    {"kind": kind, **market, "periods": periods}
    for market, all_periods in (({"market": REFERENCE}, (1000, 1100)), ({"crr": CRR}, (1100, 10_000)))
    for periods in all_periods
    for kind in workloads.ROUTES
]

_PRICE_ARGS = ["--s0", "100", "--r", "0.05", "--a", "-0.1", "--b", "0.2", "--strike", "100"]
CLI = [
    # IdentityCheck.passed is a numpy.bool_, which json cannot serialise.
    ["verify", *_PRICE_ARGS, "--periods", "4", "--seed", "1", "--format", "json"],
    # The single-period state-independence identity compares prices of
    # order 10 at an absolute 1e-10 and fails on about one desk market in eight.
    ["verify", "--s0", "89.8071", "--r", "0.0088", "--a", "-0.0672", "--b", "0.1379", "--strike", "71.5322",
     "--periods", "4", "--seed", "1", "--format", "table"],
    # mb_price's self-check disagrees with its closed form at 1e-10 on a
    # market with q near 1; the sweep stops at the first such N.
    ["sweep", "--s0", "100", "--r", "0.05", "--a", "-0.2", "--b", "0.06", "--strike", "100",
     "--model", "mb", "--periods", "400", "--format", "csv"],
]


def run() -> tuple[int, Counter]:
    """(attempted, failure kinds) over the fixed list, in this process."""
    failures: Counter = Counter()
    cases = [(spec, ref, workloads.check_pricing) for spec, ref in zip(PRICING, workloads.pricing_references(PRICING))]
    cli_specs = [{"kind": "cli", "argv": argv} for argv in CLI]
    cases += [(spec, workloads.cli_reference(spec), workloads.check_cli) for spec in cli_specs]
    for spec, expected, check in cases:
        try:
            out = ops.prepare(spec, cli_in_process=True)()
        except Exception as exc:  # noqa: BLE001 - a raise is the defect being counted
            out = exc
        kind = check(spec, expected, out)
        if kind is not None:
            failures[kind] += 1
    return len(cases), failures
