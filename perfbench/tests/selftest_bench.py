"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests/selftest_bench.py

The file name keeps it out of the repository's own pytest run; it is
collected when named on the command line.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import defects  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qbinomial import CallSpec, MarketParams, oracle, pricing  # noqa: E402

END_TO_END = ["good_ops_per_s", "p50_ms", "p90_ms", "p99_ms", "setup_s"]


def test_reference_reproduces_two_period_prices():
    m = ref.REFERENCE_MARKET
    assert round(ref.mb_call(m, 2), 6) == 13.605442
    assert round(ref.be_call(m, 2), 9) == 15.721844293
    assert ref.anchors_hold()


@pytest.mark.parametrize("periods", range(1, 13))
def test_reference_matches_path_enumeration(periods):
    params = MarketParams(1.0, 100.0, 0.05, -0.1, 0.2)
    for strike in (60.0, 100.0, 137.5):
        m = ref.Market(100.0, 0.05, -0.1, 0.2, strike)
        paths = oracle.classical_path_enumeration(params, CallSpec(strike), periods)
        assert abs(ref.mb_call(m, periods) - paths) <= ref.REL_TOL * m.scale(paths)


def test_reference_put_call_parity_mb():
    m = ref.Market(80.0, 0.02, -0.15, 0.25, 90.0)
    for periods in (1, 7, 64, 500):
        parity = ref.mb_call(m, periods) - ref.mb_put(m, periods)
        assert abs(parity - (m.s0 - m.strike * m.discount(periods))) < 1e-9


def test_block_references_match_one_at_a_time():
    block = next(workloads.desk_blocks(np.random.default_rng(3)))[:256]
    together = workloads.pricing_references(block)
    alone = [workloads.pricing_references([spec])[0] for spec in block]
    for (price, tau, scale), (price1, tau1, _) in zip(together, alone):
        assert tau == tau1
        assert abs(price - price1) <= 1e-12 * scale


def test_blocks_are_fresh_and_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = [spec for block in itertools.islice(workload.blocks(5), 3) for spec, _ in block]
        again = [spec for block in itertools.islice(workload.blocks(5), 3) for spec, _ in block]
        other = [spec for spec, _ in next(workload.blocks(6))]
        assert first == again
        assert other != first[: len(other)]
        keys = [json.dumps(spec, sort_keys=True) for spec in first]
        assert len(set(keys)) == len(keys)


def test_nan_result_counts_as_failed():
    spec = {"kind": "be_put", "market": [100.0, 0.05, -0.1, 0.2, 100.0], "periods": 2}
    expected = workloads.pricing_references([spec])[0]
    assert workloads.check_pricing(spec, expected, math.nan) == "nonfinite"
    assert workloads.check_pricing(spec, expected, expected[0] * (1 + 1e-6)) == "mismatch"
    assert workloads.check_pricing(spec, expected, OverflowError("x")) == "OverflowError"
    assert workloads.check_pricing(spec, expected, expected[0]) is None


def test_cli_failures_are_named_by_exit_code_and_cause():
    verify = {"kind": "cli", "argv": ["verify", "--s0", "1", "--format", "json"]}
    traceback = "Traceback (most recent call last):\n  ...\nTypeError: Object of type bool is not JSON serializable\n"
    assert workloads.check_cli(verify, {}, (1, "", traceback)) == "exit1:TypeError"
    identity = "identity failed: single-period state independence (deviation 2.0e-07 >= 1.0e-10)\n"
    kind = workloads.check_cli(verify, {}, (1, "", identity))
    assert kind == "exit1:identity:single-period state independence"
    price = {"kind": "cli", "argv": ["price", "--s0", "1", "--format", "csv"]}
    assert workloads.check_cli(price, {}, (2, "", "r >= b: arbitrage\n")) == "exit2"


def test_workload_ranges_stay_below_the_known_defects():
    lattice = workloads.WORKLOADS["lattice_large_n"]
    specs = [spec for block in itertools.islice(lattice.blocks(0), 4) for spec, _ in block]
    assert all(workloads.LATTICE_N_RANGE[0] <= s["periods"] <= workloads.LATTICE_N_RANGE[1] for s in specs)
    assert max(s["periods"] for s in defects.PRICING) > workloads.LATTICE_N_RANGE[1]
    commands = {spec["argv"][0] for spec, _ in next(workloads.WORKLOADS["cli_oneshot"].blocks(0))}
    assert commands == {"price", "disk", "sweep"}
    assert {argv[0] for argv in defects.CLI} == {"verify", "sweep"}


def test_local_slowdown_follows_a_step_and_ignores_one_outlier():
    import run

    kernel = [1.0] * 10 + [2.0] * 10
    kernel[3] = 50.0
    local = run.local_median(kernel, 9)
    assert len(local) == len(kernel)
    assert list(local[:5]) == [1.0] * 5
    assert list(local[-5:]) == [2.0] * 5


def test_wrapper_returns_value_and_reraises_same_exception():
    tracer = tracing.Tracer()
    error = ValueError("boom")

    def raises():
        raise error

    assert tracer.wrap("a", lambda x, y=1: x + y)(2, y=3) == 5
    with pytest.raises(ValueError) as caught:
        tracer.wrap("b", raises)()
    assert caught.value is error
    assert list(tracer.parent) == [-1, -1]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_install_then_uninstall_restores_every_binding():
    from qbinomial import cli, market

    before = (pricing.mb_price, oracle.sample_disk, cli.sample_disk, oracle.np, cli.price.callback)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oracle.sample_disk is cli.sample_disk is market.sample_disk
        assert oracle.sample_disk is not before[1]
    finally:
        tracer.uninstall()
    assert (pricing.mb_price, oracle.sample_disk, cli.sample_disk, oracle.np, cli.price.callback) == before
    assert "main" not in vars(cli.main)


def test_span_self_times_account_for_traced_wall_time():
    params = MarketParams(1.0, 100.0, 0.05, -0.1, 0.2)
    spec = CallSpec(100.0)
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        for periods in (1, 5, 30):
            pricing.mb_price(params, spec, periods)
            pricing.be_price(params, spec, periods)
        oracle.run_identity_checks(params, 100.0, 3, seed=1, draws=1)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    metrics = tracer.summarize(wall)
    layer_self = [metrics[f"{layer}.self_s"] for layer in tracing.LAYERS]
    assert all(0.0 <= s <= wall for s in layer_self)
    assert metrics["bench.self_s"] >= 0.0
    assert math.isclose(sum(layer_self) + metrics["bench.self_s"], wall, rel_tol=1e-9)
    # Outermost routes only: the oracle at N=3 adds mb_price, mb_payoff_price
    # and be_price; the self-check inside mb_price is not counted again.
    assert metrics["pricing.mb_price.calls"] == 4
    assert metrics["pricing.lattice_nodes"] == 2 * (2 + 6 + 31) + 3 * 4
    assert metrics["oracle.eigh.calls"] == 1
    assert metrics["oracle.kron.bytes_out"] > 0
    assert 0.0 < metrics["pricing.selfcheck_share"] < 1.0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOAD_NAMES
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    units = tracing.metric_units()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == units
