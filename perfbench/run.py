"""qbinomial benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload desk_small_n --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; qbinomial is imported from its
`src/` directory, never from an installed copy. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a run with span wrappers
installed (and an untraced run of the same length, for the overhead).
Earlier stdout lines record the environment, the sample counts, the
failure kinds, the known defects (defects.py) and the raw set-up times.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads: one per processor, at most, with one client.
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

import defects  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INTERPRETER_REPEATS = 5
SETUP_PAIRS = 7
# `import numpy` in a fresh interpreter on a quiet 2-vCPU host; see
# README.md, "Set-up time".
NUMPY_IMPORT_S = 0.1
FAILURES_SHOWN = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    import ctypes
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    libs = list((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        try:
            query = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
            query.restype = ctypes.c_int
            threads = query()
        except AttributeError:
            pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref_line = head.read_text().strip()
        ref_path = ROOT / ".git" / ref_line[5:] if ref_line.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.exists() else ref_line
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": commit,
        "seed": seed,
    }


def fresh_interpreter_s(code: list[str]) -> float:
    """Median wall time of `python3 <code>` over INTERPRETER_REPEATS runs."""
    times = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *code], check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_s(*args: str) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        check=True,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return float(done.stdout)


def setup_s(workload, spec: dict) -> float:
    """Import + one warm-up operation in a fresh interpreter, in reference units.

    Each set-up probe is paired with a probe that imports only numpy, run
    next to it (in alternating order); the result is the median ratio of
    the two, times NUMPY_IMPORT_S. A host that starts processes and
    imports modules slower slows both probes of a pair alike.
    """
    ratios, measured, numpy_s = [], [], []
    for i in range(SETUP_PAIRS):
        if i % 2:
            numpy_s.append(probe_s("numpy"))
            measured.append(probe_s(workload.entry, json.dumps(spec)))
        else:
            measured.append(probe_s(workload.entry, json.dumps(spec)))
            numpy_s.append(probe_s("numpy"))
        ratios.append(measured[-1] / numpy_s[-1])
    raw = {"setup_s": statistics.median(measured), "numpy_s": statistics.median(numpy_s)}
    print("# setup, measured", json.dumps(raw))
    return NUMPY_IMPORT_S * statistics.median(ratios)


def kernel_s() -> float:
    """Seconds taken by one pass of fixed pure-Python work (benchmark code)."""
    start = time.perf_counter()
    total, table, items = 0.0, {}, []
    for i in range(1500):
        x = math.sqrt(i + 1.0) * 1.000001
        total += x * x / (i + 1)
        table[i & 127] = total
        items.append(i * 7919 % 1013)
    items.sort()
    return time.perf_counter() - start


def process_kernel_s() -> float:
    """Seconds taken by `python3 -c "import numpy"` in a new process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


class Calibration(NamedTuple):
    """A fixed piece of work timed between operations, to divide out the host's speed."""

    kernel: Callable[[], float]
    reference_s: float  # the kernel's time on a quiet host
    interval_s: float  # at most one pass per interval
    window: int | None  # kernel passes whose median scales an operation; None: the whole run


# In-process operations run interpreted Python like kernel_s. Its
# reference is about its median time on a quiet 2-vCPU Xeon (2.1 GHz)
# virtual machine with Python 3.11.
PYTHON = Calibration(kernel_s, 0.0005, 0.1, 9)
# Operations that start `python -m qbinomial` spend most of their time
# starting an interpreter and importing numpy, which kernel_s does not
# follow. One pass of this kernel is as noisy as an operation, so the
# whole run's median scales them all (see README.md, Calibration).
PROCESS = Calibration(process_kernel_s, 0.12, 1.0, None)


class Loop:
    """Outcome of one closed-loop measurement over fresh blocks of inputs.

    Each block's operations are prepared and its references computed
    before the block is timed, and its outputs are checked after; only
    the operations and the loop around them count in wall_s. Between
    operations, at most every `calibration.interval_s`, the loop times
    the calibration kernel, outside wall_s. Each operation is scaled by
    the median kernel time of the `calibration.window` passes around it.
    """

    def __init__(self, workload, seed: int, seconds: float, cli_in_process: bool):
        calibration = PROCESS if workload.subprocess and not cli_in_process else PYTHON
        self.failures: Counter = Counter()
        self.failed_specs: list[tuple[dict, str]] = []
        self.wall_s = 0.0
        kernel: list[float] = []
        # Per attempted operation: latency, its share of wall time (from
        # the previous operation's end), its kernel pass, and success.
        latency, slot, segment, good = [], [], [], []
        clock = time.perf_counter
        next_calibration = clock()
        for block in workload.blocks(seed):
            operations = [ops.prepare(spec, cli_in_process) for spec, _ in block]
            outputs = []
            previous = clock()
            for operation in operations:
                if previous >= next_calibration:
                    kernel.append(calibration.kernel())
                    previous = clock()
                    next_calibration = previous + calibration.interval_s
                t0 = clock()
                try:
                    out = operation()
                except Exception as exc:  # noqa: BLE001 - a raise is a counted failure
                    out = exc
                t1 = clock()
                outputs.append(out)
                latency.append(t1 - t0)
                slot.append(t1 - previous)
                segment.append(len(kernel) - 1)
                self.wall_s += t1 - previous
                previous = t1
                if self.wall_s >= seconds:
                    break
            for (spec, expected), out in zip(block, outputs):
                kind = workload.check(spec, expected, out)
                good.append(kind is None)
                if kind is None:
                    continue
                self.failures[kind] += 1
                self.failed_specs.append((spec, kind))
            if self.wall_s >= seconds:
                break
        self.attempted = len(good)
        self.slowdown = statistics.median(kernel) / calibration.reference_s
        if calibration.window is None:
            local = np.full(len(segment), self.slowdown)
        else:
            local = local_median(kernel, calibration.window)[segment] / calibration.reference_s
        good_ = np.array(good)
        self.latencies = np.array(latency)[good_]
        self.scaled_latencies = self.latencies / local[good_]
        self.scaled_wall_s = float(np.sum(np.array(slot) / local))

    @property
    def good(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.good

    def good_ops_per_s(self) -> float:
        """Throughput scaled to a host on which the kernel takes its reference time."""
        return self.good / self.scaled_wall_s


def local_median(kernel: list[float], window: int) -> np.ndarray:
    """Per kernel pass: the median of the `window` passes around it."""
    half = window // 2
    padded = np.pad(np.array(kernel), half, mode="edge")
    return np.median(sliding_window_view(padded, window), axis=1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qbinomial" / "__init__.py").is_file():
        fail(f"no qbinomial sources under {SRC}; run from the root of a qbinomial checkout")
    import qbinomial
    import qbinomial.cli  # noqa: F401 - compiles the CLI's bytecode before any timing

    if Path(qbinomial.__file__).resolve().parent != (SRC / "qbinomial").resolve():
        fail(f"imported qbinomial from {qbinomial.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    print("# environment", json.dumps(environment(args.seed)))

    warmup = workload.warmup([spec for spec, _ in next(workload.blocks(args.seed, stream=1))])
    try:
        ops.prepare(warmup, cli_in_process=bool(args.trace))()
    except Exception:  # noqa: BLE001 - a failing warm-up is counted in the loop, not here
        pass

    if args.trace:
        metrics, loops = traced_metrics(workload, warmup, args)
    else:
        metrics, loops = end_to_end_metrics(workload, warmup, args)

    failures = sum((loop.failures for loop in loops), Counter())
    failed_specs = [f for loop in loops for f in loop.failed_specs]
    print("# samples", json.dumps([{"attempted": l.attempted, "good": l.good, "wall_s": l.wall_s} for l in loops]))
    print("# failures", json.dumps(dict(failures)))
    for spec, kind in failed_specs[:FAILURES_SHOWN]:
        print("# failure", kind, json.dumps(spec))
    # Every attempted operation was checked, and the workloads hold only
    # inputs that qbinomial prices correctly today: any failure, or a
    # reference that misses its exact anchors, makes "correct" false.
    result = {
        "correct": reference.anchors_hold() and not failed_specs,
        "attempted": loops[-1].attempted,
        "failed": loops[-1].failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def end_to_end_metrics(workload, warmup: dict, args) -> tuple[dict, list[Loop]]:
    setup = setup_s(workload, warmup)
    loop = Loop(workload, args.seed, args.seconds, cli_in_process=False)
    known_defects()
    if loop.good == 0:
        fail("no operation succeeded; latency metrics are undefined")
    p50, p90, p99 = (float(p) for p in np.percentile(loop.scaled_latencies * 1e3, [50, 90, 99]))
    raw = np.percentile(loop.latencies * 1e3, [50, 90, 99]).tolist()
    unscaled = {"good_ops_per_s": loop.good / loop.wall_s, "p50_ms": raw[0], "p90_ms": raw[1], "p99_ms": raw[2]}
    print("# unscaled", json.dumps(dict(unscaled, slowdown=loop.slowdown)))
    return {
        "good_ops_per_s": (loop.good_ops_per_s(), "1/s"),
        "p50_ms": (p50, "ms"),
        "p90_ms": (p90, "ms"),
        "p99_ms": (p99, "ms"),
        "setup_s": (setup, "s"),
    }, [loop]


def known_defects() -> float:
    """Run the fixed known-defect list (defects.py); print its failures, return their share."""
    attempted, failures = defects.run()
    print("# known defects", json.dumps({"attempted": attempted, "failures": dict(failures)}))
    return sum(failures.values()) / attempted


def traced_metrics(workload, warmup: dict, args) -> tuple[dict, list[Loop]]:
    untraced = Loop(workload, args.seed, args.seconds, cli_in_process=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = Loop(workload, args.seed, args.seconds, cli_in_process=True)
        # The known-defect list runs traced too: it is the only caller of
        # the oracle (through `verify`), so its spans measure that layer.
        start = time.perf_counter()
        defects_failed_ratio = known_defects()
        defects_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))

    values = tracer.summarize(loop.wall_s + defects_s)
    interpreter = fresh_interpreter_s(["-c", "pass"])
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = fresh_interpreter_s(["-c", "import qbinomial.cli"]) - interpreter
    values["trace_overhead_ratio"] = loop.good_ops_per_s() / untraced.good_ops_per_s()
    values["known_defects.failed_ratio"] = defects_failed_ratio
    units = tracing.metric_units()
    return {name: (values[name], unit) for name, (unit, _) in units.items()}, [untraced, loop]


if __name__ == "__main__":
    main()
