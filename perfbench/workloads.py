"""Workloads: operation specs drawn from a seed, references, and checks.

Every workload is a closed loop with one client. Its inputs come only
from the seed; the program sees only the specs built here. Specs are
drawn in blocks, fresh for every block, so no input repeats within a run
and a cache keyed on the inputs would find nothing to reuse. Each
block's references are computed before the block is timed. No draw is
dropped or redrawn because qbinomial fails on it.

Draws are stratified where cost depends strongly on one input (the
period count N): each block holds the same number of draws per stratum,
in a random order, so any run covers the same mix and its figures are
steady across seeds.

The workloads stay inside the ranges where qbinomial prices correctly
today, so any failed operation makes a run's `correct` false. The known
defects outside those ranges are exercised by defects.py instead (see
README.md, Findings).
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

import ops
import reference as ref

ROUTES = ("mb_call", "be_call", "mb_put", "be_put")
REFERENCES = {"mb_call": ref.mb_call, "be_call": ref.be_call, "mb_put": ref.mb_put, "be_put": ref.be_put}
CLI_FORMATS = ("table", "csv", "json")
VERIFY_IDENTITIES = 7
DESK_PASSES = 16  # passes over N = 1..64 per desk block
# The lattice routes fail from N ~ 1018 on CRR-rescaled markets (README.md,
# Findings); the range stops short of that with a margin.
LATTICE_N_RANGE = (200, 800)
LATTICE_STRATA = 32
SWEEP_PERIODS = 400
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def desk_markets(rng: np.random.Generator, size: int) -> np.ndarray:
    """Rows [s0, rate, down, up, strike] with the test suite's desk-scale ranges.

    Mirrors tests/conftest.py (random_market, random_strike): down in
    [-0.3, 0.25], a spread of 0.05 to 0.6, the rate kept 1% of the spread
    off each no-arbitrage threshold, S0 in [20, 250], K/S0 in [0.4, 1.9].
    """
    down = rng.uniform(-0.3, 0.25, size)
    up = down + rng.uniform(0.05, 0.6, size)
    margin = 0.01 * (up - down)
    rate = rng.uniform(down + margin, up - margin)
    s0 = rng.uniform(20.0, 250.0, size)
    return np.column_stack([s0, rate, down, up, s0 * rng.uniform(0.4, 1.9, size)])


def crr_inputs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Rows [s0, sigma, annual rate, maturity, strike] at desk ranges."""
    s0 = rng.uniform(50.0, 150.0, size)
    return np.column_stack(
        [
            s0,
            rng.uniform(0.1, 0.5, size),
            rng.uniform(0.0, 0.08, size),
            rng.uniform(0.25, 2.0, size),
            s0 * rng.uniform(0.8, 1.2, size),
        ]
    )


# ---------------------------------------------------------------- pricing


def pricing_references(specs: list[dict]) -> list[tuple[float, int, float]]:
    """(price, cutoff tau, tolerance scale) per spec, one vectorised pass per route."""
    kinds = np.array([s["kind"] for s in specs])
    markets = np.array([ops.market_args(s) for s in specs])
    periods = np.array([s["periods"] for s in specs])
    price, tau = np.empty(len(specs)), np.empty(len(specs), dtype=np.int64)
    for kind, price_of in REFERENCES.items():
        mask = kinds == kind
        if mask.any():
            m = ref.Market(*markets[mask].T)
            price[mask] = price_of(m, periods[mask])
            tau[mask] = m.cutoff(periods[mask])
    if not np.all(np.isfinite(price)):
        raise ArithmeticError("reference price is not finite")
    scale = np.maximum(np.maximum(markets[:, 0], markets[:, 4]), np.abs(price))
    return list(zip(price.tolist(), tau.tolist(), scale.tolist()))


def _tau_agrees(m: ref.Market, periods: int, tau: int, expected: int) -> bool:
    """Cutoffs agree, or differ only across a node priced at the strike to 1e-9."""
    if tau == expected:
        return True
    node = min(tau, expected)
    if abs(tau - expected) != 1 or not 0 <= node <= periods:
        return False
    return abs(float(m.log_terminal(periods, node)) - math.log(float(m.strike))) < 1e-9


def check_pricing(spec: dict, expected: tuple[float, int, float], out: Any) -> str | None:
    price, tau, scale = expected
    if isinstance(out, BaseException):
        return type(out).__name__
    value = out if spec["kind"].endswith("_put") else out.price
    kind = ref.failure_kind(value, price, scale)
    if kind is None and spec["kind"] == "mb_call" and out.cutoff_tau != tau:
        m = ref.Market(*ops.market_args(spec))
        if not _tau_agrees(m, spec["periods"], out.cutoff_tau, tau):
            return "mismatch"
    return kind


# -------------------------------------------------------------------- cli


def cli_argv(command: str, fmt: str, market: list[float], rng: np.random.Generator) -> list[str]:
    """Arguments of one command on `market` = [s0, rate, down, up, strike]."""
    s0, rate, down, up, strike = (repr(float(x)) for x in market)
    argv = [command, "--s0", s0, "--r", rate, "--a", down, "--b", up, "--format", fmt]
    seed = str(int(rng.integers(2**31)))
    if command == "disk":
        return argv + ["--samples", "4", "--seed", seed]
    if command == "sweep":
        return argv + ["--model", "mb", "--strike", strike, "--periods", str(SWEEP_PERIODS)]
    return argv + ["--strike", strike, "--periods", str(int(rng.integers(1, 65)))]


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def cli_reference(spec: dict) -> dict:
    argv = spec["argv"]
    market = [float(_option(argv, f)) for f in ("--s0", "--r", "--a", "--b")]
    # disk takes no strike; any positive one leaves its reference unchanged.
    strike = float(_option(argv, "--strike")) if "--strike" in argv else 1.0
    m = ref.Market(*market, strike=strike)
    command = argv[0]
    if command == "price":
        periods = int(_option(argv, "--periods"))
        model = _option(argv, "--model")
        price = float(ref.mb_call(m, periods) if model == "mb" else ref.be_call(m, periods))
        return {"market": m, "model": model, "periods": periods, "price": price, "tau": int(m.cutoff(periods))}
    if command == "disk":
        radius, offset = ref.disk_geometry(m)
        return {"radius": radius, "offset": offset, "samples": int(_option(argv, "--samples"))}
    if command == "sweep":
        return {"market": m, "series": ref.mb_call(m, np.arange(1, SWEEP_PERIODS + 1)).tolist()}
    return {}


def _close(value: float, expected: float, scale: float, printed: bool) -> bool:
    slack = ref.REL_TOL * max(scale, abs(expected)) + (ref.PRINTED_TOL if printed else 0.0)
    return math.isfinite(value) and abs(value - expected) <= slack


def _table(lines: list[str]) -> dict[str, str]:
    return dict(line.split(None, 1) for line in lines)


def _check_price(fmt: str, text: str, expected: dict) -> bool:
    if fmt == "json":
        fields = json.loads(text)
    elif fmt == "csv":
        fields = next(csv.DictReader(io.StringIO(text)))
    else:
        fields = _table(text.splitlines())
    m, printed = expected["market"], fmt != "json"
    price = expected["price"]
    ok = (
        fields["model"] == expected["model"]
        and int(fields["periods"]) == expected["periods"]
        and _close(float(fields["price"]), price, float(m.scale(price)), printed)
        and _close(float(fields["q"]), float(m.q), 1.0, printed)
    )
    if ok and expected["model"] == "mb":
        ok = _close(float(fields["q_prime"]), float(m.q_prime), 1.0, printed) and _tau_agrees(
            m, expected["periods"], int(fields["cutoff_tau"]), expected["tau"]
        )
    return ok


def _check_disk(fmt: str, text: str, expected: dict) -> bool:
    if fmt == "json":
        data = json.loads(text)
        geometry = {"radius": data["radius"], "plane_offset": data["plane_offset"]}
        geometry.update({f"normal_{k}": v for k, v in data["normal"].items()})
        samples = [(s["x"], s["y"], s["z"]) for s in data["samples"]]
    else:
        lines = text.splitlines()
        if fmt == "csv":
            geometry, rest = next(csv.DictReader(lines[:2])), lines[2:]
        else:
            geometry, rest = _table(lines[:5]), lines[5:]
        samples = [tuple(map(float, row)) for row in list(csv.reader(rest))[1:]]
    printed = fmt != "json"
    radius, offset = expected["radius"], expected["offset"]
    normal = [float(geometry[f"normal_{k}"]) for k in "xyz"]
    ok = (
        _close(float(geometry["radius"]), radius, 1.0, printed)
        and _close(float(geometry["plane_offset"]), offset, 1.0, printed)
        and all(_close(a, b, 1.0, printed) for a, b in zip(normal, (0.0, 0.0, 1.0)))
        and len(samples) == expected["samples"]
    )
    # Each sample lies on the disk: in the plane z = offset, within the radius.
    slack = ref.PRINTED_TOL if printed else 1e-9
    return ok and all(
        abs(z - offset) <= slack and math.hypot(x, y) <= radius + 2 * slack for x, y, z in samples
    )


def _check_verify_output(fmt: str, text: str) -> bool:
    if fmt == "json":
        data = json.loads(text)
        return data["passed"] is True and len(data["checks"]) == VERIFY_IDENTITIES
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return len(rows) == VERIFY_IDENTITIES and all(r["status"] == "pass" for r in rows)
    lines = text.splitlines()
    return len(lines) == VERIFY_IDENTITIES and all(line.rstrip().endswith("pass") for line in lines)


def _check_sweep(fmt: str, text: str, expected: dict) -> bool:
    if fmt == "json":
        rows = [(r["periods"], r["model"], r["price"]) for r in json.loads(text)]
    else:
        rows = [(int(r[0]), r[1], float(r[2])) for r in list(csv.reader(io.StringIO(text)))[1:]]
    m, series, printed = expected["market"], expected["series"], fmt != "json"
    return len(rows) == SWEEP_PERIODS and all(
        n == i + 1 and model == "mb" and _close(price, series[i], float(m.scale(series[i])), printed)
        for i, (n, model, price) in enumerate(rows)
    )


_IDENTITY_FAILED = re.compile(r"identity failed: (.+) \(deviation")
_EXCEPTION_LINE = re.compile(r"([A-Za-z_][\w.]*(?:Error|Exception)): ")


def _exit_kind(code: int, stderr: str) -> str:
    """`exit<code>`, plus the failed identity or the exception's class from stderr."""
    for line in reversed(stderr.splitlines()):
        if found := _IDENTITY_FAILED.match(line):
            return f"exit{code}:identity:{found.group(1)}"
        if found := _EXCEPTION_LINE.match(line):
            return f"exit{code}:{found.group(1)}"
    return f"exit{code}"


def check_cli(spec: dict, expected: dict, out: Any) -> str | None:
    if isinstance(out, BaseException):
        return type(out).__name__
    code, text, stderr = out
    if code != 0:
        return _exit_kind(code, stderr)
    argv = spec["argv"]
    command, fmt = argv[0], _option(argv, "--format")
    try:
        if command == "price":
            ok = _check_price(fmt, text, expected)
        elif command == "disk":
            ok = _check_disk(fmt, text, expected)
        elif command == "verify":
            ok = _check_verify_output(fmt, text)
        else:
            ok = _check_sweep(fmt, text, expected)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration):
        return "malformed"
    return None if ok else "mismatch"


# ------------------------------------------------------------- workloads


def desk_blocks(rng: np.random.Generator) -> Iterator[list[dict]]:
    """Blocks of DESK_PASSES passes over N = 1..64, each in a random order."""
    while True:
        periods = np.concatenate([rng.permutation(64) + 1 for _ in range(DESK_PASSES)])
        markets = desk_markets(rng, len(periods)).tolist()
        yield [
            {"kind": ROUTES[k % 4], "market": market, "periods": int(n)}
            for k, (market, n) in enumerate(zip(markets, periods))
        ]


def lattice_blocks(rng: np.random.Generator) -> Iterator[list[dict]]:
    """Blocks of one N per log-uniform stratum of LATTICE_N_RANGE, in a random order.

    Within a stratum, N steps through a golden-ratio sequence from a
    random start rather than being drawn afresh, so every run covers each
    stratum evenly and the slowest operations, which set p99_ms, are
    the same share of every run. The route rotates over the strata from
    block to block, so each route meets every N range.
    """
    lo, hi = LATTICE_N_RANGE
    start = rng.uniform(size=LATTICE_STRATA)
    for index in itertools.count():
        strata = rng.permutation(LATTICE_STRATA)
        u = (strata + (start[strata] + index * GOLDEN) % 1.0) / LATTICE_STRATA
        periods = np.clip(np.round(lo * (hi / lo) ** u), lo, hi).astype(int)
        yield [
            {"kind": ROUTES[(int(s) + index) % 4], "crr": crr, "periods": int(n)}
            for s, n, crr in zip(strata, periods, crr_inputs(rng, LATTICE_STRATA).tolist())
        ]


def sweep_market(rng: np.random.Generator) -> list[float]:
    """A CRR market rescaled to SWEEP_PERIODS steps: the sweep prices its first 1..N steps.

    mb_price's self-check fails on some desk markets with q near 1 before
    N = 400 (README.md, Findings); on CRR-rescaled ones, q is near 1/2.
    """
    crr = crr_inputs(rng, 1)[0].tolist()
    return list(ops.market_args({"crr": crr, "periods": SWEEP_PERIODS}))


def cli_blocks(rng: np.random.Generator) -> Iterator[list[dict]]:
    """Blocks of the 12-command mix in a random order; sweeps are a quarter."""
    mix = [("price", f) for f in CLI_FORMATS] * 2
    mix += [("disk", f) for f in CLI_FORMATS] + [("sweep", f) for f in CLI_FORMATS]
    while True:
        specs = []
        for i in rng.permutation(len(mix)):
            command, fmt = mix[i]
            market = sweep_market(rng) if command == "sweep" else desk_markets(rng, 1)[0].tolist()
            argv = cli_argv(command, fmt, market, rng)
            if command == "price":
                argv += ["--model", "mb" if i < len(CLI_FORMATS) else "be"]
            specs.append({"kind": "cli", "argv": argv})
        yield specs


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # module a user imports to run it
    specs: Callable[[np.random.Generator], Iterator[list[dict]]]  # blocks of operation specs
    references: Callable[[list[dict]], list]  # one per spec, computed before timing
    check: Callable[[dict, Any, Any], str | None]  # failure kind, or None
    warmup: Callable[[list[dict]], dict]  # the set-up operation, from the first block
    subprocess: bool = False  # operations start `python -m qbinomial`

    def blocks(self, seed: int, stream: int = 0) -> Iterator[list[tuple[dict, Any]]]:
        """Fresh blocks of (spec, reference), the same sequence for the same seed.

        Stream 0 feeds the timed loop; stream 1 gives the set-up draw, so
        the warm-up never prices an input that the loop prices again.
        """
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name), stream])
        for specs in self.specs(rng):
            yield list(zip(specs, self.references(specs)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_small_n",
            "qbinomial",
            desk_blocks,
            pricing_references,
            check_pricing,
            lambda specs: specs[0],
        ),
        Workload(
            "lattice_large_n",
            "qbinomial",
            lattice_blocks,
            pricing_references,
            check_pricing,
            # N fixed at the log-midpoint of the range, so set-up does not
            # depend on which N the seed drew first.
            lambda specs: dict(specs[0], periods=400),
        ),
        Workload(
            "cli_oneshot",
            "qbinomial.cli",
            cli_blocks,
            lambda specs: [cli_reference(s) for s in specs],
            check_cli,
            lambda specs: next(s for s in specs if s["argv"][0] == "price"),
            subprocess=True,
        ),
    )
}
WORKLOAD_NAMES = list(WORKLOADS)
