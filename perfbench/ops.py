"""The benchmark's calls into qbinomial: one operation each.

An operation spec is plain data (lists of floats, ints and strings) so it
can be passed to a fresh interpreter on the command line. `prepare`
turns a spec into a zero-argument callable; the timed loop calls only
that. An operation builds the program's own input objects (MarketParams,
CallSpec) from plain floats, as a caller pricing a new market must, and
looks up qbinomial functions as module attributes at call time, so
tracing wrappers installed later are seen.

This module imports only the standard library at load time: the set-up
probe times `import qbinomial` in a fresh interpreter and then imports
this module, which must not load numpy or scipy ahead of it.
"""
from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
import traceback
from typing import Any, Callable

CLI_TIMEOUT_S = 120.0


def market_args(spec: dict) -> tuple[float, float, float, float, float]:
    """(s0, rate, down, up, strike) of a spec.

    Desk specs carry them directly. Lattice specs carry annual CRR inputs
    (s0, sigma, annual rate, maturity, strike) and are rescaled to the
    spec's period count: up = e^(sigma sqrt(dt)) - 1, down =
    e^(-sigma sqrt(dt)) - 1, rate = e^(r dt) - 1 with dt = T / N.
    """
    if "crr" in spec:
        s0, sigma, annual_rate, maturity, strike = spec["crr"]
        dt = maturity / spec["periods"]
        step = sigma * math.sqrt(dt)
        return s0, math.expm1(annual_rate * dt), math.expm1(-step), math.expm1(step), strike
    return tuple(spec["market"])


def prepare(spec: dict, cli_in_process: bool = False) -> Callable[[], Any]:
    """Zero-argument callable that performs the operation `spec` once."""
    kind = spec["kind"]
    if kind == "cli":
        if cli_in_process:
            return lambda: run_cli_in_process(spec["argv"])
        return lambda: run_cli_subprocess(spec["argv"])

    from qbinomial import market, pricing

    s0, rate, down, up, strike = market_args(spec)
    periods = spec["periods"]

    def params():
        return market.MarketParams(bond_initial=1.0, stock_initial=s0, rate=rate, down=down, up=up)

    if kind == "mb_call":
        return lambda: pricing.mb_price(params(), pricing.CallSpec(strike), periods)
    if kind == "be_call":
        return lambda: pricing.be_price(params(), pricing.CallSpec(strike), periods)
    put = lambda s: max(0.0, strike - s)  # noqa: E731 - the put payoff the program is handed
    if kind == "mb_put":
        return lambda: pricing.mb_payoff_price(params(), put, periods)
    if kind == "be_put":
        return lambda: pricing.be_payoff_price(params(), put, periods)
    raise ValueError(f"unknown operation kind {kind!r}")


def run_cli_subprocess(argv: list[str]) -> tuple[int, str, str]:
    """`python -m qbinomial <argv>` in a new process: (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-m", "qbinomial", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    """The same command through qbinomial.cli.main in this process.

    An exception the CLI does not handle ends the command as it would end
    the process: exit code 1 and the traceback on stderr.
    """
    from qbinomial import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(argv), prog_name="qbinomial", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an unhandled error is the command's failure
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()
