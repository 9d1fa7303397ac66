"""Shared fixtures and randomized-input helpers for the test suite."""
from __future__ import annotations

import contextlib
import io
import types

import numpy as np
import pytest

from qbinomial import (
    BlochVector,
    DensityState,
    MarketParams,
    make_observable,
    risk_neutral_disk,
    sample_disk,
)
from qbinomial.cli import main

# Reference market used throughout: S0 = K = 100, a = -0.1, b = 0.2, r = 0.05.
REFERENCE = MarketParams(
    bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-0.1, up=0.2
)
REFERENCE_STRIKE = 100.0


def invoke(args) -> types.SimpleNamespace:
    """Run the command line `args` in this process, as the program "main".

    The result holds exit_code, stdout, stderr, output (stdout then stderr) and
    exception (what ended a run that did not exit 0). An unhandled exception
    exits 1. Line endings read as "\n": csv output ends its rows in "\r\n".
    """
    streams, exit_code, exception = (io.StringIO(), io.StringIO()), 0, None
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        try:
            main.main(list(args), "main")
        except SystemExit as exc:
            exit_code, exception = exc.code or 0, exc if exc.code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    stdout, stderr = (stream.getvalue().replace("\r\n", "\n") for stream in streams)
    return types.SimpleNamespace(exit_code=exit_code, stdout=stdout, stderr=stderr, output=stdout + stderr,
                                 exception=exception)


@pytest.fixture
def reference_params() -> MarketParams:
    return REFERENCE


def random_market(rng: np.random.Generator) -> MarketParams:
    """Arbitrage-free market with the rate kept 1% of the spread off each threshold.

    Parameters stay desk-scale (multi-period discount factors bounded by
    ~35x) so absolute 1e-10 agreement checks are meaningful; extreme
    returns such as a = -1 get dedicated unit tests instead.
    """
    down = rng.uniform(-0.3, 0.25)
    up = down + rng.uniform(0.05, 0.6)
    margin = 0.01 * (up - down)
    rate = rng.uniform(down + margin, up - margin)
    return MarketParams(
        bond_initial=rng.uniform(0.5, 10.0),
        stock_initial=rng.uniform(20.0, 250.0),
        rate=rate,
        down=down,
        up=up,
    )


def near_threshold_market(rng: np.random.Generator, gap: float) -> MarketParams:
    """A random market with its rate `gap` spreads inside the down or the up threshold."""
    params = random_market(rng)
    offset = gap * (params.up - params.down)
    rate = params.down + offset if rng.uniform() < 0.5 else params.up - offset
    return MarketParams(params.bond_initial, params.stock_initial, rate, params.down, params.up)


def random_strike(params: MarketParams, rng: np.random.Generator) -> float:
    return params.stock_initial * rng.uniform(0.4, 1.9)


def random_unit(rng: np.random.Generator) -> BlochVector:
    vec = rng.normal(size=3)
    return BlochVector(*(vec / np.linalg.norm(vec)))


def random_disk_state(
    params: MarketParams, direction: BlochVector, rng: np.random.Generator
) -> DensityState:
    obs = make_observable(params.down, params.up, direction)
    disk = risk_neutral_disk(params, obs)
    return sample_disk(disk, 1, int(rng.integers(2**31)))[0]
