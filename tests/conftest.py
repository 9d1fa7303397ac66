"""Shared fixtures and randomized-input helpers for the test suite."""
from __future__ import annotations

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

# Reference market used throughout: S0 = K = 100, a = -0.1, b = 0.2, r = 0.05.
REFERENCE = MarketParams(
    bond_initial=1.0, stock_initial=100.0, rate=0.05, down=-0.1, up=0.2
)
REFERENCE_STRIKE = 100.0


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
