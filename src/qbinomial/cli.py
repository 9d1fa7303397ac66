"""Command-line front end: pricing, disk geometry, verification, sweeps.

Configuration precedence is command-line flags over config-file values
over built-in defaults. Exit codes: 0 success, 1 verification failure,
2 invalid input. Diagnostics go to stderr; results go to stdout as a
text table, CSV, or JSON.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass
from typing import Any

import click

from . import pricing
from .market import (
    MarketParams,
    classical_risk_neutral_q,
    default_observable,
    disk_contains,
    risk_neutral_disk,
    sample_disk,
)
from .pricing import MODELS, CallSpec

OUTPUT_FORMATS = ("table", "csv", "json")

_MARKET_KEYS = ("bond_initial", "stock_initial", "rate", "down", "up")
_TOP_KEYS = ("market", "strike", "periods", "model", "seed", "samples", "output_format")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for one CLI invocation."""

    market: MarketParams
    strike: float
    periods: int
    model: str
    seed: int
    samples: int
    output_format: str


class CliInputError(Exception):
    """Invalid input; the message is the one-line diagnostic (exit 2)."""


def _default_config_dict() -> dict[str, Any]:
    # Reference parameters: S0 = K = 100, a = -0.1, b = 0.2, r = 0.05.
    return {
        "market": {
            "bond_initial": 1.0,
            "stock_initial": 100.0,
            "rate": 0.05,
            "down": -0.1,
            "up": 0.2,
        },
        "strike": 100.0,
        "periods": 1,
        "model": "mb",
        "seed": 0,
        "samples": 0,
        "output_format": "table",
    }


def config_to_dict(config: RunConfig) -> dict[str, Any]:
    data = dataclasses.asdict(config)
    data["market"] = dataclasses.asdict(config.market)
    return data


def _overlay_file(data: dict[str, Any], path: str) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliInputError("config must be a JSON object")
    for key, value in loaded.items():
        if key == "market":
            if not isinstance(value, dict):
                raise CliInputError("config key 'market' must be an object")
            for mkey, mvalue in value.items():
                if mkey not in _MARKET_KEYS:
                    raise CliInputError(f"unknown config key: market.{mkey}")
                data["market"][mkey] = mvalue
        elif key in _TOP_KEYS:
            data[key] = value
        else:
            raise CliInputError(f"unknown config key: {key}")


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Validate a resolved config dict, naming the violated threshold on failure."""
    m = data["market"]
    if not m["bond_initial"] > 0:
        raise CliInputError("b0 <= 0: invalid market")
    if not m["stock_initial"] > 0:
        raise CliInputError("s0 <= 0: invalid market")
    if not m["rate"] > -1:
        raise CliInputError("r <= -1: invalid market")
    if m["down"] < -1:
        raise CliInputError("a < -1: invalid market")
    if not m["down"] < m["up"]:
        raise CliInputError("a >= b: invalid market")
    if not data["strike"] > 0:
        raise CliInputError("strike <= 0: invalid option")
    if int(data["periods"]) != data["periods"] or data["periods"] < 1:
        raise CliInputError("periods < 1: invalid run")
    if int(data["samples"]) != data["samples"] or data["samples"] < 0:
        raise CliInputError("samples < 0: invalid run")
    if data["model"] not in MODELS:
        raise CliInputError(f"unknown model: {data['model']}")
    if data["output_format"] not in OUTPUT_FORMATS:
        raise CliInputError(f"unknown output format: {data['output_format']}")
    market = MarketParams(
        bond_initial=float(m["bond_initial"]),
        stock_initial=float(m["stock_initial"]),
        rate=float(m["rate"]),
        down=float(m["down"]),
        up=float(m["up"]),
    )
    return RunConfig(
        market=market,
        strike=float(data["strike"]),
        periods=int(data["periods"]),
        model=str(data["model"]),
        seed=int(data["seed"]),
        samples=int(data["samples"]),
        output_format=str(data["output_format"]),
    )


def _resolve_config(config_path: str | None, **flags: Any) -> RunConfig:
    data = _default_config_dict()
    if config_path is not None:
        _overlay_file(data, config_path)
    for market_key in ("stock_initial", "bond_initial", "rate", "down", "up"):
        if flags.get(market_key) is not None:
            data["market"][market_key] = flags[market_key]
    for key in ("strike", "periods", "model", "seed", "samples", "output_format"):
        if flags.get(key) is not None:
            data[key] = flags[key]
    return config_from_dict(data)


def _require_arbitrage_free(params: MarketParams) -> None:
    if params.rate >= params.up:
        raise CliInputError("r >= b: arbitrage")
    if params.rate <= params.down:
        raise CliInputError("r <= a: arbitrage")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _emit_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        click.echo(f"{key:<{width}}  {value}")


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buffer.getvalue(), nl=False)


def run_options(f):
    """Shared market/run flags; None means "not passed" so precedence works."""
    options = [
        click.option("--s0", "stock_initial", type=float, default=None, help="Initial stock price"),
        click.option("--b0", "bond_initial", type=float, default=None, help="Initial bank account"),
        click.option("--a", "down", type=float, default=None, help="Down return per period"),
        click.option("--b", "up", type=float, default=None, help="Up return per period"),
        click.option("--r", "rate", type=float, default=None, help="Riskless rate per period"),
        click.option("--strike", type=float, default=None, help="Option strike"),
        click.option("--periods", type=int, default=None, help="Number of periods N"),
        click.option("--model", type=click.Choice(MODELS), default=None, help="Pricing model"),
        click.option("--seed", type=int, default=None, help="Sampling seed"),
        click.option("--samples", type=int, default=None, help="Number of disk samples to emit"),
        click.option("--format", "output_format", type=click.Choice(OUTPUT_FORMATS), default=None, help="Output format"),
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON config file"),
        click.option("--dump-config", is_flag=True, default=False, help="Print the resolved config as JSON and exit"),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _start(config_path: str | None, dump_config: bool, **flags: Any) -> RunConfig | None:
    """Resolve the config; handle --dump-config. None means already done."""
    config = _resolve_config(config_path, **flags)
    if dump_config:
        click.echo(json.dumps(config_to_dict(config), indent=2))
        return None
    return config


@click.group()
def main() -> None:
    """Quantum binomial market toolkit."""


@main.command()
@run_options
def price(config_path: str | None, dump_config: bool, **flags: Any) -> None:
    """Price a European call under the chosen model."""
    try:
        config = _start(config_path, dump_config, **flags)
        if config is None:
            return
        params = config.market
        _require_arbitrage_free(params)
        spec = CallSpec(config.strike)
        if config.model in ("classical", "quantum_single") and config.periods != 1:
            raise CliInputError(f"periods > 1: model '{config.model}' is single-period")
        q = classical_risk_neutral_q(params)
        q_prime = None
        payoff = pricing.call_two_point(params, spec)
        if config.model == "classical":
            result = pricing.single_period_price(params, payoff, model="classical")
        elif config.model == "quantum_single":
            result = pricing.quantum_single_price(params, payoff)
        elif config.model == "mb":
            result = pricing.mb_price(params, spec, config.periods)
            q_prime = q * (1.0 + params.up) / (1.0 + params.rate)
        else:
            result = pricing.be_price(params, spec, config.periods)
    except (CliInputError, OverflowError) as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)

    fields: list[tuple[str, Any]] = [
        ("model", result.model),
        ("periods", result.periods),
        ("price", result.price),
        ("discounted_by", result.discounted_by),
        ("q", q),
        ("q_prime", q_prime),
        ("cutoff_tau", result.cutoff_tau),
    ]
    if config.output_format == "json":
        click.echo(json.dumps(dict(fields), indent=2))
    elif config.output_format == "csv":
        _emit_csv(
            [key for key, _ in fields],
            [[_render_cell(value) for _, value in fields]],
        )
    else:
        _emit_table(
            [(key, _render_cell(value)) for key, value in fields if value is not None]
        )


def _render_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


@main.command()
@run_options
def disk(config_path: str | None, dump_config: bool, **flags: Any) -> None:
    """Report the risk-neutral disk geometry, optionally with samples."""
    try:
        config = _start(config_path, dump_config, **flags)
        if config is None:
            return
        params = config.market
        _require_arbitrage_free(params)
        obs = default_observable(params)
        geometry = risk_neutral_disk(params, obs)
        states = sample_disk(geometry, config.samples, config.seed)
        for state in states:
            if not disk_contains(geometry, state, obs, params.rate):
                raise AssertionError("sampled state failed membership re-check")
    except CliInputError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)

    normal = geometry.normal
    if config.output_format == "json":
        click.echo(
            json.dumps(
                {
                    "radius": geometry.radius,
                    "plane_offset": geometry.plane_offset,
                    "normal": {"x": normal.x, "y": normal.y, "z": normal.z},
                    "samples": [
                        {"x": s.bloch.x, "y": s.bloch.y, "z": s.bloch.z} for s in states
                    ],
                },
                indent=2,
            )
        )
        return
    rows = [
        ("radius", _fmt(geometry.radius)),
        ("plane_offset", _fmt(geometry.plane_offset)),
        ("normal_x", _fmt(normal.x)),
        ("normal_y", _fmt(normal.y)),
        ("normal_z", _fmt(normal.z)),
    ]
    if config.output_format == "csv":
        _emit_csv([key for key, _ in rows], [[value for _, value in rows]])
    else:
        _emit_table(rows)
    if states:
        _emit_csv(
            ["x", "y", "z"],
            [[_fmt(s.bloch.x), _fmt(s.bloch.y), _fmt(s.bloch.z)] for s in states],
        )


@main.command()
@run_options
def verify(config_path: str | None, dump_config: bool, **flags: Any) -> None:
    """Run the oracle agreement suites and report max deviations."""
    from . import oracle

    try:
        config = _start(config_path, dump_config, **flags)
        if config is None:
            return
        params = config.market
        _require_arbitrage_free(params)
        if config.periods > oracle.DENSE_CAP:
            raise CliInputError("N exceeds dense oracle cap")
    except CliInputError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)

    try:
        checks = oracle.run_identity_checks(
            params, config.strike, config.periods, config.seed
        )
    except ArithmeticError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        sys.exit(1)

    if config.output_format == "json":
        click.echo(
            json.dumps(
                {
                    "checks": [
                        {
                            "name": c.name,
                            "deviation": c.deviation,
                            "tolerance": c.tolerance,
                            "passed": c.passed,
                        }
                        for c in checks
                    ],
                    "passed": all(c.passed for c in checks),
                },
                indent=2,
            )
        )
    elif config.output_format == "csv":
        _emit_csv(
            ["check", "deviation", "tolerance", "status"],
            [
                [c.name, f"{c.deviation:.6e}", f"{c.tolerance:.6e}", "pass" if c.passed else "fail"]
                for c in checks
            ],
        )
    else:
        _emit_table(
            [
                (c.name, f"{c.deviation:.6e}  {'pass' if c.passed else 'FAIL'}")
                for c in checks
            ]
        )

    failures = [c for c in checks if not c.passed]
    if failures:
        for c in failures:
            click.echo(
                f"identity failed: {c.name} (deviation {c.deviation:.6e} >= {c.tolerance:.6e})",
                err=True,
            )
        sys.exit(1)


@main.command()
@run_options
def sweep(config_path: str | None, dump_config: bool, **flags: Any) -> None:
    """Price series for N = 1..periods at fixed per-period parameters."""
    try:
        config = _start(config_path, dump_config, **flags)
        if config is None:
            return
        params = config.market
        _require_arbitrage_free(params)
        if config.model not in ("mb", "be"):
            raise CliInputError(f"model '{config.model}': sweep requires mb or be")
        series = pricing.convergence_sweep(
            params, CallSpec(config.strike), config.periods, config.model
        )
    except (CliInputError, OverflowError) as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)

    if config.output_format == "json":
        click.echo(
            json.dumps(
                [
                    {"periods": n, "model": config.model, "price": value}
                    for n, value in series
                ],
                indent=2,
            )
        )
    else:
        _emit_csv(
            ["periods", "model", "price"],
            [[str(n), config.model, _fmt(value)] for n, value in series],
        )


if __name__ == "__main__":
    main()
