"""Command-line front end: pricing, disk geometry, verification, sweeps.

Configuration precedence is command-line flags over config-file values
over built-in defaults. Exit codes: 0 success, 1 verification failure,
2 invalid input: a setting or config file that the CLI refuses (a config
that is not UTF-8 among them), or a ValueError or OverflowError that the
library raises for the resolved settings. Diagnostics go to stderr;
results go to stdout as a text table, CSV, or JSON.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import sys
from typing import Any, Callable

import click

from . import pricing
from .disk import default_observable, risk_neutral_disk, sample_disk
from .market import MarketParams, _as_dict, _Record, _set
from .pricing import MODELS, CallSpec

OUTPUT_FORMATS = ("table", "csv", "json")


class RunConfig(_Record):
    """Fully resolved inputs for one CLI invocation."""

    __slots__ = ("market", "strike", "periods", "model", "seed", "samples", "output_format")

    def __init__(self, market: MarketParams, strike: float, periods: int, model: str, seed: int, samples: int,
                 output_format: str) -> None:
        _set(self, "market", market)
        _set(self, "strike", strike)
        _set(self, "periods", periods)
        _set(self, "model", model)
        _set(self, "seed", seed)
        _set(self, "samples", samples)
        _set(self, "output_format", output_format)


# (flag, setting, default, help) in --help order. A setting is keyed by its dotted
# config-file path and converted to its default's type; its flag's parameter name is
# the setting's last part. The defaults are the reference parameters
# S0 = K = 100, a = -0.1, b = 0.2, r = 0.05.
_SETTINGS = (
    ("--s0", "market.stock_initial", 100.0, "Initial stock price"),
    ("--b0", "market.bond_initial", 1.0, "Initial bank account"),
    ("--a", "market.down", -0.1, "Down return per period"),
    ("--b", "market.up", 0.2, "Up return per period"),
    ("--r", "market.rate", 0.05, "Riskless rate per period"),
    ("--strike", "strike", 100.0, "Option strike"),
    ("--periods", "periods", 1, "Number of periods N"),
    ("--model", "model", "mb", "Pricing model"),
    ("--seed", "seed", 0, "Sampling seed"),
    ("--samples", "samples", 0, "Number of disk samples to emit"),
    ("--format", "output_format", "table", "Output format"),
)
_DEFAULTS: dict[str, Any] = {key: default for _, key, default, _ in _SETTINGS}
_CHOICES = {"model": MODELS, "output_format": OUTPUT_FORMATS}

# (predicate, diagnostic) rows, checked in order; the first that fails is reported.
# Numeric settings must be finite floats (not JSON booleans), and integer ones
# integer-valued, before any threshold.
_CHECKS: list[tuple[Callable[[dict[str, Any]], bool], str]] = [
    *(
        (lambda s, key=key: type(s[key]) in (int, float) and abs(s[key]) <= sys.float_info.max,
         f"{key} is not a finite number")
        for key, default in _DEFAULTS.items()
        if not isinstance(default, str)
    ),
    *(
        (lambda s, key=key: s[key] == int(s[key]), f"{key} is not an integer")
        for key, default in _DEFAULTS.items()
        if type(default) is int
    ),
    (lambda s: s["market.bond_initial"] > 0, "b0 <= 0: invalid market"),
    (lambda s: s["market.stock_initial"] > 0, "s0 <= 0: invalid market"),
    (lambda s: s["market.rate"] > -1, "r <= -1: invalid market"),
    (lambda s: s["market.down"] >= -1, "a < -1: invalid market"),
    (lambda s: s["market.down"] < s["market.up"], "a >= b: invalid market"),
    (lambda s: s["strike"] > 0, "strike <= 0: invalid option"),
    (lambda s: s["periods"] >= 1, "periods < 1: invalid run"),
    (lambda s: s["samples"] >= 0, "samples < 0: invalid run"),
    (lambda s: s["seed"] >= 0, "seed < 0: invalid run"),
    (lambda s: s["model"] in MODELS, "unknown model: {model}"),
    (lambda s: s["output_format"] in OUTPUT_FORMATS, "unknown output format: {output_format}"),
]


def _read_config(path: str) -> dict[str, Any]:
    """The config file's settings; the market ones nest under "market"."""
    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a file that is not UTF-8
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValueError("config must be a JSON object")
    settings = {}
    for key, value in loaded.items():
        if key == "market" and not isinstance(value, dict):
            raise ValueError("config key 'market' must be an object")
        prefix, items = ("market.", value.items()) if key == "market" else ("", [(key, value)])
        for name, setting in items:
            if "." in name or prefix + name not in _DEFAULTS:
                raise ValueError(f"unknown config key: {prefix}{name}")
            settings[prefix + name] = setting
    return settings


def config_from_dict(settings: dict[str, Any]) -> RunConfig:
    """Validate resolved settings, naming the violated threshold on failure."""
    for holds, diagnostic in _CHECKS:
        if not holds(settings):
            raise ValueError(diagnostic.format(**settings))
    typed = {key: type(default)(settings[key]) for key, default in _DEFAULTS.items()}
    market = MarketParams(**{key[len("market."):]: v for key, v in typed.items() if "." in key})
    return RunConfig(market=market, **{key: v for key, v in typed.items() if "." not in key})


def _cell(value: Any) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _emit(fmt: str, document: Any, header: list[str], rows: list[list[Any]],
          table: list[tuple[str, Any]] | None = None) -> None:
    """Write one result to stdout in format `fmt`.

    json dumps `document`; csv, and table without `table` pairs, writes `header`
    and `rows`; table otherwise aligns the non-None pairs, floats to six places.
    """
    if fmt == "json":
        click.echo(json.dumps(document, indent=2))
    elif fmt == "csv" or table is None:
        buffer = io.StringIO()
        csv.writer(buffer).writerows([header, *([_cell(value) for value in row] for row in rows)])
        click.echo(buffer.getvalue(), nl=False)
    else:
        pairs = [(key, _cell(value)) for key, value in table if value is not None]
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            click.echo(f"{key:<{width}}  {value}")


@click.group()
def main() -> None:
    """Quantum binomial market toolkit."""


def command(body: Callable[[RunConfig], None]) -> click.Command:
    """Register `body`, which computes and emits, as a subcommand taking the shared flags.

    The command resolves flags over config file over defaults, answers --dump-config,
    refuses an arbitrage market, and reports invalid input on one line with exit 2.
    """

    @functools.wraps(body)
    def run(config_path: str | None, dump_config: bool, **flags: Any) -> None:
        passed = {key: flags[key.rpartition(".")[2]] for key in _DEFAULTS}
        try:
            settings = {**_DEFAULTS, **(_read_config(config_path) if config_path else {})}
            settings.update((key, value) for key, value in passed.items() if value is not None)
            config = config_from_dict(settings)
            if dump_config:
                click.echo(json.dumps(_as_dict(config), indent=2))
                return
            if config.market.rate >= config.market.up:
                raise ValueError("r >= b: arbitrage")
            if config.market.rate <= config.market.down:
                raise ValueError("r <= a: arbitrage")
            body(config)
        except (ValueError, OverflowError) as exc:  # invalid input, from the checks above or the library
            click.echo(str(exc), err=True)
            sys.exit(2)

    run = click.option("--dump-config", is_flag=True, help="Print the resolved config as JSON and exit")(run)
    config_file = click.Path(exists=True, dir_okay=False)
    run = click.option("--config", "config_path", type=config_file, help="JSON config file")(run)
    for flag, key, default, text in reversed(_SETTINGS):
        kind = click.Choice(_CHOICES[key]) if key in _CHOICES else type(default)
        run = click.option(flag, key.rpartition(".")[2], type=kind, help=text)(run)
    return main.command()(run)


@command
def price(config: RunConfig) -> None:
    """Price a European call under the chosen model."""
    params = config.market
    spec = CallSpec(config.strike)
    if config.model in ("classical", "quantum_single") and config.periods != 1:
        raise ValueError(f"periods > 1: model '{config.model}' is single-period")
    if config.model == "classical":
        result = pricing.single_period_price(params, pricing.call_two_point(params, spec), model="classical")
    elif config.model == "quantum_single":
        result = pricing.quantum_single_price(params, pricing.call_two_point(params, spec))
    elif config.model == "mb":
        result = pricing.mb_price(params, spec, config.periods)
    else:
        result = pricing.be_price(params, spec, config.periods)
    fields = _as_dict(result)
    _emit(config.output_format, fields, list(fields), [list(fields.values())], list(fields.items()))


@command
def disk(config: RunConfig) -> None:
    """Report the risk-neutral disk geometry, optionally with samples."""
    geometry = risk_neutral_disk(config.market, default_observable(config.market))
    n = geometry.normal
    points = [state.bloch for state in sample_disk(geometry, config.samples, config.seed)]
    document = {
        "radius": geometry.radius,
        "plane_offset": geometry.plane_offset,
        "normal": {"x": n.x, "y": n.y, "z": n.z},
        "samples": [{"x": p.x, "y": p.y, "z": p.z} for p in points],
    }
    fields = {"radius": geometry.radius, "plane_offset": geometry.plane_offset,
              "normal_x": n.x, "normal_y": n.y, "normal_z": n.z}
    _emit(config.output_format, document, list(fields), [list(fields.values())], list(fields.items()))
    if points and config.output_format != "json":
        _emit("csv", None, ["x", "y", "z"], [[p.x, p.y, p.z] for p in points])


@command
def verify(config: RunConfig) -> None:
    """Run the oracle agreement suites and report max deviations."""
    from . import oracle

    if config.periods > oracle.DENSE_CAP:
        raise ValueError("N exceeds dense oracle cap")
    checks = oracle.run_identity_checks(config.market, config.strike, config.periods, config.seed)
    document = {
        "checks": [{**_as_dict(c), "passed": c.passed} for c in checks],
        "passed": all(c.passed for c in checks),
    }
    _emit(
        config.output_format,
        document,
        ["check", "deviation", "tolerance", "status"],
        [[c.name, f"{c.deviation:.6e}", f"{c.tolerance:.6e}", "pass" if c.passed else "fail"] for c in checks],
        [(c.name, f"{c.deviation:.6e}  {'pass' if c.passed else 'FAIL'}") for c in checks],
    )
    failures = [c for c in checks if not c.passed]
    for c in failures:
        click.echo(f"identity failed: {c.name} (deviation {c.deviation:.6e} >= {c.tolerance:.6e})", err=True)
    if failures:
        sys.exit(1)


@command
def sweep(config: RunConfig) -> None:
    """Price series for N = 1..periods at fixed per-period parameters."""
    series = pricing.convergence_sweep(config.market, CallSpec(config.strike), config.periods, config.model)
    _emit(
        config.output_format,
        [{"periods": n, "model": config.model, "price": value} for n, value in series],
        ["periods", "model", "price"],
        [[n, config.model, value] for n, value in series],
    )


if __name__ == "__main__":
    main()
