"""Command-line front end: pricing, disk geometry, verification, sweeps.

Configuration precedence is command-line flags over config-file values
over built-in defaults. Exit codes: 0 success, 1 verification failure,
2 invalid input: a command line, setting or config file that the CLI
refuses (a config that is not UTF-8 among them), or a ValueError or
OverflowError that the library raises for the resolved settings.
Diagnostics go to stderr; results go to stdout as a text table, CSV, or JSON.

The command line keeps click's rules and messages: `--opt value` or
`--opt=value`, the last repeat wins, values convert by float(), int() or an
exact choice, and --help is answered before any value is converted. Help
pages have a fixed 80-column layout: terms take a 30-column field, and a
longer term puts its help on the next line at column 34. They are not
rewrapped on narrower terminals.

Help pages, did-you-mean hints and config-file reading live in
qbinomial._cli_cold, which this module imports only in the branches that
use it; `_emit` writes csv rows itself and imports json only for the json
format: a command run from flags in table or csv format compiles none of them.

The program entry, `main()` as the console script and `python -m` call it,
freezes the heap (gc.freeze) on its way out, so the interpreter's shutdown
collections skip every object the process made. That relies on the CLI holding
no resource whose release waits on a finalizer at exit: stdout is flushed before
the entry returns and config files are read under `with`. The in-process call
`main.main(args=...)` does not freeze.
"""
from __future__ import annotations

import gc
import os
import sys
import types
from typing import Any, Callable

from . import pricing
from .market import MarketParams, _as_dict, _Record, _set, classical_risk_neutral_q
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
# config-file path and converted to its default's type. The defaults are the
# reference parameters S0 = K = 100, a = -0.1, b = 0.2, r = 0.05.
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

# flag: (key, kind, help) of every subcommand option, in --help order; a setting's key
# is its _SETTINGS key. A kind is float, int, a tuple of choices, "FILE" (an existing
# file) or None (a flag).
_OPTIONS: dict[str, tuple[str, Any, str]] = {
    **{flag: (key, _CHOICES.get(key, type(default)), text) for flag, key, default, text in _SETTINGS},
    "--config": ("config", "FILE", "JSON config file"),
    "--dump-config": ("dump_config", None, "Print the resolved config as JSON and exit"),
    "--help": ("help", None, "Show this message and exit."),
}
_TYPE_NAMES = {float: "float", int: "integer"}


def config_from_dict(settings: dict[str, Any]) -> RunConfig:
    """Validate resolved settings, naming the violated threshold on failure.

    The first failing rule is reported, in the order: every numeric setting finite (not a JSON
    boolean), every integer setting integer-valued, the market (MarketParams), the option
    (CallSpec), the run (periods, samples, seed), then the choices (model, output format).
    """
    for key, default in _DEFAULTS.items():
        value = settings[key]
        if not isinstance(default, str) and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{key} is not a finite number")
    for key, default in _DEFAULTS.items():
        if type(default) is int and settings[key] != int(settings[key]):
            raise ValueError(f"{key} is not an integer")
    typed = {key: type(default)(settings[key]) for key, default in _DEFAULTS.items()}
    market = MarketParams(**{key[len("market."):]: v for key, v in typed.items() if "." in key})
    CallSpec(typed["strike"])
    for key, floor in (("periods", 1), ("samples", 0), ("seed", 0)):
        if settings[key] < floor:
            raise ValueError(f"{key} < {floor}: invalid run")
    for key, choices in _CHOICES.items():
        if settings[key] not in choices:
            raise ValueError(f"unknown {key.replace('_', ' ')}: {settings[key]}")
    return RunConfig(market=market, **{key: v for key, v in typed.items() if "." not in key})


def _cell(value: Any) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _emit(fmt: str, document: Any, records: list[dict[str, Any]], table: list[tuple[str, Any]] | None = None) -> None:
    """Write one result to stdout in format `fmt`.

    json dumps `document`; csv, and table without `table` pairs, writes the first
    record's keys, then each record's values, comma-separated; table otherwise
    aligns the non-None pairs, floats to six places. csv ends its rows in CRLF
    (RFC 4180); every other line ends in LF. No cell needs csv quoting: each is
    a number, a choice name, a key, a check name or a status. Only json imports
    a module to write, so a table or csv process loads neither json nor csv.
    """
    if fmt == "json":
        import json

        print(json.dumps(document, indent=2))
    elif fmt == "csv" or table is None:
        end = "\r\n" if fmt == "csv" else "\n"
        rows = [list(records[0]), *([_cell(value) for value in record.values()] for record in records)]
        print(*map(",".join, rows), sep=end, end=end)
    else:
        pairs = [(key, _cell(value)) for key, value in table if value is not None]
        width = max(len(key) for key, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {value}")


class _UsageError(Exception):
    """A refused command line: exit 2, below the usage lines unless a second argument is true."""


def _parse(args: list[str], options: dict[str, Any], interspersed: bool) -> tuple[dict[str, Any], list[str]]:
    """Split `args` into {flag: raw value, or True for a flag} in first-use order, and the positionals.

    "--" ends the options; so does the first positional unless `interspersed`.
    """
    values, positional, args = {}, [], list(args)
    while args:
        arg = args.pop(0)
        flag, equals, value = arg.partition("=")
        if arg == "--":
            return values, positional + args
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                return values, [arg, *args]
            positional.append(arg)
        elif flag not in options:
            from ._cli_cold import _did_you_mean

            raise _UsageError(f"No such option {flag!r}.{_did_you_mean(flag, options)}" if arg[:2] == "--"
                              else f"No such option {arg[:2]!r}.")
        elif options[flag][1] is None and equals:
            raise _UsageError(f"Option {flag!r} does not take a value.", True)
        elif options[flag][1] is not None and not (equals or args):
            raise _UsageError(f"Option {flag!r} requires an argument.", True)
        else:
            values[flag] = True if options[flag][1] is None else value if equals else args.pop(0)
    return values, positional


def _convert(flag: str, raw: Any) -> Any:
    """Option `flag`'s raw value as its kind converts it, or a usage error naming the flag."""
    kind = _OPTIONS[flag][1]
    if kind in _TYPE_NAMES:
        try:
            return kind(raw)
        except ValueError:
            problem = f"{raw!r} is not a valid {_TYPE_NAMES[kind]}."
    elif kind == "FILE":
        problem = ("does not exist" if not os.path.exists(raw) else "is a directory" if os.path.isdir(raw)
                   else "is not readable" if not os.access(raw, os.R_OK) else "")
        problem = problem and f"File {raw!r} {problem}."
    else:
        problem = "" if kind is None or raw in kind else f"{raw!r} is not one of {', '.join(map(repr, kind))}."
    if problem:
        raise _UsageError(f"Invalid value for {flag!r}: {problem}")
    return raw


def _program_name() -> str:
    """`python -m <module>` under -m, else the basename of the script that was run."""
    package, script = getattr(sys.modules["__main__"], "__package__", None), os.path.basename(sys.argv[0])
    if not package:
        return script
    name = os.path.splitext(script)[0]
    return "python -m " + (package if name == "__main__" else f"{package}.{name}").lstrip(".")


class _Group:
    """The program: its subcommands by name, and the one path from a command line to a RunConfig.

    perfbench/ops.py runs a command line in process with
    `main.main(args=argv, prog_name="qbinomial", standalone_mode=False)`. `standalone_mode`
    is ignored: a refused command line always exits 2, and a command that runs returns.
    """

    def __init__(self, doc: str) -> None:
        self.help, self.commands = doc, {}

    def __call__(self) -> None:
        """Run `sys.argv[1:]` as the program, then freeze the heap for exit.

        At shutdown CPython runs full collections over every tracked object, and
        none of a finished command's objects need one: gc.freeze() moves them to
        the permanent generation, which those collections skip. atexit handlers,
        stream flushes and module teardown run as before; only finalizers of
        objects still in reference cycles may not, which Python never
        guarantees and the CLI relies on none of. `main.main` does not freeze,
        since a process that goes on running would keep its frozen heap.
        """
        try:
            self.main()
        finally:
            gc.freeze()

    def main(self, args: list[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
        """Run one command line, by default `sys.argv[1:]`, as the program `prog_name`."""
        try:
            try:
                self._run(sys.argv[1:] if args is None else list(args), prog_name or _program_name())
            finally:
                sys.stdout.flush()  # here rather than at exit, so that a closed pipe is caught below
        except BrokenPipeError:  # the reader closed stdout early, as `| head -n 1` does: exit 1 quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    def _run(self, args: list[str], path: str) -> None:
        usage, doc, options = "[OPTIONS] COMMAND [ARGS]...", self.help, {"--help": _OPTIONS["--help"]}
        commands = sorted((name, command.help) for name, command in self.commands.items())
        try:
            if not args:
                from ._cli_cold import _help_page

                print(_help_page(f"{path} {usage}", doc, options, commands, _TYPE_NAMES), file=sys.stderr)
                sys.exit(2)
            flags, rest = _parse(args, options, interspersed=False)
            if "--help" not in flags:
                if not rest or rest[0] not in self.commands:
                    from ._cli_cold import _did_you_mean

                    raise _UsageError(f"No such command {rest[0]!r}.{_did_you_mean(rest[0], self.commands)}"
                                      if rest else "Missing command.")
                name, *rest = rest
                path, usage, options, commands = f"{path} {name}", "[OPTIONS]", _OPTIONS, []
                doc = self.commands[name].help
                flags, rest = _parse(rest, options, interspersed=True)
            if "--help" in flags:
                from ._cli_cold import _help_page

                print(_help_page(f"{path} {usage}", doc, options, commands, _TYPE_NAMES))
                return
            values = {_OPTIONS[flag][0]: _convert(flag, raw) for flag, raw in flags.items()}
            if rest:
                raise _UsageError(f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})")
            dump = values.pop("dump_config", False)
            loaded = {}
            if "config" in values:
                from ._cli_cold import _read_config

                loaded = _read_config(values.pop("config"), _DEFAULTS)
            config = config_from_dict({**_DEFAULTS, **loaded, **values})
            if dump:
                _emit("json", _as_dict(config), [])
                return
            classical_risk_neutral_q(config.market)  # every command refuses an arbitrage market
            self.commands[name].callback(config)
        except _UsageError as error:
            lines = [] if error.args[1:] else [f"Usage: {path} {usage}", f"Try '{path} --help' for help.", ""]
            print(*lines, f"Error: {error.args[0]}", sep="\n", file=sys.stderr)
            sys.exit(2)
        except (ValueError, OverflowError) as exc:  # invalid input, from the checks above or the library
            print(exc, file=sys.stderr)
            sys.exit(2)


main = _Group("Quantum binomial market toolkit.")


def command(body: Callable[[RunConfig], None]) -> types.SimpleNamespace:
    """Register `body`, which computes and emits one RunConfig's result, as a subcommand taking the shared flags."""
    main.commands[body.__name__] = types.SimpleNamespace(help=body.__doc__, callback=body)
    return main.commands[body.__name__]


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
    _emit(config.output_format, fields, [fields], list(fields.items()))


@command
def disk(config: RunConfig) -> None:
    """Report the risk-neutral disk geometry, optionally with samples."""
    from .disk import default_observable, risk_neutral_disk, sample_disk

    geometry = risk_neutral_disk(config.market, default_observable(config.market))
    n = geometry.normal
    samples = [_as_dict(state.bloch) for state in sample_disk(geometry, config.samples, config.seed)]
    document = {
        "radius": geometry.radius,
        "plane_offset": geometry.plane_offset,
        "normal": _as_dict(n),
        "samples": samples,
    }
    fields = {"radius": geometry.radius, "plane_offset": geometry.plane_offset,
              "normal_x": n.x, "normal_y": n.y, "normal_z": n.z}
    _emit(config.output_format, document, [fields], list(fields.items()))
    if samples and config.output_format != "json":
        _emit(config.output_format, None, samples)


@command
def verify(config: RunConfig) -> None:
    """Run the oracle agreement suites and report max deviations."""
    from . import oracle

    checks = oracle.run_identity_checks(config.market, config.strike, config.periods, config.seed)
    document = {
        "checks": [{**_as_dict(c), "passed": c.passed} for c in checks],
        "passed": all(c.passed for c in checks),
    }
    records = [{"check": c.name, "deviation": f"{c.deviation:.6e}", "tolerance": f"{c.tolerance:.6e}",
                "status": "pass" if c.passed else "fail"} for c in checks]
    _emit(config.output_format, document, records,
          [(c.name, f"{c.deviation:.6e}  {'pass' if c.passed else 'FAIL'}") for c in checks])
    failures = [c for c in checks if not c.passed]
    for c in failures:
        print(f"identity failed: {c.name} (deviation {c.deviation:.6e} >= {c.tolerance:.6e})", file=sys.stderr)
    if failures:
        sys.exit(1)


@command
def sweep(config: RunConfig) -> None:
    """Price series for N = 1..periods at fixed per-period parameters."""
    series = pricing.convergence_sweep(config.market, CallSpec(config.strike), config.periods, config.model)
    records = [{"periods": n, "model": config.model, "price": value} for n, value in series]
    _emit(config.output_format, records, records)


def __getattr__(name: str):
    # perfbench's tracer self-test reads cli.sample_disk. ROADMAP item 1 can drop this forward once
    # the tracer spans the disk layer where it is defined.
    if name in ("default_observable", "risk_neutral_disk", "sample_disk"):
        from . import disk as disk_module

        return getattr(disk_module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    main()
