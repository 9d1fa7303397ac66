"""Tests for the command-line interface: flags, formats, exit codes."""
from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qbinomial.oracle as oracle_module
from conftest import invoke as _invoke
from qbinomial import MarketParams
from qbinomial.pricing import discount_factor, terminal_prices

REFERENCE_FLAGS = ["--s0", "100", "--strike", "100", "--a", "-0.1", "--b", "0.2", "--r", "0.05"]


def _parse_csv(text: str):
    return list(csv.reader(io.StringIO(text)))


def test_price_mb_table():
    result = _invoke(["price", "--model", "mb", *REFERENCE_FLAGS, "--periods", "2"])
    assert result.exit_code == 0
    assert "13.605442" in result.stdout
    assert "q_prime" in result.stdout
    assert "cutoff_tau" in result.stdout


def test_price_be_json():
    result = _invoke(
        ["price", "--model", "be", *REFERENCE_FLAGS, "--periods", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["model"] == "be"
    assert data["periods"] == 2
    assert math.isclose(data["price"], 15.721844293272863, abs_tol=1e-10)
    assert data["cutoff_tau"] is None


def test_price_single_period_models_agree():
    quantum = _invoke(["price", "--model", "quantum_single", *REFERENCE_FLAGS, "--format", "json"])
    classical = _invoke(["price", "--model", "classical", *REFERENCE_FLAGS, "--format", "json"])
    assert quantum.exit_code == 0 and classical.exit_code == 0
    q_data = json.loads(quantum.stdout)
    c_data = json.loads(classical.stdout)
    assert math.isclose(q_data["price"], 10.0 / 1.05, abs_tol=1e-10)
    assert abs(q_data["price"] - c_data["price"]) < 1e-12
    assert q_data["model"] == "quantum_single"
    assert c_data["model"] == "classical"


def test_price_csv_parses():
    result = _invoke(
        ["price", "--model", "mb", *REFERENCE_FLAGS, "--periods", "2", "--format", "csv"]
    )
    rows = _parse_csv(result.stdout)
    assert rows[0] == ["model", "periods", "price", "discounted_by", "q", "q_prime", "cutoff_tau"]
    assert rows[1][0] == "mb"
    assert rows[1][2] == "13.605442"
    assert rows[1][6] == "1"


def test_price_single_period_model_rejects_multiperiod():
    result = _invoke(["price", "--model", "classical", *REFERENCE_FLAGS, "--periods", "3"])
    assert result.exit_code == 2
    assert "single-period" in result.stderr


def test_price_arbitrage_exit_codes():
    high = _invoke(["price", "--model", "mb", "--r", "0.3", "--a", "-0.1", "--b", "0.2"])
    assert high.exit_code == 2
    assert high.stderr.strip() == "r >= b: arbitrage"

    low = _invoke(["price", "--model", "mb", "--r", "-0.2", "--a", "-0.1", "--b", "0.2"])
    assert low.exit_code == 2
    assert low.stderr.strip() == "r <= a: arbitrage"


def test_price_invalid_market_diagnostics():
    bad_order = _invoke(["price", "--a", "0.3", "--b", "0.2"])
    assert bad_order.exit_code == 2
    assert "a >= b" in bad_order.stderr

    bad_strike = _invoke(["price", "--strike", "-5"])
    assert bad_strike.exit_code == 2
    assert "strike <= 0" in bad_strike.stderr

    bad_flag = _invoke(["price", "--periods", "x"])
    assert bad_flag.exit_code == 2


_ARBITRAGE_DUMP = {
    "market": {"bond_initial": 1.0, "stock_initial": 100.0, "rate": 0.3, "down": -0.1, "up": 0.2},
    "strike": 100.0, "periods": 1, "model": "mb", "seed": 0, "samples": 0, "output_format": "table",
}


# Command lines with several faults, each with the exit code and output recorded for it: the first
# failing rule is reported, in the order finite, integer, market, option, run, choice, then arbitrage
# (which --dump-config skips), then the command's own rules.
MULTI_FAULT_CASES = [
    ("price --b0 0 --periods 0", None, 2, "", "b0 <= 0: invalid market"),
    ("price --s0 0 --r -1", None, 2, "", "s0 <= 0: invalid market"),
    ("price --r -1 --a -2", None, 2, "", "r <= -1: invalid market"),
    ("price --a -2 --b -3", None, 2, "", "a < -1: invalid market"),
    ("price --a 0.3 --b 0.2 --strike 0", None, 2, "", "a >= b: invalid market"),
    ("price --b0 -1 --strike -1", None, 2, "", "b0 <= 0: invalid market"),
    ("verify --periods 13 --b0 0", None, 2, "", "b0 <= 0: invalid market"),
    ("price --b0 0", '{"seed": -1}', 2, "", "b0 <= 0: invalid market"),
    ("price --strike 0 --periods 0", None, 2, "", "strike <= 0: invalid option"),
    ("sweep --strike -1 --samples -1", None, 2, "", "strike <= 0: invalid option"),
    ("price --r 0.3 --strike 0", None, 2, "", "strike <= 0: invalid option"),
    ("disk --strike -5", None, 2, "", "strike <= 0: invalid option"),
    ("price --b0 inf --s0 0", None, 2, "", "market.bond_initial is not a finite number"),
    ("price --strike 0", '{"periods": 1.5}', 2, "", "periods is not an integer"),
    ("sweep --r 0.3 --periods 0", None, 2, "", "periods < 1: invalid run"),
    ("verify --periods 0 --r 0.3", None, 2, "", "periods < 1: invalid run"),
    ("disk --r -0.2 --samples -1", None, 2, "", "samples < 0: invalid run"),
    ("disk --r 0.3 --seed -1", None, 2, "", "seed < 0: invalid run"),
    ("price --r 0.3", '{"model": "heston"}', 2, "", "unknown model: heston"),
    ("verify --periods 13 --r 0.3", None, 2, "", "r >= b: arbitrage"),
    ("verify --periods 13 --r -0.2", None, 2, "", "r <= a: arbitrage"),
    ("price --model classical --periods 2 --r 0.3", None, 2, "", "r >= b: arbitrage"),
    ("price --model be --periods 5000 --r 0.3", None, 2, "", "r >= b: arbitrage"),
    ("price --r 0.3 --dump-config", None, 0, json.dumps(_ARBITRAGE_DUMP, indent=2), ""),
    # the finite rows run before the integer rows, and the integer rows in periods, seed, samples order
    ("disk", '{"seed": 1.5, "samples": "x"}', 2, "", "samples is not a finite number"),
    ("sweep", '{"seed": 1.5, "samples": 2.5}', 2, "", "seed is not an integer"),
    # every number row runs before the market
    ("verify --b0 0", '{"periods": 1.5}', 2, "", "periods is not an integer"),
    ("price --b0 nan", '{"periods": 1.5}', 2, "", "market.bond_initial is not a finite number"),
    # the run rows run in periods, samples, seed order, and before the choices
    ("disk --samples -1 --seed -1", None, 2, "", "samples < 0: invalid run"),
    ("disk --periods 0 --samples -1", None, 2, "", "periods < 1: invalid run"),
    ("sweep --seed -1", '{"model": "x"}', 2, "", "seed < 0: invalid run"),
    ("verify", '{"model": "x", "output_format": "y"}', 2, "", "unknown model: x"),
    ("disk --strike 0", '{"output_format": "xml"}', 2, "", "strike <= 0: invalid option"),
]


@pytest.mark.parametrize("line,config,exit_code,stdout,stderr", MULTI_FAULT_CASES,
                         ids=[case[0] for case in MULTI_FAULT_CASES])
def test_several_faults_report_the_first_rule_in_order(tmp_path, line, config, exit_code, stdout, stderr):
    args = shlex.split(line)
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        args += ["--config", str(path)]
    result = _invoke(args)
    assert (result.exit_code, result.stdout, result.stderr) == (
        exit_code, stdout and stdout + "\n", stderr and stderr + "\n"
    )


@pytest.mark.parametrize(
    "args,first_overflow",
    [
        # 100 * 1.2^5000 is far beyond the float range.
        (["price", "--model", "be", *REFERENCE_FLAGS, "--periods", "5000"], 5000),
        # With 1 + up = 10 the all-up price 100 * 10^N leaves the float range at N=307.
        (["sweep", "--model", "mb", "--a", "-0.1", "--b", "9", "--r", "0.05", "--periods", "400"], 307),
        # The one-period call payoff 100 * (1 + 1e308) is not finite; N-period models never build it.
        (["price", "--model", "mb", "--a", "-1", "--b", "1e308", "--r", "1e307", "--periods", "2"], 2),
        (["price", "--model", "be", "--a", "-1", "--b", "1e308", "--r", "1e307", "--periods", "2"], 2),
    ],
)
def test_terminal_price_overflow_is_invalid_input(args, first_overflow):
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"terminal prices exceed the float range at N={first_overflow}"
    ]
    assert "Traceback" not in result.output
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["disk", *REFERENCE_FLAGS, "--samples", "2", "--seed", "-1"],
        ["verify", *REFERENCE_FLAGS, "--periods", "2", "--seed", "-1"],
    ],
)
def test_negative_seed_is_invalid_input(args):
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["seed < 0: invalid run"]
    assert result.stdout == ""


def test_disk_reference_radius():
    result = _invoke(["disk", *REFERENCE_FLAGS])
    assert result.exit_code == 0
    assert "1.000000" in result.stdout


def test_disk_off_midpoint_radius_csv():
    result = _invoke(["disk", "--a", "0", "--b", "0.2", "--r", "0.05", "--format", "csv"])
    rows = _parse_csv(result.stdout)
    assert rows[0][0] == "radius"
    assert rows[1][0] == "0.866025"


def test_disk_samples_deterministic():
    args = ["disk", *REFERENCE_FLAGS, "--samples", "5", "--seed", "7"]
    first = _invoke(args)
    second = _invoke(args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    rows = _parse_csv(first.stdout.split("x,y,z")[1])
    assert len([r for r in rows if r]) == 5


def test_disk_samples_json():
    result = _invoke(
        ["disk", *REFERENCE_FLAGS, "--samples", "3", "--seed", "1", "--format", "json"]
    )
    data = json.loads(result.stdout)
    assert data["radius"] == 1.0
    assert len(data["samples"]) == 3
    for sample in data["samples"]:
        norm = math.sqrt(sample["x"] ** 2 + sample["y"] ** 2 + sample["z"] ** 2)
        assert norm < 1.0


def test_disk_json_normal_is_exactly_plus_z():
    # half this spread times its reciprocal rounds to 0.9999999999999999; its quotient is 1.0
    result = _invoke(
        ["disk", "--a", "0.3704054693015627", "--b", "1.6079720953658025", "--r", "0.9", "--format", "json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.stdout)["normal"] == {"x": 0.0, "y": 0.0, "z": 1.0}


def test_disk_empty_exit_code():
    result = _invoke(["disk", "--a", "-0.1", "--b", "0.2", "--r", "0.2"])
    assert result.exit_code == 2
    assert "arbitrage" in result.stderr


@pytest.mark.parametrize("seed", range(4))
def test_verify_next_to_the_down_threshold(seed):
    # every risk-neutral disk here has a faithful rim 1e-9 thin that sampling must avoid
    result = _invoke(["verify", "--periods", "4", "--r", "-0.0999999998", "--seed", str(seed)])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.stdout


# Markets whose disk has no faithful state: a rate one ulp above the down return, and a rate
# about 6e-10 above it, whose plane offset is exactly -(1 - TOL), the rim of the faithful part.
NO_FAITHFUL_STATE_MARKETS = [
    ["--r", "-0.09999999999999999"],
    ["--a", "0.3704054693015627", "--b", "1.6079720953658025", "--r", "0.37040546992034606"],
]


@pytest.mark.parametrize(
    "command",
    [
        [*command, *market]
        for market in NO_FAITHFUL_STATE_MARKETS
        for command in (["disk", "--samples", "2"], ["verify"], ["price", "--model", "quantum_single"])
    ],
)
def test_disk_without_faithful_states_is_invalid_input(command):
    result = _invoke(command)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["no faithful state in the risk-neutral disk"]
    assert result.stdout == ""


def test_verify_passes_on_reference_market():
    result = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "6", "--seed", "3"])
    assert result.exit_code == 0
    assert "pass" in result.stdout
    assert "FAIL" not in result.stdout


def test_verify_csv_format():
    result = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "3", "--format", "csv"])
    rows = _parse_csv(result.stdout)
    assert rows[0] == ["check", "deviation", "tolerance", "status"]
    assert all(row[3] == "pass" for row in rows[1:] if row)


def test_verify_json_format():
    result = _invoke(
        ["verify", *REFERENCE_FLAGS, "--periods", "4", "--seed", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert data["passed"] is True
    assert len(data["checks"]) == 7
    assert all(check["passed"] is True for check in data["checks"])


# Arbitrage-free markets whose prices are large (terminal prices up to 1e14
# after discounting), whose returns are near 1e9, or whose prices are subnormal.
WIDE_VERIFY_MARKETS = [
    "--b 1e3 --r 10 --periods 3",
    "--b 1e6 --r 100 --periods 3",
    "--a 1e8 --b 1e9 --r 5e8 --s0 1 --strike 1 --periods 3",
    "--a -1 --b 6.947782662540401e-89 --r -0.8554644717678815 --s0 1e-320 --strike 2.41491065118875e-86 --periods 2",
    "--a 0.04999999 --b 0.05000001 --r 0.05 --periods 5",
]


@pytest.mark.parametrize("argv", WIDE_VERIFY_MARKETS)
def test_verify_passes_on_large_and_subnormal_markets(argv):
    result = _invoke(["verify", *argv.split(), "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert [row[3] for row in _parse_csv(result.stdout)[1:] if row] == ["pass"] * 7


def test_verify_rejects_periods_above_cap():
    result = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "13"])
    assert result.exit_code == 2
    assert "N exceeds dense oracle cap" in result.stderr


def test_verify_detects_corruption(monkeypatch):
    true_paths = oracle_module.classical_path_enumeration

    def corrupted(params, spec, periods):
        return true_paths(params, spec, periods) + 1e-6

    monkeypatch.setattr(oracle_module, "classical_path_enumeration", corrupted)
    result = _invoke(["verify", *REFERENCE_FLAGS, "--periods", "3"])
    assert result.exit_code == 1
    assert "identity failed" in result.stderr
    assert "path enumeration" in result.stderr


def test_sweep_csv_rows():
    result = _invoke(["sweep", "--model", "mb", *REFERENCE_FLAGS, "--periods", "10"])
    assert result.exit_code == 0
    rows = _parse_csv(result.stdout)
    assert rows[0] == ["periods", "model", "price"]
    body = [row for row in rows[1:] if row]
    assert len(body) == 10
    assert body[1] == ["2", "mb", "13.605442"]

    again = _invoke(["sweep", "--model", "mb", *REFERENCE_FLAGS, "--periods", "10"])
    assert again.stdout == result.stdout


def test_sweep_single_period_be():
    result = _invoke(["sweep", "--model", "be", *REFERENCE_FLAGS, "--periods", "1"])
    rows = [row for row in _parse_csv(result.stdout)[1:] if row]
    assert rows == [["1", "be", "9.523810"]]


def test_sweep_json():
    result = _invoke(
        ["sweep", "--model", "be", *REFERENCE_FLAGS, "--periods", "3", "--format", "json"]
    )
    data = json.loads(result.stdout)
    assert [entry["periods"] for entry in data] == [1, 2, 3]
    assert math.isclose(data[1]["price"], 15.721844293272863, abs_tol=1e-10)


def test_sweep_rejects_single_period_models():
    result = _invoke(["sweep", "--model", "classical", *REFERENCE_FLAGS, "--periods", "4"])
    assert result.exit_code == 2
    assert "sweep requires mb or be" in result.stderr


def test_config_file_and_flag_precedence(tmp_path):
    config = {
        "market": {"stock_initial": 120.0, "rate": 0.02, "down": -0.05, "up": 0.1},
        "strike": 110.0,
        "periods": 2,
        "model": "mb",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))

    from_file = _invoke(["price", "--config", str(path), "--format", "json"])
    assert from_file.exit_code == 0
    data = json.loads(from_file.stdout)
    assert data["periods"] == 2

    overridden = _invoke(
        ["price", "--config", str(path), "--periods", "1", "--format", "json"]
    )
    assert json.loads(overridden.stdout)["periods"] == 1


def test_config_that_is_not_utf8_is_invalid_input(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"strike": 100.0}\xff')
    result = _invoke(["price", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "config is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"
    ]
    assert result.stdout == ""


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"strike": 100.0, "volatility": 0.2}))
    result = _invoke(["price", "--config", str(path)])
    assert result.exit_code == 2
    assert "unknown config key: volatility" in result.stderr


def test_config_missing_file_exit_code():
    result = _invoke(["price", "--config", "/nonexistent/run.json"])
    assert result.exit_code == 2


def test_dump_config_round_trip(tmp_path):
    dumped = _invoke(
        ["price", "--dump-config", *REFERENCE_FLAGS, "--periods", "2", "--model", "be"]
    )
    assert dumped.exit_code == 0
    first = json.loads(dumped.stdout)

    path = tmp_path / "roundtrip.json"
    path.write_text(dumped.stdout)
    redumped = _invoke(["price", "--config", str(path), "--dump-config"])
    assert redumped.exit_code == 0
    assert json.loads(redumped.stdout) == first


@pytest.mark.parametrize(
    "config,flags,key",
    [
        ('{"strike": "abc"}', [], "strike"),
        ('{"seed": "x"}', [], "seed"),
        ('{"market": {"rate": null}}', [], "market.rate"),
        ('{"periods": true}', [], "periods"),
        ('{"samples": [1]}', [], "samples"),
        ('{"strike": Infinity}', [], "strike"),
        ('{"market": {"down": NaN}}', [], "market.down"),
        pytest.param('{"strike": 1%s}' % ("0" * 400), [], "strike", id="integer-beyond-float-range"),
        (None, ["--b", "inf"], "market.up"),
        (None, ["--s0", "inf"], "market.stock_initial"),
        (None, ["--r", "nan"], "market.rate"),
    ],
)
def test_malformed_values_are_invalid_input(tmp_path, config, flags, key):
    args = ["price", *flags]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        args += ["--config", str(path)]
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"{key} is not a finite number"]
    assert result.stdout == ""


@pytest.mark.parametrize("key", ["periods", "samples", "seed"])
def test_non_integer_counts_are_invalid_input(tmp_path, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: 1.5}))
    result = _invoke(["disk", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"{key} is not an integer"]
    assert result.stdout == ""


def test_integer_valued_float_counts_are_accepted(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"periods": 2.0, "samples": 3.0, "seed": 4.0}')
    result = _invoke(["price", "--config", str(path), "--dump-config"])
    assert result.exit_code == 0
    dumped = json.loads(result.stdout)
    assert [(dumped[key], type(dumped[key])) for key in ("periods", "samples", "seed")] == [
        (2, int), (3, int), (4, int)
    ]


@pytest.mark.parametrize("model", ["mb", "be"])
def test_discount_overflow_is_invalid_input(model):
    result = _invoke(
        ["price", "--model", model, "--r", "-0.99", "--a", "-0.999", "--b", "0.5", "--periods", "200"]
    )
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "discount factor (1+r)^-N leaves the float range at N=200"
    ]
    assert result.stdout == ""


@pytest.mark.parametrize(
    "market,periods,first_out",
    [
        # (1 + r)^-N = 100^N leaves the float range at N=155, long before the price ladder does
        (["--r", "-0.99", "--a", "-0.999", "--b", "0.5"], 400, 155),
        # the ladder shrinks (1 + up = 0.9), so only the discount 0.7^-N can leave the range
        (["--a", "-0.5", "--b", "-0.1", "--r", "-0.3"], 2500, 1990),
    ],
)
def test_sweep_names_the_first_discount_out_of_range(market, periods, first_out):
    result = _invoke(["sweep", "--model", "mb", *market, "--periods", str(periods)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"discount factor (1+r)^-N leaves the float range at N={first_out}"
    ]
    assert result.stdout == ""


# Commands on markets that pass every check of the CLI and once ended in a traceback.
TRACEBACK_COMMANDS = [
    "disk --a 5e-324 --b 1e-320 --r 4.73e-321",
    "disk --a 1e307 --b 1.7e308 --r 1.6e308",
    "price --model classical --a -1 --b 1e308 --r 1e307",
    "price --model mb --a -1 --b 1e308 --r 1e307 --periods 2",
    "sweep --a -1 --b -0.2692912260267206 --r -0.5298344695251871 --periods 30",
    "price --model mb --a -1 --b -0.2692912260267206 --r -0.5298344695251871 --periods 30",
]


def _extreme_commands(rng: random.Random, markets: int) -> list[list[str]]:
    """price (each model), disk --samples 3 and sweep on markets that pass every check of the CLI.

    Every number is log-uniform in magnitude from 5e-324 to 1.7e308, the down return is -1
    in about half of the markets, and N <= 30.
    """

    def magnitude(top: float = 308.23) -> float:
        return 10.0 ** rng.uniform(-323.3, top)

    commands = []
    while len(commands) < 6 * markets:
        returns = {rng.choice([-1.0, -magnitude(0.0), magnitude(), magnitude()]) for _ in range(3)}
        if len(returns) < 3:
            continue
        values = (*sorted(returns), magnitude(), magnitude(), magnitude())
        names = ("--a", "--r", "--b", "--s0", "--strike", "--b0")
        market = [*itertools.chain(*zip(names, map(repr, values)))]
        market += ["--format", rng.choice(["table", "csv", "json"])]
        periods = ["--periods", str(rng.randint(1, 30))]
        commands += [
            ["price", "--model", "classical", *market],
            ["price", "--model", "quantum_single", *market],
            ["price", "--model", "mb", *periods, *market],
            ["price", "--model", "be", *periods, *market],
            ["disk", "--samples", "3", "--seed", str(rng.randrange(2**31)), *market],
            ["sweep", "--model", rng.choice(["mb", "be"]), *periods, *market],
        ]
    return commands


def _lattice_in_range(flags: dict[str, str]) -> bool:
    """Whether every terminal price and discount factor is a float for n <= N on the flags' market."""
    params = MarketParams(*(float(flags[key]) for key in ("--b0", "--s0", "--r", "--a", "--b")))
    try:
        for n in range(1, int(flags["--periods"]) + 1):
            terminal_prices(params, n)
            discount_factor(params.rate, n)
    except OverflowError:
        return False
    return True


def test_every_checked_input_gets_a_result_or_a_one_line_diagnostic():
    for argv in [*map(shlex.split, TRACEBACK_COMMANDS), *_extreme_commands(random.Random(13), 40)]:
        result = _invoke(argv)
        assert result.exit_code in (0, 2), (argv, result.exception)
        if result.exit_code == 2:
            assert len(result.stderr.splitlines()) == 1 and result.stdout == "", argv
        # a lattice in range must price: the exit-2 path must not hide a library bug
        flags = {"--b0": "1", "--s0": "100", "--periods": "1", "--model": "mb"}
        flags.update(zip(argv[1::2], argv[2::2]))
        lattice = argv[0] == "sweep" or argv[0] == "price" and flags["--model"] in ("mb", "be")
        if lattice and _lattice_in_range(flags):
            assert result.exit_code == 0, (argv, result.stderr)


def test_verify_lattice_overflow_is_invalid_input():
    # 1e307 * 2^5 leaves the float range; the dense oracles stop at N=12.
    result = _invoke(["verify", "--s0", "1e307", "--b", "1", "--periods", "5"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["terminal prices exceed the float range at N=5"]
    assert result.stdout == ""


def _readme_block(section: str, language: str) -> str:
    """The first ```language block under README.md's `## section` heading."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    return readme.split(f"## {section}\n", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_example_matches_its_output():
    command, *lines = _readme_block("CLI", "sh").splitlines()
    expected = [line[2:] for line in itertools.takewhile(lambda line: line.startswith("# "), lines)]
    assert command.startswith("qbinomial ")
    result = _invoke(shlex.split(command)[1:])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == expected


def test_readme_library_example_runs():
    exec(_readme_block("Library example", "python"), {})


def _env(**extra: str) -> dict[str, str]:
    """This process's environment with this checkout's src/ ahead of PYTHONPATH, and `extra`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `argv` under _env(), capturing its output bytes."""
    return subprocess.run([sys.executable, *argv], env=_env(), capture_output=True, timeout=120)


def test_verify_with_returns_near_the_float_limit_passes_without_warnings():
    # the squares of Bloch components near 1e195 overflow, and a numpy RuntimeWarning would reach stderr
    done = _python("-m", "qbinomial", *"verify --a 1e194 --b 1e195 --r 5e194 --s0 1 --strike 1 --periods 1".split())
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""


@pytest.mark.parametrize(
    "argv, program",
    [
        (["-m", "qbinomial"], "python -m qbinomial"),
        (["-m", "qbinomial.cli"], "python -m qbinomial.cli"),
        # the console script's sys.argv[0]: usage names its basename
        (["-c", "import sys; from qbinomial.cli import main; sys.argv[0] = '/usr/local/bin/qbinomial'; main()"],
         "qbinomial"),
    ],
    ids=["python-m", "python-m-module", "console-script"],
)
def test_usage_names_the_program_as_it_was_started(argv, program):
    done = _python(*argv, "price", "--periods", "x")
    assert done.returncode == 2
    assert done.stderr.decode().splitlines()[0] == f"Usage: {program} price [OPTIONS]"


# main() as the console script calls it, between two frozen-object counts: "<before> <exit code> <after>" last
_FREEZE_PROBE = """import gc, sys
from qbinomial.cli import main
sys.argv[:] = ["qbinomial", *sys.argv[1:]]
before, code = gc.get_freeze_count(), 0
try:
    main()
except SystemExit as exc:
    code = exc.code
print(before, code, gc.get_freeze_count())
"""


@pytest.mark.parametrize("args, exit_code", [("price --periods 2", 0), ("price --periods x", 2)],
                         ids=["run", "usage-error"])
def test_the_program_entry_freezes_the_heap_on_its_way_out(args, exit_code):
    # the shutdown collections skip frozen objects; importing the CLI freezes nothing
    before, code, after = map(int, _python("-c", _FREEZE_PROBE, *args.split()).stdout.split()[-3:])
    assert (before, code) == (0, exit_code)
    assert after > 0


def test_in_process_main_does_not_freeze():
    # a process that goes on running after main.main would keep its heap frozen
    before = gc.get_freeze_count()
    assert _invoke(["price", "--periods", "2"]).exit_code == 0
    assert _invoke(["price", "--periods", "x"]).exit_code == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("args", [
    "price", "price --format csv", "price --format json", "sweep --periods 5 --format csv",
    "disk --samples 2 --format json",
])
def test_whole_processes_write_what_main_main_writes(args):
    # the exit path after main() cannot truncate output: the same bytes (CRLF read as invoke reads it) and exit
    expected, done = _invoke(args.split()), _python("-m", "qbinomial", *args.split())
    assert (expected.exit_code, expected.stderr) == (0, "")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.replace(b"\r\n", b"\n") == expected.stdout.encode()
    assert done.stdout.endswith(b"\r\n" if "csv" in args else b"\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["price"], ["--help"], ["price", "--help"]], ids=" ".join)
def test_a_closed_stdout_ends_the_command_with_exit_1_and_no_traceback(args, unbuffered):
    # a reader such as `| head -n 1` may close the pipe before the command writes to it
    with subprocess.Popen([sys.executable, "-m", "qbinomial", *args], env=_env(PYTHONUNBUFFERED=unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        process.stdout.close()
        stderr = process.stderr.read()
        assert (process.wait(timeout=120), stderr) == (1, b"")
