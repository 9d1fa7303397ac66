"""Tests for the command-line interface: flags, formats, exit codes."""
from __future__ import annotations

import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

import qbinomial.oracle as oracle_module
from qbinomial.cli import main

REFERENCE_FLAGS = ["--s0", "100", "--strike", "100", "--a", "-0.1", "--b", "0.2", "--r", "0.05"]


def _invoke(args):
    return CliRunner().invoke(main, args)


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


@pytest.mark.parametrize(
    "args,first_overflow",
    [
        # 100 * 1.2^5000 is far beyond the float range.
        (["price", "--model", "be", *REFERENCE_FLAGS, "--periods", "5000"], 5000),
        # With 1 + up = 10 the all-up price 100 * 10^N leaves the float range at N=307.
        (["sweep", "--model", "mb", "--a", "-0.1", "--b", "9", "--r", "0.05", "--periods", "400"], 307),
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


def test_disk_empty_exit_code():
    result = _invoke(["disk", "--a", "-0.1", "--b", "0.2", "--r", "0.2"])
    assert result.exit_code == 2
    assert "arbitrage" in result.stderr


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
