"""Recorded CLI output: every subcommand, format and one-line diagnostic.

Each case in data/cli_golden.json gives the arguments of one command, an
optional config-file body (passed with --config), and the exact stdout,
stderr and exit code the command produced when the case was recorded, with
line endings read as "\n". `verify` deviations are floating-point rounding
noise, so for `verify` only the check names and the status column are
compared. The real line endings of a process are pinned separately: csv
output ends every row in "\r\n", table and json output every line in "\n".
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import invoke

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _mask_deviations(text: str) -> str:
    text = re.sub(r'"deviation": [^,\n]+', '"deviation": _', text)
    return re.sub(r"\d\.\d{6}e[-+]\d{2}", "_", text)


def run_case(case: dict, tmp_path: Path) -> dict:
    """Run one case; return its exit code, stdout and stderr."""
    args = list(case["argv"])
    if case.get("config") is not None:
        path = tmp_path / "run.json"
        path.write_text(case["config"])
        args += ["--config", str(path)]
    result = invoke(args)
    out = {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}
    if args[:1] == ["verify"]:
        out["stdout"] = _mask_deviations(out["stdout"])
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_recording(name, tmp_path):
    case = GOLDEN[name]
    expected = {key: case[key] for key in ("exit_code", "stdout", "stderr")}
    assert run_case(case, tmp_path) == expected


@pytest.mark.parametrize("name", ["sweep-be-n3-csv", "disk-samples-csv", "sweep-be-n3-table", "disk-samples-table"])
def test_a_process_ends_exactly_the_csv_rows_in_crlf(name):
    # in table format, sweep's csv fallback and disk's sample rows end in "\n" like the table rows
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    case = GOLDEN[name]
    done = subprocess.run([sys.executable, "-m", "qbinomial", *case["argv"]], env=env, capture_output=True,
                          timeout=120)
    output_format = case["argv"][case["argv"].index("--format") + 1]
    expected = case["stdout"].replace("\n", "\r\n" if output_format == "csv" else "\n")
    assert (done.returncode, done.stdout.decode()) == (0, expected)
