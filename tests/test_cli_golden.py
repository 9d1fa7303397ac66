"""Byte-for-byte CLI output: every subcommand, format and one-line diagnostic.

Each case in data/cli_golden.json gives the arguments of one command, an
optional config-file body (passed with --config), and the exact stdout,
stderr and exit code the command produced when the case was recorded.
`verify` deviations are floating-point rounding noise, so for `verify`
only the check names and the status column are compared.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from qbinomial.cli import main

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
    result = CliRunner().invoke(main, args)
    out = {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}
    if args[0] == "verify":
        out["stdout"] = _mask_deviations(out["stdout"])
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_recording(name, tmp_path):
    case = GOLDEN[name]
    expected = {key: case[key] for key in ("exit_code", "stdout", "stderr")}
    assert run_case(case, tmp_path) == expected
