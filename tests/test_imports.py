"""Which entry points load numpy and dataclasses, and which names each module imports.

Scalar pricing and disk sampling (the package import, the CLI import, and
the price, sweep and disk commands, in every model) never load numpy or
dataclasses; the dense paths of verify load numpy on first use and still work. Each check runs
in a fresh interpreter, because this test process has numpy loaded already.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbinomial
from qbinomial import bloch

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE_COMMANDS = [
    ["price", "--model", "mb", "--periods", "2"],
    ["price", "--model", "be", "--periods", "2"],
    ["price", "--model", "classical"],
    ["price", "--model", "quantum_single"],
    ["sweep", "--periods", "20"],
    ["disk", "--samples", "0"],
    ["disk", "--samples", "4"],
]


def _fresh_interpreter(script: str):
    """Run `script` in a new interpreter that imports qbinomial from src/.

    The script's last stdout line is JSON; it is returned parsed.
    """
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _entry_points_that_load(module: str) -> list[str]:
    """The scalar entry points, run in order, that add `module` to sys.modules.

    Each step is charged only with what it adds, so a module that the
    interpreter's start-up already loaded is charged to no step.
    """
    script = f"""
import json, sys
loaded_by = []
def step(name, run):
    before = {module!r} in sys.modules
    run()
    if not before and {module!r} in sys.modules:
        loaded_by.append(name)
step("import qbinomial", lambda: __import__("qbinomial"))
step("import qbinomial.cli", lambda: __import__("qbinomial.cli"))
import qbinomial.cli
for argv in {NUMPY_FREE_COMMANDS!r}:
    step(" ".join(argv), lambda: qbinomial.cli.main.main(args=argv, prog_name="qbinomial", standalone_mode=False))
print(json.dumps(loaded_by))
"""
    return _fresh_interpreter(script)


def test_scalar_entry_points_never_load_numpy():
    assert _entry_points_that_load("numpy") == []


def test_entry_points_never_load_dataclasses():
    # The value types are slotted records; dataclasses' code generation (and
    # the inspect, ast and dis modules it loads) would cost every CLI process.
    assert _entry_points_that_load("dataclasses") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--periods", "3"],
        ["verify", "--periods", "1"],
        ["verify", "--periods", "2", "--format", "json"],
    ],
)
def test_dense_commands_load_numpy_on_first_use(argv):
    script = f"""
import json, sys
import qbinomial.cli
before = "numpy" in sys.modules
qbinomial.cli.main.main(args={argv!r}, prog_name="qbinomial", standalone_mode=False)
print(json.dumps([before, "numpy" in sys.modules]))
"""
    assert _fresh_interpreter(script) == [False, True]


def test_every_public_name_resolves():
    script = """
import json
import qbinomial
oracle = qbinomial.oracle
namespace = {}
exec("from qbinomial import *", namespace)
names = set(qbinomial.__all__)
print(json.dumps({
    "unresolved": sorted(n for n in names if getattr(qbinomial, n, None) is None),
    "not_starred": sorted(names - set(namespace)),
    "not_listed": sorted(names - set(dir(qbinomial))),
    "oracle_names": namespace["mb_weight"] is oracle.mb_weight,
}))
"""
    assert _fresh_interpreter(script) == {
        "unresolved": [],
        "not_starred": [],
        "not_listed": [],
        "oracle_names": True,
    }
    with pytest.raises(AttributeError):
        qbinomial.not_a_name  # noqa: B018


def test_dir_lists_the_oracle_names_without_loading_the_oracle():
    script = """
import json, sys
import qbinomial
names = dir(qbinomial)
print(json.dumps({
    "missing": sorted(set(qbinomial.__all__) - set(names)),
    "oracle_names": "mb_weight" in names and "run_identity_checks" in names,
    "oracle_loaded": "qbinomial.oracle" in sys.modules,
}))
"""
    assert _fresh_interpreter(script) == {"missing": [], "oracle_names": True, "oracle_loaded": False}


def test_pauli_constants_resolve_on_first_use():
    assert np.array_equal(bloch.I2, np.eye(2))
    assert np.array_equal(bloch.SIGMA_X @ bloch.SIGMA_Y, 1j * bloch.SIGMA_Z)
    assert bloch.SIGMA_Z.dtype == complex
    with pytest.raises(AttributeError):
        bloch.SIGMA_W  # noqa: B018


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "qbinomial").glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # __init__.py re-exports its imports through __all__, so it is not checked.
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
