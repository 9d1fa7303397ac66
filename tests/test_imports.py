"""Which entry points load numpy.

Scalar pricing and disk sampling (the package import, the CLI import, and
the price, sweep and disk commands) never load numpy; the dense paths load
it on first use and still work. Each check runs in a fresh interpreter,
because this test process has numpy loaded already.
"""
from __future__ import annotations

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


def test_scalar_entry_points_never_load_numpy():
    script = f"""
import json, sys
loaded_by = []
import qbinomial
if "numpy" in sys.modules:
    loaded_by.append("import qbinomial")
import qbinomial.cli
if "numpy" in sys.modules:
    loaded_by.append("import qbinomial.cli")
for argv in {NUMPY_FREE_COMMANDS!r}:
    qbinomial.cli.main.main(args=argv, prog_name="qbinomial", standalone_mode=False)
    if "numpy" in sys.modules:
        loaded_by.append(" ".join(argv))
print(json.dumps(loaded_by))
"""
    assert _fresh_interpreter(script) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--model", "quantum_single"],
        ["verify", "--periods", "3"],
        ["verify", "--periods", "1"],
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


def test_pauli_constants_resolve_on_first_use():
    assert np.array_equal(bloch.I2, np.eye(2))
    assert np.array_equal(bloch.SIGMA_X @ bloch.SIGMA_Y, 1j * bloch.SIGMA_Z)
    assert bloch.SIGMA_Z.dtype == complex
    with pytest.raises(AttributeError):
        bloch.SIGMA_W  # noqa: B018
