"""Which entry points load numpy, dataclasses and the quantum layer, and which names each module imports.

Scalar pricing and disk sampling (the package import, the CLI import, and
the price, sweep and disk commands, in every model) never load numpy or
dataclasses; the dense paths of verify load numpy on first use and still work.
Lattice pricing never loads the quantum layer (bloch and disk); the quantum
entry points load it on first use. The same holds for the CLI: its import,
`price` in the mb, be and classical models and `sweep` never load the quantum
layer, and `disk`, `price --model quantum_single` and `verify` load it when
they run; `qbinomial.cli` forwards its three disk names to `qbinomial.disk`.
The CLI's cold path (qbinomial._cli_cold: help pages, did-you-mean hints
and config files) loads only for the no-argument page, --help, a refused
command line and --config, and imports nothing from qbinomial.cli, so
`python -m qbinomial.cli` loads cli.py once. json loads only for the json
format and csv never, so a table- or csv-format command loads none of the three.
Each check runs in a fresh interpreter, because this test process has numpy
and the whole package loaded already.
"""
from __future__ import annotations

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbinomial
from qbinomial import bloch

SRC = Path(__file__).resolve().parents[1] / "src"

# The commands that never load the quantum layer, and those that load it when they run.
LATTICE_COMMANDS = [
    ["price", "--model", "mb", "--periods", "2"],
    ["price", "--model", "be", "--periods", "2"],
    ["price", "--model", "classical"],
    ["sweep", "--periods", "20"],
]
QUANTUM_COMMANDS = [["price", "--model", "quantum_single"], ["disk", "--samples", "0"], ["disk", "--samples", "4"]]
NUMPY_FREE_COMMANDS = LATTICE_COMMANDS + QUANTUM_COMMANDS


def _env(*paths: Path) -> dict[str, str]:
    """This process's environment, with `paths` and then src/ ahead of PYTHONPATH."""
    path = [*map(str, paths), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _fresh_interpreter(script: str):
    """Run `script` in a new interpreter that imports qbinomial from src/.

    The script's last stdout line is JSON; it is returned parsed.
    """
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_by_steps(steps: list[str], modules: list[str]) -> dict[str, list[str]]:
    """Run the statements `steps` in order in one fresh interpreter; map each to the `modules` it loads.

    Each step is charged only with what it adds to sys.modules, so a module
    that the interpreter's start-up already loaded is charged to no step.
    """
    script = f"""
import json, sys
loaded_by = {{}}
for step in {steps!r}:
    before = set(sys.modules)
    exec(step)
    loaded_by[step] = sorted(set({modules!r}) & set(sys.modules) - before)
print(json.dumps(loaded_by))
"""
    return _fresh_interpreter(script)


def _cli_step(argv: list[str]) -> str:
    """The statement that runs the command line `argv` through qbinomial.cli in this process."""
    return f"qbinomial.cli.main.main(args={argv!r}, prog_name='qbinomial', standalone_mode=False)"


CLI_STEPS = ["import qbinomial", "import qbinomial.cli", *map(_cli_step, NUMPY_FREE_COMMANDS)]


def _entry_points_that_load(module: str) -> list[str]:
    """The scalar entry points, run in order, that add `module` to sys.modules."""
    return [step for step, loaded in _loaded_by_steps(CLI_STEPS, [module]).items() if loaded]


def test_scalar_entry_points_never_load_numpy():
    assert _entry_points_that_load("numpy") == []


def test_entry_points_never_load_dataclasses():
    # The value types are slotted records; dataclasses' code generation (and
    # the inspect, ast and dis modules it loads) would cost every CLI process.
    assert _entry_points_that_load("dataclasses") == []


def test_entry_points_never_load_click():
    # click is a test dependency only: the CLI parses its own command line.
    assert _entry_points_that_load("click") == []


# A sitecustomize module, which site imports at start-up, that makes click unimportable.
NO_CLICK = """
import sys


class NoClick:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "click":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, NoClick())
"""


def test_python_m_qbinomial_runs_without_click(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(NO_CLICK)
    env = _env(tmp_path)

    def run(*argv: str) -> tuple[int, str, str]:
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    help_page = golden["help-main"]["stdout"].replace("Usage: main", "Usage: python -m qbinomial")
    assert run("-c", "import click")[0] == 1  # the finder blocks click
    assert run("-m", "qbinomial", "price", "--periods", "2") == (0, golden["price-mb-n2-table"]["stdout"], "")
    assert run("-m", "qbinomial", "--help") == (0, help_page, "")


SUBMODULES = sorted(f"qbinomial.{p.stem}" for p in (SRC / "qbinomial").glob("*.py") if p.stem != "__init__")
QUANTUM_LAYER = ["qbinomial.bloch", "qbinomial.disk"]

LATTICE_STEPS = [
    "import qbinomial",
    "from qbinomial import market, pricing",
    "p, spec = market.MarketParams(1.0, 100.0, 0.05, -0.1, 0.2), pricing.CallSpec(100.0)",
    "call = lambda s: max(s - 100.0, 0.0)",
    "pricing.mb_price(p, spec, 8)",
    "pricing.be_price(p, spec, 8)",
    "pricing.mb_payoff_price(p, call, 8)",
    "pricing.be_payoff_price(p, call, 8)",
    "pricing.convergence_sweep(p, spec, 8, 'mb')",
    "pricing.single_period_price(p, pricing.call_two_point(p, spec))",
]


def test_lattice_pricing_loads_only_market_and_pricing():
    loaded_by = _loaded_by_steps(LATTICE_STEPS, SUBMODULES)
    assert loaded_by.pop("import qbinomial") == ["qbinomial.market", "qbinomial.pricing"]
    assert loaded_by == dict.fromkeys(LATTICE_STEPS[1:], [])


@pytest.mark.parametrize(
    "steps, loaded",
    [
        (["pricing.quantum_single_price(p, pricing.call_two_point(p, spec))"], QUANTUM_LAYER),
        (["qbinomial.sample_disk"], QUANTUM_LAYER),
        (["qbinomial.market.risk_neutral_disk"], QUANTUM_LAYER),
        # building the state and the observable loads bloch, so the price itself loads only the disk
        (
            [
                "from qbinomial.bloch import BlochVector, DensityState, make_observable",
                "state = DensityState(BlochVector(0.0, 0.0, 0.0))",
                "obs = make_observable(-0.1, 0.2, BlochVector(0.0, 0.0, 1.0))",
                "pricing.single_period_trace_price(p, pricing.call_two_point(p, spec), state, obs)",
            ],
            ["qbinomial.disk"],
        ),
    ],
    ids=["quantum_single_price", "sample_disk", "market.risk_neutral_disk", "single_period_trace_price"],
)
def test_quantum_entry_points_load_the_quantum_layer_on_first_use(steps, loaded):
    assert _loaded_by_steps(LATTICE_STEPS + steps, SUBMODULES)[steps[-1]] == loaded


def test_lattice_commands_never_load_the_quantum_layer():
    steps = ["import qbinomial.cli", *map(_cli_step, LATTICE_COMMANDS)]
    assert _loaded_by_steps(steps, QUANTUM_LAYER) == dict.fromkeys(steps, [])


@pytest.mark.parametrize("argv", [*QUANTUM_COMMANDS, ["verify", "--periods", "1"]], ids=" ".join)
def test_quantum_commands_load_the_quantum_layer_when_they_run(argv):
    steps = ["import qbinomial.cli", _cli_step(argv)]
    assert _loaded_by_steps(steps, QUANTUM_LAYER) == {steps[0]: [], steps[1]: QUANTUM_LAYER}


COLD_PATH = "qbinomial._cli_cold"


CSV_COMMANDS = [["price", "--format", "csv"], ["sweep", "--periods", "3", "--format", "csv"],
                ["disk", "--samples", "2", "--format", "csv"]]


def test_commands_run_from_flags_never_load_the_cold_path_or_csv():
    # NUMPY_FREE_COMMANDS are in the default table format; _emit joins csv rows itself too
    steps = CLI_STEPS + [_cli_step(argv) for argv in CSV_COMMANDS]
    assert _loaded_by_steps(steps, [COLD_PATH, "csv"]) == dict.fromkeys(steps, [])


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["price", "--help"], ["prce"], ["price", "--perods", "2"], ["price", "--config", "{config}"]],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_help_hints_and_config_load_the_cold_path(argv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"periods": 2}')
    # the no-argument page and a refused command line exit 2, which the step catches
    run = _cli_step([arg.format(config=config) for arg in argv])
    steps = ["import qbinomial.cli", f"try:\n    {run}\nexcept SystemExit:\n    pass"]
    assert _loaded_by_steps(steps, [COLD_PATH, "csv"]) == {steps[0]: [], steps[1]: [COLD_PATH]}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["price", "--periods", "2"], []),
        (["sweep", "--periods", "5"], []),
        (["price", "--format", "json"], ["json"]),
        (["price", "--format", "csv"], []),
        (["--help"], [COLD_PATH]),
    ],
    ids=["price", "sweep", "price json", "price csv", "help"],
)
def test_whole_processes_load_json_csv_and_the_cold_path_only_on_use(argv, loaded):
    # _loaded_by_steps imports json itself, so a whole process is read by -X importtime, as CI does
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qbinomial", *argv], env=_env(),
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert sorted(imported & {COLD_PATH, "csv", "json"}) == loaded


def test_python_m_qbinomial_cli_runs_its_cold_path_without_loading_cli_again():
    # under -m, cli.py runs as __main__; the cold path importing from qbinomial.cli would load it a second time
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qbinomial.cli", "--help"], env=_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert COLD_PATH in imported
    assert "qbinomial.cli" not in imported


def test_cli_forwards_its_disk_names_to_disk():
    script = """
import json, sys
import qbinomial.cli as cli
try:
    cli.not_a_name
except AttributeError as error:
    unknown = str(error)
before = "qbinomial.disk" in sys.modules
forwarded = cli.sample_disk
loaded = "qbinomial.disk" in sys.modules
import qbinomial.disk as disk
print(json.dumps({
    "before": before,
    "loaded": loaded,
    "unknown": unknown,
    "sample_disk": forwarded is disk.sample_disk,
    "others": [cli.risk_neutral_disk is disk.risk_neutral_disk, cli.default_observable is disk.default_observable],
}))
"""
    assert _fresh_interpreter(script) == {
        "before": False,
        "loaded": True,
        "unknown": "module 'qbinomial.cli' has no attribute 'not_a_name'",
        "sample_disk": True,
        "others": [True, True],
    }


# What market defined or imported before its disk half moved to qbinomial.disk.
FORWARDED = [
    "BlochVector", "DensityState", "MEMBERSHIP_TOL", "RiskNeutralDisk", "TOL", "TwoLevelObservable",
    "check_observable", "default_observable", "disk_contains", "is_faithful", "make_observable",
    "risk_neutral_disk", "sample_disk",
]


def test_market_forwards_only_its_listed_names_to_disk():
    script = f"""
import json, sys
import qbinomial.market as market
probes = [getattr(market, "__module__", None), hasattr(market, "__path__")]
try:
    market.not_a_name
except AttributeError as error:
    unknown = str(error)
probes_loaded_disk = "qbinomial.disk" in sys.modules
import qbinomial.disk as disk
print(json.dumps({{
    "probes": probes,
    "probes_loaded_disk": probes_loaded_disk,
    "unknown": unknown,
    "not_forwarded": [n for n in {FORWARDED!r} if getattr(market, n) is not getattr(disk, n)],
}}))
"""
    assert _fresh_interpreter(script) == {
        "probes": [None, False],
        "probes_loaded_disk": False,
        "unknown": "module 'qbinomial.market' has no attribute 'not_a_name'",
        "not_forwarded": [],
    }


def test_a_disk_pickled_before_the_split_loads_through_the_forward():
    # pickle.dumps(RiskNeutralDisk(BlochVector(0.0, 0.0, 1.0), 0.6, 0.8)) when the class lived in qbinomial.market
    blob = (
        b"\x80\x04\x95\x7f\x00\x00\x00\x00\x00\x00\x00\x8c\x10qbinomial.market\x94\x8c\x0fRiskNeutralDisk"
        b"\x94\x93\x94\x8c\x0fqbinomial.bloch\x94\x8c\x0bBlochVector\x94\x93\x94G\x00\x00\x00\x00\x00\x00"
        b"\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00\x87\x94R\x94G?\xe33333"
        b"33G?\xe9\x99\x99\x99\x99\x99\x9a\x87\x94R\x94."
    )
    assert pickle.loads(blob) == qbinomial.RiskNeutralDisk(qbinomial.BlochVector(0.0, 0.0, 1.0), 0.6, 0.8)


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
