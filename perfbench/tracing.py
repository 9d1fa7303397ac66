"""Spans around qbinomial's layer functions, installed from outside.

The traced run rebinds module attributes to timing wrappers: the
function in its own module and every `from .x import f` copy of it in
the other qbinomial modules, the click command callbacks, and numpy's
kron and linalg.eigh as the oracle module sees them. Nothing is
installed in untraced runs. Spans (name, start, end, parent, measure)
are kept in flat arrays in memory and written out when the workload
ends. A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

# layer -> [(function, has child spans)]; the layers are qbinomial's modules.
LAYERS: dict[str, list[tuple[str, bool]]] = {
    "pricing": [
        ("mb_price", True),
        ("be_price", True),
        ("mb_payoff_price", True),
        ("be_payoff_price", True),
        ("complementary_binomial", False),
        ("crr_cutoff_tau", False),
        ("be_weights", True),
        ("convergence_sweep", True),
    ],
    "oracle": [
        ("run_identity_checks", True),
        ("mb_weight", True),
        ("oracle_price_mb", True),
        ("build_stock_operator", True),
        ("build_product_state", True),
        ("symmetric_isometry", True),
        ("build_symmetric_be_state", True),
        ("classical_path_enumeration", True),
        ("kron", False),
        ("eigh", False),
    ],
    "market": [
        ("sample_disk", False),
        ("risk_neutral_disk", False),
        ("classical_risk_neutral_q", False),
    ],
    "bloch": [
        ("make_observable", False),
        ("eigenbasis", False),
        ("is_faithful", False),
    ],
    "cli": [
        ("main", True),
        ("price", True),
        ("disk", True),
        ("verify", True),
        ("sweep", True),
    ],
}

# Pricing routes that evaluate an N-period lattice; each counts N+1 nodes.
ROUTES = ("mb_price", "be_price", "mb_payoff_price", "be_payoff_price")


def _periods_nodes(args: tuple, kwargs: dict, result: Any) -> int:
    return int(kwargs.get("periods", args[2] if len(args) > 2 else 0)) + 1


def _bytes_out(args: tuple, kwargs: dict, result: Any) -> int:
    return 0 if result is None else int(result.nbytes)


class _View:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, target: Any, **replaced: Any):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class Tracer:
    """Records spans from wrappers it installs; `uninstall` restores everything."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.measure = array("q")
        self._stack = [-1]
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """`fn` recording one span per call; returns and raises exactly as `fn`."""
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, measures = self.name_, self.start, self.end, self.parent, self.measure
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            measures.append(0)
            stack.append(idx)
            result = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                if measure is not None:
                    measures[idx] = measure(args, kwargs, result)

        return traced

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old) if had_own else delattr(owner, attr))

    def install(self) -> None:
        """Wrap every LAYERS function wherever qbinomial has bound it."""
        from qbinomial import cli, oracle

        modules = [m for n, m in sys.modules.items() if n == "qbinomial" or n.startswith("qbinomial.")]
        for layer, functions in LAYERS.items():
            for fn_name, _ in functions:
                name = f"{layer}.{fn_name}"
                if layer == "cli":
                    if fn_name == "main":
                        self._rebind(cli.main, "main", self.wrap(name, cli.main.main))
                    else:
                        command = cli.main.commands[fn_name]
                        self._rebind(command, "callback", self.wrap(name, command.callback))
                    continue
                if fn_name in ("kron", "eigh"):
                    continue
                original = getattr(sys.modules[f"qbinomial.{layer}"], fn_name)
                wrapper = self.wrap(name, original, _periods_nodes if fn_name in ROUTES else None)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        numpy = oracle.np
        linalg = _View(numpy.linalg, eigh=self.wrap("oracle.eigh", numpy.linalg.eigh))
        self._rebind(
            oracle, "np", _View(numpy, kron=self.wrap("oracle.kron", numpy.kron, _bytes_out), linalg=linalg)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "measure": np.frombuffer(self.measure, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summarize(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans recorded in `wall_s` seconds of traced wall time."""
        a = self.arrays()
        count = len(self.names)
        name, parent, measure = a["name"], a["parent"], a["measure"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        own = duration - children
        calls = np.bincount(name, minlength=count)
        total = np.bincount(name, weights=duration, minlength=count)
        self_time = np.bincount(name, weights=own, minlength=count)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {n: i for i, n in enumerate(self.names)}

        metrics: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            layer_self = 0.0
            for fn_name, has_children in functions:
                i = ids[f"{layer}.{fn_name}"]
                metrics[f"{layer}.{fn_name}.calls"] = int(calls[i])
                metrics[f"{layer}.{fn_name}.total_s"] = float(total[i])
                if has_children:
                    metrics[f"{layer}.{fn_name}.self_s"] = float(self_time[i])
                layer_self += float(self_time[i])
            metrics[f"{layer}.self_s"] = layer_self
        metrics["bench.self_s"] = wall_s - float(duration[~has_parent].sum())

        mb_price = ids["pricing.mb_price"]
        selfcheck = (name == ids["pricing.mb_payoff_price"]) & (parent_name == mb_price)
        metrics["pricing.selfcheck_share"] = (
            float(duration[selfcheck].sum() / total[mb_price]) if total[mb_price] > 0 else 0.0
        )
        route_ids = [ids[f"pricing.{r}"] for r in ROUTES]
        outermost_route = np.isin(name, route_ids) & ~np.isin(parent_name, route_ids)
        metrics["pricing.lattice_nodes"] = int(measure[outermost_route].sum())
        metrics["oracle.kron.bytes_out"] = int(measure[name == ids["oracle.kron"]].sum())
        return metrics


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units: dict[str, tuple[str, str]] = {}
    for layer, functions in LAYERS.items():
        for fn_name, has_children in functions:
            units[f"{layer}.{fn_name}.calls"] = ("count", "lower")
            units[f"{layer}.{fn_name}.total_s"] = ("s", "lower")
            if has_children:
                units[f"{layer}.{fn_name}.self_s"] = ("s", "lower")
        units[f"{layer}.self_s"] = ("s", "lower")
    units.update(
        {
            "bench.self_s": ("s", "lower"),
            "pricing.selfcheck_share": ("ratio", "lower"),
            "pricing.lattice_nodes": ("count", "higher"),
            "oracle.kron.bytes_out": ("bytes_computed", "lower"),
            "cli.interpreter_s": ("s", "lower"),
            "cli.import_s": ("s", "lower"),
            "trace_overhead_ratio": ("ratio", "higher"),
            "known_defects.failed_ratio": ("ratio", "lower"),
        }
    )
    return units
