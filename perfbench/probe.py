"""Set-up time in a fresh interpreter.

Usage: python3 perfbench/probe.py <module> [<operation spec as JSON>]

Imports the module (qbinomial or qbinomial.cli, or numpy for the
reference probe), performs the one operation once if a spec is given,
and prints the seconds from the start of this script to the end. An
operation that fails still counts as done: the time is what set-up
costs either way.
"""
import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    importlib.import_module(sys.argv[1])
    if len(sys.argv) > 2:
        import ops

        operation = ops.prepare(json.loads(sys.argv[2]), cli_in_process=True)
        try:
            operation()
        except Exception:  # noqa: BLE001 - a failing warm-up still ends set-up
            pass
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
