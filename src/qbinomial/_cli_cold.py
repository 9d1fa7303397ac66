"""The CLI's cold path: help pages, did-you-mean hints and config files.

No command that runs from flags alone uses these, so `qbinomial.cli` imports
this module only in the branches that need it (the no-argument page, --help,
a refused command line and --config) and a pricing process never compiles it.
It imports nothing from qbinomial.cli: what it needs of the CLI's tables comes
in as arguments, so a `python -m qbinomial.cli` process does not load cli.py a
second time under its package name.
"""
from __future__ import annotations

from typing import Any


def _read_config(path: str, known: Any) -> dict[str, Any]:
    """The config file's settings, each a key of `known`; the market ones nest under "market"."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a file that is not UTF-8
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValueError("config must be a JSON object")
    settings = {}
    for key, value in loaded.items():
        if key == "market" and not isinstance(value, dict):
            raise ValueError("config key 'market' must be an object")
        prefix, items = ("market.", value.items()) if key == "market" else ("", [(key, value)])
        for name, setting in items:
            if "." in name or prefix + name not in known:
                raise ValueError(f"unknown config key: {prefix}{name}")
            settings[prefix + name] = setting
    return settings


def _did_you_mean(name: str, known: Any) -> str:
    """The hint after an unknown name: its close matches among `known`, or ""."""
    from difflib import get_close_matches

    matches = sorted(get_close_matches(name, known))
    quoted = ", ".join(map(repr, matches))
    if not matches:
        return ""
    return f" Did you mean {quoted}?" if len(matches) == 1 else f" (Did you mean one of: {quoted}?)"


def _metavar(kind: Any, type_names: dict[Any, str]) -> str:
    return f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else type_names.get(kind, kind or "").upper()


def _help_page(usage: str, doc: str, options: dict[str, Any], commands: list[tuple[str, str]],
               type_names: dict[Any, str]) -> str:
    """A help page in click's 80-column layout: a term over 30 columns puts its help on the next line."""
    terms = [(f"{flag} {_metavar(kind, type_names)}".rstrip(), text) for flag, (_, kind, text) in options.items()]
    lines = [f"Usage: {usage}", "", f"  {doc}"]
    for title, rows in [("Options", terms), ("Commands", commands)]:
        if not rows:
            continue
        width = min(max(len(term) for term, _ in rows), 30) + 2
        lines += ["", f"{title}:", *(f"  {term:<{width}}{text}" if len(term) <= width - 2
                                     else f"  {term}\n{'':{width + 2}}{text}" for term, text in rows)]
    return "\n".join(lines)
