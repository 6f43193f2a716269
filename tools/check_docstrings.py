#!/usr/bin/env python
"""Docstring-coverage gate for the public API under ``src/repro``.

Walks every module, collects public objects (modules, classes,
functions, methods whose names do not start with ``_``), and fails
when any of them lacks a docstring — unless it is listed in the
baseline allowlist (``tools/docstring_baseline.txt``), which records
the legacy debt explicitly so new code cannot add to it.  The gate
also fails on stale baseline entries (names now documented or gone),
so the allowlist can only shrink.

Usage::

    python tools/check_docstrings.py             # gate (exit 1 on new or stale debt)
    python tools/check_docstrings.py --stats     # coverage summary
    python tools/check_docstrings.py --write-baseline  # refresh allowlist

The checker is purely syntactic (``ast``), so it runs in milliseconds
and needs no imports of the package under test.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
BASELINE = Path(__file__).resolve().parent / "docstring_baseline.txt"

#: Dunder methods are exempt: their contracts are defined by the data
#: model, and re-stating them adds nothing.
EXEMPT_METHODS = {"__init__"}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _has_docstring(node) -> bool:
    doc = ast.get_docstring(node, clean=False)
    return bool(doc and doc.strip())


def _overload_or_property_setter(node) -> bool:
    """Setters/deleters re-document their getter; ``@overload`` stubs
    document on the implementation."""
    for deco in node.decorator_list:
        text = ast.unparse(deco)
        if text.endswith((".setter", ".deleter")) or text == "overload":
            return True
    return False


def iter_missing(path: Path) -> Iterator[Tuple[str, str]]:
    """Yield ``(qualified_name, kind)`` for public objects in ``path``
    that lack a docstring."""
    rel = path.relative_to(SRC).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    module = ".".join(("repro", *parts))
    tree = ast.parse(path.read_text(), filename=str(path))

    if not _has_docstring(tree):
        yield module, "module"

    def walk(node, prefix: str, depth: int):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    qual = f"{prefix}.{child.name}"
                    if not _has_docstring(child):
                        yield qual, "class"
                    yield from walk(child, qual, depth + 1)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if not _is_public(child.name):
                    continue  # private + dunders (incl. __init__)
                if _overload_or_property_setter(child):
                    continue
                qual = f"{prefix}.{child.name}"
                if not _has_docstring(child):
                    kind = "method" if depth else "function"
                    yield qual, kind

    yield from walk(tree, module, 0)


def collect() -> Tuple[List[Tuple[str, str]], int]:
    """All missing docstrings plus the total public-object count."""
    missing: List[Tuple[str, str]] = []
    total = 0

    def count_public(path: Path) -> int:
        tree = ast.parse(path.read_text(), filename=str(path))
        n = 1  # the module itself
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ) and _is_public(node.name):
                n += 1
        return n

    for path in sorted(SRC.rglob("*.py")):
        total += count_public(path)
        missing.extend(iter_missing(path))
    return missing, total


def load_baseline() -> set:
    """Names grandfathered by ``docstring_baseline.txt``."""
    if not BASELINE.exists():
        return set()
    lines = BASELINE.read_text().splitlines()
    return {
        line.strip()
        for line in lines
        if line.strip() and not line.startswith("#")
    }


def main(argv=None) -> int:
    """Run the gate; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the allowlist with the current missing set",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print coverage numbers and exit 0",
    )
    args = parser.parse_args(argv)

    missing, total = collect()
    names = {name for name, _kind in missing}

    if args.write_baseline:
        lines = [
            "# Docstring debt allowlist — names here predate the gate.",
            "# Shrink this file; never grow it.  Regenerate with:",
            "#   python tools/check_docstrings.py --write-baseline",
        ]
        lines += sorted(names)
        BASELINE.write_text("\n".join(lines) + "\n")
        print(f"baseline written: {len(names)} entries")
        return 0

    baseline = load_baseline()
    covered = total - len(names)
    if args.stats:
        pct = 100.0 * covered / total if total else 100.0
        print(
            f"docstring coverage: {covered}/{total} public objects "
            f"({pct:.1f}%); baseline debt: {len(baseline & names)}"
        )
        return 0

    new_debt = sorted(names - baseline)
    stale = sorted(baseline - names)
    if stale:
        print(
            f"{len(stale)} baseline entries are documented or no longer "
            "exist — remove them from tools/docstring_baseline.txt:\n  "
            + "\n  ".join(stale)
        )
    if new_debt:
        kinds = dict(missing)
        print(f"{len(new_debt)} public object(s) lack docstrings:")
        for name in new_debt:
            print(f"  {name}  ({kinds[name]})")
        print(
            "\nAdd docstrings (preferred) or, for legacy code only, "
            "add the names to tools/docstring_baseline.txt."
        )
    if stale or new_debt:
        return 1
    print(
        f"docstring gate OK: {covered}/{total} documented, "
        f"{len(baseline & names)} grandfathered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
