#!/usr/bin/env python3
"""Docstring-coverage gate over a source tree (interrogate-equivalent).

Walks Python sources with :mod:`ast` and checks that every *public*
definition — modules, classes, functions, and methods whose name does not
start with an underscore (dunders other than ``__init__`` are exempt;
``__init__`` is covered by its class docstring per numpydoc convention) —
carries a docstring.  Nested functions are skipped (they are
implementation detail), private helpers are not required but still
counted in the verbose listing.

Used two ways:

* the CI docs job runs it directly with ``--fail-under 100`` over all of
  ``src/repro``;
* ``tests/test_docstring_coverage.py`` wraps it as a tier-1 test over the
  same tree, so the gate cannot rot between CI config changes.

Exit code 0 when coverage meets ``--fail-under``, 1 otherwise (missing
definitions are listed on stderr).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: Dunder methods whose meaning is fixed by the language; their class
#: docstring documents them (numpydoc does not require per-dunder docs).
_EXEMPT_DUNDERS = frozenset({
    "__repr__", "__str__", "__eq__", "__hash__", "__iter__", "__len__",
    "__reduce__", "__post_init__", "__enter__", "__exit__", "__getitem__",
    "__contains__", "__call__", "__init__",
})


def _is_public(name: str) -> bool:
    """Public means no leading underscore (dunders handled separately)."""
    if name.startswith("__") and name.endswith("__"):
        return name not in _EXEMPT_DUNDERS
    return not name.startswith("_")


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand file/package paths into the list of ``.py`` files to audit."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or package dir: {raw}")
    return files


def audit_file(path: Path) -> Tuple[List[str], List[str]]:
    """Audit one file; returns (covered, missing) public definition names.

    Names are qualified as ``file:Class.method`` so the failure listing
    is directly actionable.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    covered: List[str] = []
    missing: List[str] = []

    def record(node: ast.AST, qualname: str) -> None:
        if ast.get_docstring(node):
            covered.append(qualname)
        else:
            missing.append(qualname)

    record(tree, f"{path}:<module>")

    def walk(body, prefix: str) -> None:
        # Only module and class bodies are walked, so every definition
        # seen here is module- or class-level (nested functions are
        # implementation detail and stay exempt).
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_public(node.name):
                    record(node, f"{path}:{prefix}{node.name}")
                    walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name):
                    record(node, f"{path}:{prefix}{node.name}")

    walk(tree.body, "")
    return covered, missing


def main(argv=None) -> int:
    """CLI entry point; prints a summary and returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="python files or package directories to audit")
    parser.add_argument("--fail-under", type=float, default=100.0,
                        help="minimum coverage percent (default 100)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list every audited definition")
    args = parser.parse_args(argv)

    covered: List[str] = []
    missing: List[str] = []
    for path in iter_python_files(args.paths):
        c, m = audit_file(path)
        covered.extend(c)
        missing.extend(m)

    total = len(covered) + len(missing)
    coverage = 100.0 * len(covered) / total if total else 100.0
    if args.verbose:
        for name in covered:
            print(f"ok      {name}")
    for name in missing:
        print(f"MISSING {name}", file=sys.stderr)
    print(f"docstring coverage: {len(covered)}/{total} public definitions "
          f"({coverage:.1f} %), fail-under {args.fail_under:g} %")
    return 0 if coverage >= args.fail_under else 1


if __name__ == "__main__":
    sys.exit(main())
