#!/usr/bin/env python3
"""Docstring lint for the documented-API packages.

Stand-in for ``pydocstyle`` / ``ruff --select D`` (neither is a runtime
dependency of this repo): walks the AST of every module in the packages
whose API we commit to documenting — ``repro.core``, ``repro.obs`` and
``repro.parallel`` — and fails if any public module, class, function or
method lacks a docstring (D100-D103) or starts it with a blank line
(D210-ish sanity check).

Public means: name does not start with ``_``, or is ``__init__`` on a
public class whose constructor takes documented arguments (we exempt
``__init__`` — the class docstring carries the contract) and dunders in
general. Nested (function-local) definitions are private by construction.

Usage::

    python tools/check_docstrings.py [--root src/repro] [pkg ...]

Exit status 0 when clean, 1 with a per-symbol report otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Package directories under ``--root``.
DEFAULT_PACKAGES = ("core", "obs", "parallel", "serve", "storage", "ingest")


def is_public(name: str) -> bool:
    return not name.startswith("_")


def iter_definitions(tree: ast.Module):
    """Yield (node, kind, qualname) for module-level defs and class bodies."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, "function", node.name
        elif isinstance(node, ast.ClassDef):
            yield node, "class", node.name
            if not is_public(node.name):
                continue  # a private class's methods are private too
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, "method", f"{node.name}.{child.name}"


def check_module(path: Path, rel: Path) -> list[str]:
    problems: list[str] = []
    tree = ast.parse(path.read_text(), filename=str(path))

    def report(lineno: int, message: str) -> None:
        problems.append(f"{rel}:{lineno}: {message}")

    if ast.get_docstring(tree) is None:
        report(1, "D100 missing module docstring")

    for node, kind, qualname in iter_definitions(tree):
        simple_name = qualname.rsplit(".", 1)[-1]
        if not is_public(simple_name):
            continue
        doc = ast.get_docstring(node)
        if doc is None:
            code = {"class": "D101", "function": "D103", "method": "D102"}[kind]
            report(node.lineno, f"{code} missing docstring on {kind} {qualname}")
        elif not doc.strip():
            report(node.lineno, f"D419 empty docstring on {kind} {qualname}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src/repro", type=Path)
    parser.add_argument("packages", nargs="*", default=list(DEFAULT_PACKAGES))
    args = parser.parse_args(argv)

    problems: list[str] = []
    checked = 0
    for package in args.packages:
        base = args.root / package
        if not base.is_dir():
            print(f"error: no such package directory: {base}", file=sys.stderr)
            return 2
        paths = sorted(base.rglob("*.py"))
        for path in paths:
            checked += 1
            problems.extend(check_module(path, path.relative_to(args.root.parent)))

    for line in problems:
        print(line)
    summary = f"{checked} modules checked, {len(problems)} problem(s)"
    print(("FAIL: " if problems else "OK: ") + summary, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
