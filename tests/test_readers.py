"""Every module under ``src/repro`` has a reader outside the tests.

A module is *read* when something the program or its benchmarks run
imports it: the roots are ``repro.__main__`` (the CLI), the frozen
``bench/*.py`` and the figure suite ``benchmarks/*.py``; from there every
import of a read module is followed, function-local ones included. A
package ``__init__``'s own imports are not followed, since they only
re-export. ``from pkg import Name`` and ``pkg.Name`` are resolved at run
time to the module that defines ``Name``, so a name reached through a
re-export reads the module behind it. A module no root reaches is code only
its own tests run; it belongs in ``tests/`` or nowhere.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set

import repro

ROOT = Path(__file__).resolve().parents[1]
ROOT_FILES = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _defining_module(module: str, attrs: List[str]) -> str:
    """The module that defines ``module.attrs[0].attrs[1]...``: submodules
    are descended into, and the first non-module attribute names the module
    it was defined in (its own module when it carries no ``__module__``)."""
    target = module
    obj = importlib.import_module(module)
    for attr in attrs:
        if _is_module(f"{target}.{attr}"):
            target = f"{target}.{attr}"
            obj = importlib.import_module(target)
            continue
        owner = getattr(getattr(obj, attr, None), "__module__", None)
        if isinstance(owner, str) and _is_repro(owner):
            target = owner
        break
    return target


def _dotted(node: ast.expr) -> List[str]:
    """``a.b.c`` as ``["a", "b", "c"]``; empty for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    return parts[::-1]


def _reads(path: Path, package: str) -> Iterator[str]:
    """The repro modules one source file reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: Dict[str, str] = {}  # local name -> repro module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name
                    top = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            if not _is_repro(module):
                continue
            for alias in node.names:
                target = _defining_module(module, [alias.name])
                yield target
                if _is_module(f"{module}.{alias.name}"):
                    bound[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else []
        if parts and parts[0] in bound:
            yield _defining_module(bound[parts[0]], parts[1:])


def _module_file(name: str) -> Path:
    return Path(importlib.util.find_spec(name).origin)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def read_modules() -> Set[str]:
    """Every repro module some root reaches."""
    read: Set[str] = set()
    pending = [(path, "") for path in ROOT_FILES] + [(_module_file("repro.__main__"), "repro")]
    read.add("repro.__main__")
    while pending:
        path, package = pending.pop()
        for module in _reads(path, package):
            for name in _with_parents(module):
                if name in read:
                    continue
                read.add(name)
                origin = _module_file(name)
                if origin.name != "__init__.py":
                    pending.append((origin, name.rpartition(".")[0]))
    return read


def all_modules() -> Set[str]:
    names = {"repro"}
    names.update(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
    return names


def test_every_module_has_a_reader():
    unread = sorted(all_modules() - read_modules())
    assert unread == [], (
        f"no root (repro.__main__, bench/*.py, benchmarks/*.py) reads {unread}: "
        "delete them, or move them next to the tests that are their only reader"
    )


def test_cli_import_skips_the_ablation_only_modules():
    """``import repro.cli`` (every CLI start) loads no module that only the
    R-tree ablation reads, so no package ``__init__`` re-exports one."""
    code = "import sys, repro.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = set(subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split())
    assert "repro.cli" in loaded
    assert sorted(loaded & {"repro.spatial.rtree", "repro.cube.sensorcube"}) == []
