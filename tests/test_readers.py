"""Every module, public function and public class under ``src/repro`` has
a reader outside the tests.

A module is *read* when something the program, its benchmarks, its
examples or its smoke scripts run imports it: the roots are
``repro.__main__`` (the CLI), the frozen ``bench/*.py``, the figure suite
``benchmarks/*.py``, ``examples/*.py`` and the inline Python
(``python - <<'PY'``) of ``tools/*.sh``; from there every import of a read
module is followed, function-local ones included. A package ``__init__``'s
own imports are not followed, since they only re-export. ``from pkg import
Name`` and ``pkg.Name`` are resolved at run time to the module that defines
``Name``, so a name reached through a re-export reads the module behind it.
A module no root reaches is code only its own tests run; it belongs in
``tests/`` or nowhere.

The same walk records which top-level functions and classes are read: a
name imported or reached as ``module.Name`` by a root or a read module, or
used bare inside its own module outside its own definition. Methods are
out of scope. Their callers are found by dynamic dispatch on an object
whose type the AST does not know, and the bench reaches some only by
string, as ``tracer.wrap(owner, "attr")`` (``bench/layers.py``), so a
name scan would report methods that do have readers.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import repro

ROOT = Path(__file__).resolve().parents[1]
ROOT_FILES = [
    path for folder in ("bench", "benchmarks", "examples") for path in sorted((ROOT / folder).glob("*.py"))
]
INLINE_PYTHON = re.compile(r"python - [^\n]*<<'PY'\n(.*?)\nPY\n", re.DOTALL)


def _root_sources() -> Iterator[Tuple[str, str]]:
    """``(source, label)`` of every root file and smoke-script block."""
    for path in ROOT_FILES:
        yield path.read_text(), str(path)
    for script in sorted((ROOT / "tools").glob("*.sh")):
        for block in INLINE_PYTHON.findall(script.read_text()):
            yield block, str(script)


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _resolve(module: str, attrs: List[str]) -> Tuple[str, Optional[str]]:
    """The module that defines ``module.attrs[0].attrs[1]...``, and the name
    it is defined under there. Submodules are descended into; the first
    non-module attribute names the module it was defined in (its own module
    when it carries no ``__module__``) and its ``__name__``. The name is
    ``None`` when every attribute is a module."""
    target = module
    obj = importlib.import_module(module)
    for attr in attrs:
        if _is_module(f"{target}.{attr}"):
            target = f"{target}.{attr}"
            obj = importlib.import_module(target)
            continue
        value = getattr(obj, attr, None)
        owner = getattr(value, "__module__", None)
        if isinstance(owner, str) and _is_repro(owner):
            return owner, getattr(value, "__name__", attr)
        return target, attr
    return target, None


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


def _reads(source: str, label: str, package: str, own: Optional[str]) -> Iterator[Tuple[str, Optional[str]]]:
    """The repro modules one source file reads, each with the top-level name
    read from it (``None`` for a bare module). ``own`` is the file's module
    name when it is a repro module: a bare name it uses that one of its own
    top-level definitions binds (outside that definition) is read too."""
    tree = ast.parse(source, filename=label)
    bound: Dict[str, str] = {}  # local name -> repro module it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name, None
                    top = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            if not _is_repro(module):
                continue
            for alias in node.names:
                target, name = _resolve(module, [alias.name])
                yield target, name
                if name is None:
                    bound[alias.asname or alias.name] = target
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else []
        if parts and parts[0] in bound:
            yield _resolve(bound[parts[0]], parts[1:])
    if own is None:
        return
    defined = {name for name, _ in _definitions(tree)}
    for top in tree.body:
        itself = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in defined and node.id != itself:
                yield own, node.id


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of a module's public top-level functions and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno


def _module_file(name: str) -> Path:
    return Path(importlib.util.find_spec(name).origin)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _walk() -> Tuple[Set[str], Set[Tuple[str, str]]]:
    """Every repro module some root reaches, and every ``(module, name)``
    top-level definition the reached files read."""
    read: Set[str] = {"repro.__main__"}
    names: Set[Tuple[str, str]] = set()
    pending = [(source, label, "", None) for source, label in _root_sources()]
    main = _module_file("repro.__main__")
    pending.append((main.read_text(), str(main), "repro", "repro.__main__"))
    while pending:
        source, label, package, own = pending.pop()
        for module, attr in _reads(source, label, package, own):
            if attr is not None:
                names.add((module, attr))
            for name in _with_parents(module):
                if name in read:
                    continue
                read.add(name)
                origin = _module_file(name)
                if origin.name != "__init__.py":
                    pending.append((origin.read_text(), str(origin), name.rpartition(".")[0], name))
    return read, names


def read_modules() -> Set[str]:
    """Every repro module some root reaches."""
    return _walk()[0]


def all_modules() -> Set[str]:
    names = {"repro"}
    names.update(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
    return names


def test_every_module_has_a_reader():
    unread = sorted(all_modules() - read_modules())
    assert unread == [], (
        f"no root (repro.__main__, bench, benchmarks, examples, tools/*.sh) reads {unread}: "
        "delete them, or move them next to the tests that are their only reader"
    )


def test_every_public_function_and_class_has_a_reader():
    names = _walk()[1]
    unread = [
        f"{module}.{name} ({_module_file(module).relative_to(ROOT)}:{line})"
        for module in sorted(all_modules())
        for name, line in _definitions(ast.parse(_module_file(module).read_text()))
        if (module, name) not in names
    ]
    assert unread == [], (
        f"no root (repro.__main__, bench, benchmarks, examples, tools/*.sh) reads {unread}: "
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
