"""The frozen ``bench/`` harness's hold on the program, checked statically.

``bench/`` cannot change with the code it measures, so a rename in ``src``
that it depends on breaks the benchmark while every other test stays
green. This test reads ``bench/*.py`` (not ``bench/tests/``) with ``ast``
and checks the three ways the harness reaches the program:

* every ``repro`` import resolves, function-local ones included;
* every ``tracer.wrap(owner, "attr", ...)`` names a callable ``owner`` has;
* every argv passed to ``python -m repro`` parses with
  :func:`repro.cli.build_parser`. Spliced flag tuples (``*extra``) are
  followed through parameters, defaults, call sites, returned values and
  module constants to every literal they can be. A value that is not a
  literal (a path, a day count) becomes the placeholder ``"1"``, so literal
  choices such as ``--scale benchmark`` are checked as written.

Everything checked is read from the bench source, so the lists cannot go
stale; a construct the resolver cannot follow fails the test rather than
being skipped.
"""

import ast
import contextlib
import importlib
import io
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.cli import build_parser
from repro.core.forest import AtypicalForest
from repro.storage.columnar import ColumnarForest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES: Dict[str, ast.Module] = {
    path.name: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(BENCH.glob("*.py"))
}
PARENT: Dict[ast.AST, ast.AST] = {}
FILE: Dict[ast.AST, str] = {}
for _name, _tree in SOURCES.items():
    for _node in ast.walk(_tree):
        FILE[_node] = _name
        for _child in ast.iter_child_nodes(_node):
            PARENT[_child] = _node

FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
#: Stands in for every argv element that is not a string literal.
PLACEHOLDER = "1"
#: ``bench/layers.py`` wraps ``type(forest)`` — whichever container the
#: served model loaded — so the attribute must exist on both.
FOREST_CONTAINERS = (AtypicalForest, ColumnarForest)

Binding = Tuple  # ("param", function, name) | ("value", expr) | ("def", node)
                 # | ("module", dotted) | ("from", module, name)
Argv = Tuple[str, ...]


def where(node: ast.AST) -> str:
    return f"bench/{FILE[node]}:{node.lineno}"


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _bench_file(module: str) -> Optional[str]:
    """``<x>.py`` for the module ``bench.<x>``, else None."""
    head, _, tail = module.partition(".")
    return f"{tail}.py" if head == "bench" and f"{tail}.py" in SOURCES else None


# ----------------------------------------------------------------------
# Name resolution over the bench sources
# ----------------------------------------------------------------------
def _scopes(node: ast.AST) -> Iterator[ast.AST]:
    """The functions enclosing ``node``, innermost first, then its module."""
    while node in PARENT:
        node = PARENT[node]
        if isinstance(node, FUNCTION + (ast.Module,)):
            yield node


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope``'s body, not descending into nested definitions."""
    stack = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTION + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _params(function: ast.AST) -> List[str]:
    args = function.args
    return [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs]


def _lookup(scope: ast.AST, name: str) -> Optional[Binding]:
    """The binding of ``name`` made directly in ``scope``, if any."""
    if not isinstance(scope, ast.Module) and name in _params(scope):
        return ("param", scope, name)
    for node in _own_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return ("def", node)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ("value", node.value)
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if (alias.asname or top) == name:
                    return ("module", alias.name if alias.asname else top)
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return ("from", node.module, alias.name)
    return None


def _binding(name: str, node: ast.AST) -> Binding:
    for scope in _scopes(node):
        found = _lookup(scope, name)
        if found is not None:
            return found
    raise LookupError(f"{where(node)}: {name!r} is not bound")


def _follow(binding: Binding) -> list:
    """What a binding can evaluate to: expressions, or the ``def``,
    ``module`` and ``from`` bindings that name program objects."""
    kind = binding[0]
    if kind == "value":
        return _values(binding[1])
    if kind == "param":
        return [value for arg in _arguments(*binding[1:]) for value in _values(arg)]
    if kind == "from":
        _, module, name = binding
        if _bench_file(f"{module}.{name}"):
            return [("module", f"{module}.{name}")]
        if _bench_file(module):
            return _follow_bench(module, name)
    return [binding]


def _follow_bench(module: str, name: str) -> list:
    """What the module-level ``name`` of bench module ``module`` can be."""
    found = _lookup(SOURCES[_bench_file(module)], name)
    if found is None:
        raise LookupError(f"bench module {module} binds no {name!r}")
    return _follow(found)


def _values(expr: ast.expr) -> list:
    """What ``expr`` can evaluate to, names followed to their definitions."""
    if isinstance(expr, ast.Name):
        return _follow(_binding(expr.id, expr))
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base = _binding(expr.value.id, expr)
        if base[0] == "from" and _bench_file(f"{base[1]}.{base[2]}"):
            return _follow_bench(f"{base[1]}.{base[2]}", expr.attr)
    return [expr]


def _defaults(function: ast.AST) -> Dict[str, ast.expr]:
    args = function.args
    positional = args.posonlyargs + args.args
    named = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    named += [(p, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return {param.arg: default for param, default in named}


def _called(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _arguments(function: ast.AST, name: str) -> List[ast.expr]:
    """The expression given for parameter ``name`` at every call of
    ``function`` in bench (its default where a call leaves it out)."""
    if isinstance(function, ast.Lambda):
        raise LookupError(f"{where(function)}: cannot follow a lambda's parameter {name!r}")
    params = [p.arg for p in function.args.posonlyargs + function.args.args]
    callee = function.name
    if callee == "__init__":
        callee, params = PARENT[function].name, params[1:]
    defaults = _defaults(function)
    given: List[ast.expr] = []
    for tree in SOURCES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _called(call) != callee:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                raise LookupError(f"{where(call)}: cannot map *args/**kwargs onto {callee}")
            passed = dict(zip(params, call.args))
            passed.update((kw.arg, kw.value) for kw in call.keywords)
            if name not in passed and name not in defaults:
                raise LookupError(f"{where(call)}: {callee}() is not given {name!r}")
            given.append(passed.get(name, defaults.get(name)))
    return given


def _returns(func: ast.expr) -> List[ast.expr]:
    """The values the callable ``func`` can return."""
    returned: List[ast.expr] = []
    for value in _values(func):
        if isinstance(value, ast.Lambda):
            returned.append(value.body)
        elif isinstance(value, tuple) and value[0] == "def" and isinstance(value[1], ast.FunctionDef):
            returned += [n.value for n in _own_nodes(value[1]) if isinstance(n, ast.Return)]
        else:
            raise LookupError(f"{where(func)}: cannot follow the call {ast.unparse(func)}()")
    return returned


def _sequences(expr: ast.expr) -> List[Tuple[Argv, Tuple[str, ...]]]:
    """Every token tuple ``expr`` can evaluate to, each with the bench
    lines it was assembled from."""
    if isinstance(expr, (ast.List, ast.Tuple)):
        return _join(expr.elts, where(expr))
    if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
        return [seq for body in _returns(expr.func) for seq in _sequences(body)]
    values = _values(expr)
    if values == [expr] or not all(isinstance(v, ast.expr) for v in values):
        raise LookupError(f"{where(expr)}: cannot follow {ast.unparse(expr)} to a literal")
    return [seq for value in values for seq in _sequences(value)]


def _join(elements: Sequence[ast.expr], origin: str) -> List[Tuple[Argv, Tuple[str, ...]]]:
    options: List[Tuple[Argv, Tuple[str, ...]]] = [((), (origin,))]
    for element in elements:
        if isinstance(element, ast.Starred):
            parts = _sequences(element.value)
        elif isinstance(element, ast.Constant) and isinstance(element.value, str):
            parts = [((element.value,), ())]
        else:
            parts = [((PLACEHOLDER,), ())]
        options = [
            (argv + more, lines + tuple(line for line in extra if line not in lines))
            for argv, lines in options
            for more, extra in parts
        ]
    return options


# ----------------------------------------------------------------------
# What bench reaches
# ----------------------------------------------------------------------
def repro_argvs() -> Dict[Argv, Set[str]]:
    """Every argv bench passes to ``python -m repro``, with the bench lines
    that built it."""
    argvs: Dict[Argv, Set[str]] = {}
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.List, ast.Tuple)):
                continue
            texts = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
            for start in range(len(texts) - 1):
                if texts[start:start + 2] == ["-m", "repro"]:
                    for argv, lines in _join(node.elts[start + 2:], where(node)):
                        argvs.setdefault(argv, set()).update(lines)
    return argvs


def wrap_calls() -> Iterator[Tuple[ast.Call, ast.expr, str]]:
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                yield node, node.args[0], node.args[1].value


def _import(module: str, name: Optional[str] = None) -> object:
    """``module`` or ``module.name``, attribute or submodule."""
    obj = importlib.import_module(module)
    if name is None:
        return obj
    if hasattr(obj, name):
        return getattr(obj, name)
    return importlib.import_module(f"{module}.{name}")


def _owner(expr: ast.expr) -> Optional[object]:
    """The program object ``expr`` names, or None when that is only known
    at run time."""
    values = _values(expr)
    if len(values) == 1 and isinstance(values[0], tuple) and values[0][0] in ("module", "from"):
        return _import(*values[0][1:])
    return None


def _parse_error(argv: Argv) -> Optional[str]:
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_parser().parse_args(list(argv))
    except SystemExit:
        return stderr.getvalue().strip().splitlines()[-1]
    return None


# ----------------------------------------------------------------------
def test_repro_imports_resolve():
    problems = []
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.name, None) for alias in node.names if _is_repro(alias.name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_repro(node.module):
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in names:
                try:
                    _import(module, name)
                except ImportError as exc:
                    problems.append(f"{where(node)}: {exc}")
    assert problems == []


def test_wrapped_callables_exist():
    problems, unresolved = [], []
    for call, owner_expr, attr in wrap_calls():
        try:
            owner = _owner(owner_expr)
        except (ImportError, AttributeError) as exc:
            problems.append(f"{where(call)}: {exc}")
            continue
        if owner is None:
            unresolved.append((ast.unparse(owner_expr), attr))
        for target in FOREST_CONTAINERS if owner is None else (owner,):
            if not callable(getattr(target, attr, None)):
                problems.append(f"{where(call)}: {target.__name__} has no callable {attr!r}")
    assert problems == []
    # one owner is only known at run time; a second one would go unchecked
    assert unresolved == [("type(forest)", "micro_clusters")]


def test_repro_argvs_parse():
    argvs = repro_argvs()
    assert {argv[0] for argv in argvs} >= {"generate", "build", "serve", "query"}
    problems = [
        f"{', '.join(sorted(lines))}: repro {' '.join(argv)}: {error}"
        for argv, lines in sorted(argvs.items())
        if (error := _parse_error(argv)) is not None
    ]
    assert problems == []
