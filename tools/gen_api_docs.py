#!/usr/bin/env python3
"""Generate the Markdown API reference under ``docs/api/``.

Prefers `pdoc <https://pdoc.dev>`_ when it is importable (the CI docs job
installs it); otherwise falls back to a self-contained ``inspect``-based
generator so the reference can be rebuilt in a bare environment with no
extra dependencies. Both paths document the same package set — the
public API surface this repo commits to: ``repro.core`` (the paper's
algorithms), ``repro.obs`` (observability), ``repro.parallel`` (sharded
construction), ``repro.serve`` (the query service), ``repro.storage``
(persistence) and ``repro.ingest`` (live ingest).

Output is deterministic (no timestamps, sorted member order) so the
generated pages are committed and diffs stay reviewable::

    python tools/gen_api_docs.py            # writes docs/api/*.md
    python tools/gen_api_docs.py --check    # fail if pages are stale
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGES = (
    "repro.core",
    "repro.obs",
    "repro.parallel",
    "repro.serve",
    "repro.storage",
    "repro.ingest",
)
OUT_DIR = ROOT / "docs" / "api"


def iter_modules(package_name: str):
    """Yield (name, module) for the package and its direct submodules."""
    package = importlib.import_module(package_name)
    yield package_name, package
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda i: i.name):
        if info.name.startswith("_"):
            continue
        name = f"{package_name}.{info.name}"
        yield name, importlib.import_module(name)


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def first_paragraph(doc: str) -> str:
    return doc.split("\n\n", 1)[0].strip()


def public_members(module):
    """Classes and functions defined in (not imported into) the module."""
    members = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members.append((name, obj))
    return members


def render_class(name: str, cls) -> list[str]:
    lines = [f"### class `{name}{signature_of(cls)}`", ""]
    doc = inspect.getdoc(cls)
    if doc:
        lines += [doc, ""]
    for attr_name, attr in sorted(vars(cls).items()):
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            prop_doc = inspect.getdoc(attr) or ""
            lines += [
                f"- **`{attr_name}`** *(property)* — {first_paragraph(prop_doc)}"
            ]
        elif inspect.isfunction(attr) or isinstance(
            attr, (classmethod, staticmethod)
        ):
            fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            fn_doc = inspect.getdoc(fn) or ""
            lines += [
                f"- **`{attr_name}{signature_of(fn)}`** — {first_paragraph(fn_doc)}"
            ]
    lines.append("")
    return lines


def render_module(name: str, module) -> str:
    lines = [f"# `{name}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines += [doc, ""]
    functions = [(n, o) for n, o in public_members(module) if inspect.isfunction(o)]
    classes = [(n, o) for n, o in public_members(module) if inspect.isclass(o)]
    if classes:
        lines += ["## Classes", ""]
        for member_name, cls in classes:
            lines += render_class(member_name, cls)
    if functions:
        lines += ["## Functions", ""]
        for member_name, fn in functions:
            lines += [f"### `{member_name}{signature_of(fn)}`", ""]
            fn_doc = inspect.getdoc(fn)
            if fn_doc:
                lines += [fn_doc, ""]
    return "\n".join(lines).rstrip() + "\n"


def generate_with_pdoc(out_dir: Path) -> bool:
    """Use pdoc when present; returns False to request the fallback."""
    try:
        import pdoc  # noqa: F401
        import pdoc.render
    except ImportError:
        return False
    import pdoc.doc

    pdoc.render.configure(docformat="restructuredtext")
    modules = [name for pkg in PACKAGES for name, _ in iter_modules(pkg)]
    for name in modules:
        doc_module = pdoc.doc.Module(importlib.import_module(name))
        html = pdoc.render.html_module(module=doc_module, all_modules={})
        (out_dir / f"{name}.html").write_text(html)
    return True


def build_pages() -> dict[str, str]:
    pages: dict[str, str] = {}
    index = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — regenerate after changing",
        "any public signature or docstring (CI's docs job checks this).",
        "",
    ]
    for pkg in PACKAGES:
        index.append(f"## {pkg}")
        index.append("")
        for name, module in iter_modules(pkg):
            pages[f"{name}.md"] = render_module(name, module)
            summary = first_paragraph(inspect.getdoc(module) or "").replace("\n", " ")
            index.append(f"- [`{name}`]({name}.md) — {summary}")
        index.append("")
    pages["index.md"] = "\n".join(index).rstrip() + "\n"
    return pages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify committed pages match, write nothing")
    parser.add_argument("--pdoc", action="store_true",
                        help="also emit pdoc HTML next to the Markdown")
    args = parser.parse_args(argv)

    pages = build_pages()
    if args.check:
        stale = []
        for filename, content in pages.items():
            path = OUT_DIR / filename
            if not path.exists() or path.read_text() != content:
                stale.append(filename)
        committed = {p.name for p in OUT_DIR.glob("*.md")}
        stray = committed - set(pages)
        for name in sorted(stray):
            stale.append(f"{name} (no longer generated)")
        if stale:
            print("stale API docs — rerun tools/gen_api_docs.py:", file=sys.stderr)
            for name in stale:
                print(f"  docs/api/{name}", file=sys.stderr)
            return 1
        print(f"OK: {len(pages)} pages up to date", file=sys.stderr)
        return 0

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for filename, content in pages.items():
        (OUT_DIR / filename).write_text(content)
    used_pdoc = generate_with_pdoc(OUT_DIR) if args.pdoc else False
    print(
        f"wrote {len(pages)} Markdown pages to {OUT_DIR}"
        + (" (+ pdoc HTML)" if used_pdoc else ""),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
