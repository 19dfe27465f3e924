"""The refusals of ``triholonomy`` that no tier-1 test reaches.

    PYTHONPATH=src python tools/raise_sites.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``tests/``, with ``-W error::RuntimeWarning`` and any
extra pytest arguments) in this process under a line trace, ``sys.settrace``
and ``threading.settrace``, restricted to the package's own files.  It then
reads every statement of the package with ``ast`` and lists each one that no
test executed: every ``raise`` site, and any other statement, such as a
``continue`` that skips to a refusal.  A site is named by its module, its
function and its message (the raise's first argument, or the statement's
text), so ``ALLOWED`` does not move with line numbers, and each allowed
entry gives its reason.  Exits 1 if a site outside ``ALLOWED`` is listed, if
an ``ALLOWED`` entry names no listed site, or if the suite fails; else 0.
Standard library and pytest only: ``coverage`` is not needed.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (module, function, message) -> why no traced test reaches the site.
ALLOWED: dict[tuple[str, str, str], str] = {
    ("cli", "<module>", "sys.exit(main())"): "runs only as `python -m triholonomy.cli`, which "
    "test_cli.py's subprocess test runs outside this process's trace",
}


class Site(NamedTuple):
    module: str
    function: str  # qualified name, "<module>" at module level
    message: str
    line: int
    is_raise: bool


def _message(node: ast.stmt) -> str:
    """A raise's first argument (or its exception), else the statement's first line, as source text."""
    if isinstance(node, ast.Raise):
        exc = node.exc
        if isinstance(exc, ast.Call) and exc.args:
            return ast.unparse(exc.args[0])
        return "raise" if exc is None else ast.unparse(exc)
    return ast.unparse(node).splitlines()[0]


def sites(source: str, module: str) -> list[Site]:
    """Every statement of ``source`` with its function and message; docstrings and ``global`` run no code."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) \
                    and isinstance(child.value.value, str)
                if not (docstring or isinstance(child, (ast.Global, ast.Nonlocal))):
                    function = ".".join(scope) or "<module>"
                    found.append(Site(module, function, _message(child), child.lineno, isinstance(child, ast.Raise)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, [*scope, child.name] if inner else scope)

    visit(ast.parse(source), [])
    return found


def traced(package_dir: Path, run) -> tuple[object, set[tuple[str, int]]]:
    """``run()``'s result and the (real file path, line) pairs it executed in ``package_dir``'s files.

    The trace functions in place before the call are put back after it.
    """
    prefix = os.path.realpath(package_dir) + os.sep
    executed: set[tuple[str, int]] = set()
    inside: dict[object, str | None] = {}  # code object -> its real file path, None outside the package

    def local(frame, event, arg):
        if event == "line":
            executed.add((inside[frame.f_code], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in inside:
            path = os.path.realpath(code.co_filename)
            inside[code] = path if path.startswith(prefix) else None
        if inside[code] is None:
            return None
        executed.add((inside[code], frame.f_lineno))
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, executed


def unreached(package_dir: Path, executed: set[tuple[str, int]]) -> list[Site]:
    """The sites of the package's modules whose line ``executed`` does not hold."""
    missed = []
    for path in sorted(package_dir.glob("*.py")):
        real = os.path.realpath(path)
        missed += [site for site in sites(path.read_text(), path.stem) if (real, site.line) not in executed]
    return missed


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("triholonomy")  # found, not imported: the trace sees the imports too
    if spec is None:
        print("raise_sites: triholonomy is not importable; run with PYTHONPATH=src", file=sys.stderr)
        return 1
    package_dir = Path(spec.submodule_search_locations[0])
    args = ["-q", "--continue-on-collection-errors", "-W", "error::RuntimeWarning", str(ROOT / "tests"), *argv]
    code, executed = traced(package_dir, lambda: pytest.main(args))
    missed = unreached(package_dir, executed)
    keys = {(site.module, site.function, site.message) for site in missed}
    raises = sum(site.is_raise for site in missed)
    print(f"\n{raises} raise site(s) and {len(missed) - raises} other statement(s) of {package_dir} not executed:")
    failed = code != 0
    for site in missed:
        key = (site.module, site.function, site.message)
        kind = "raise" if site.is_raise else "statement"
        note = f"  [allowed: {ALLOWED[key]}]" if key in ALLOWED else ""
        print(f"  {site.module}.py:{site.line} {site.function}: {kind} {site.message}{note}")
        failed |= key not in ALLOWED
    for key in ALLOWED.keys() - keys:
        print(f"  allowed but executed or gone: {key}")
        failed = True
    if code != 0:
        print(f"raise_sites: the suite failed (pytest exit {int(code)}), so the trace is incomplete")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
