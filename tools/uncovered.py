"""List every statement under src/dpm that the test suite never executes.

Usage, from the repository root:

    python3 tools/uncovered.py -q                # the whole suite
    python3 tools/uncovered.py tests/test_core.py -k Dataset

Arguments go to pytest unchanged, so with no test path it runs the
``testpaths`` of pyproject.toml.  The suite runs in this process under
``sys.settrace`` and ``threading.settrace``; the tracer declines every
frame whose code lies outside src/dpm, so the tests and other libraries
run untraced.  A statement counts as executed when a line event fires on
one of its own lines: a simple statement's whole span, a compound
statement's header up to its body.  Docstrings, ``...`` bodies, ``try:``
headers and the bodies of ``if __name__ == "__main__":`` are not counted.
The exit code is 1 when any statement is listed and 0 otherwise, whatever
the test outcomes; judging those is the test run's job.  Needs the
standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpm"


def _is_constant(node: ast.stmt) -> bool:
    """A docstring or a ``...`` body: no code runs for it."""
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in node.test.comparators))


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, own lines) of each counted statement, in file order."""
    found = []

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if _is_constant(node):
                continue
            nested = [getattr(node, name) for name in ("body", "orelse", "finalbody")
                      if isinstance(getattr(node, name, None), list)]
            nested += [handler.body for handler in getattr(node, "handlers", [])]
            if not nested:
                found.append((node.lineno, range(node.lineno, node.end_lineno + 1)))
                continue
            if not isinstance(node, ast.Try):
                first = min(getattr(node, "decorator_list", []) or [node],
                            key=lambda n: n.lineno).lineno
                found.append((node.lineno, range(first, node.body[0].lineno)))
            if _is_main_guard(node):
                nested = nested[1:]       # the guard's test runs on import, its body does not
            for block in nested:
                visit(block)

    visit(tree.body)
    return found


def run_traced(pytest_args: list[str]) -> tuple[set[tuple[str, int]], int]:
    """Run pytest in-process; returns the (file, line) events under src/dpm and its exit code."""
    prefix = str(PACKAGE) + os.sep
    inside: dict[str, bool] = {}
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        keep = inside.get(name)
        if keep is None:
            keep = inside[name] = os.path.abspath(name).startswith(prefix)
        return local if keep else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(os.path.abspath(name), line) for name, line in executed}, int(code)


def uncovered(sources: dict[Path, str], executed: set[tuple[str, int]]) -> list[str]:
    report = []
    for path, source in sources.items():
        lines = source.splitlines()
        hit = {line for name, line in executed if name == str(path)}
        for first, own in statements(ast.parse(source, str(path))):
            if hit.isdisjoint(own):
                report.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    return report


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # read before the run, so the line numbers are those the traced code had
    sources = {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    executed, pytest_code = run_traced(args)
    report = uncovered(sources, executed)
    print(f"\npytest exit code {pytest_code}; {len(report)} src statements never executed")
    print("\n".join(report))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
