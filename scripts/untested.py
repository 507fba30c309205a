"""List the statements of src/kwlab that no tier-1 test executes.

    PYTHONPATH=src python3 scripts/untested.py [PYTEST_ARGS...]

Run from the repository root, as tier-1 runs.  No coverage package is
needed: the script runs pytest in this process (-q
--continue-on-collection-errors, then PYTEST_ARGS) with a sys.settrace line
tracer, installed in every thread, that records only frames whose code lies
in src/kwlab.  It then walks each module's syntax tree and prints every
statement none of whose lines ran, as `file:line: source`, and exits with
pytest's status.

A simple statement counts as run when any of its lines ran, and a compound
statement (if, for, while, with, def, class, except) when any line of its
header did: Python 3.11 reports a multi-line `if (` on its inner lines.  A
docstring runs no code and a `try:` reports no line, so neither is listed;
their bodies are.  Code that tier-1 runs only in a subprocess (python -m
kwlab) is not traced, and a `pragma: no cover` is listed like any other
statement.

At this writing it lists six statements: the three of __main__.py and
cli's `if __name__ == "__main__"` branch, which run only as
`python -m kwlab`, AnnulusMesh.__repr__, and the damping kick's return after
120 Newton iterations.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kwlab"


def _statements(body: list[ast.stmt]):
    """(statement, the lines any of which marks it run) for each statement
    in body and in the bodies nested in it."""
    for node in body:
        if isinstance(node, ast.Try):
            pass  # `try:` itself reports no line
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring or a bare string runs no code
        elif hasattr(node, "body"):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield node, range(start, max(node.body[0].lineno, start + 1))
        else:
            yield node, range(node.lineno, node.end_lineno + 1)
        for handler in getattr(node, "handlers", []):
            yield handler, range(handler.lineno, max(handler.body[0].lineno, handler.lineno + 1))
            yield from _statements(handler.body)
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, hit = source.splitlines(), ran.get(str(path), set())
        for node, span in _statements(ast.parse(source).body):
            if not hit.intersection(span):
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
