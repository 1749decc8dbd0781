#!/usr/bin/env python3
"""Print each statement of src/copcone that the tier-1 tests never run.

The tests run in this process (``pytest.main``) under ``sys.settrace``,
which records every line of src/copcone that executes.  A statement ran
when a line of its own did: all of its lines for a simple statement, the
header lines for a compound one.  Docstrings and ``def`` lines are not
counted.  A module that the tests never import in this process (such as
``__main__.py``, which runs only as ``python -m copcone``) is named once
instead of statement by statement.

Usage: unreached.py [PYTEST_ARGS...]   (defaults to every test of the repository)

It reports and gates nothing: the exit code is 0 whatever the tests do.
"""
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> dict[int, range]:
    """The first line of each statement in ``source`` -> the lines of its own."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None}
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, DEFS) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = range(node.lineno, last + 1)
    return found


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` none of whose own
    lines is in ``ran``."""
    return sorted(first for first, own in statements(source).items() if ran.isdisjoint(own))


def traced(prefix: str, call):
    """``call()``, and the lines it ran of each file whose name starts with
    ``prefix``: file name -> set of line numbers."""
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        return call(), ran
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    args = args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT)]
    package = ROOT / "src" / "copcone"
    status, ran = traced(str(package) + os.sep, lambda: pytest.main(args))
    print(f"tier-1 exit status {int(status)}; statements of src/copcone never run:")
    for path in sorted(package.glob("*.py")):
        if str(path) not in ran:
            print(f"{path.name}: not imported in process")
            continue
        for line in unreached(path.read_text(), ran[str(path)]):
            print(f"{path.name}:{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
