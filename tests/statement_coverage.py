"""Run the test suite under a line tracer and fail if a statement of ``src/wblow`` never runs.

Usage, from the repository root::

    PYTHONPATH=src python tests/statement_coverage.py -q --hypothesis-seed=0

The arguments go to pytest unchanged.  Only the standard library is used:
``sys.settrace`` records the lines run in frames of ``src/wblow``, and
``ast`` lists the statements.  A statement counts as run if any line of its
span ran, so a condition split over several lines counts wherever its line
events land, and a compound statement counts through its header or body.
Docstrings compile to no code and are not counted.  The
``if __name__ == "__main__":`` blocks run only in a child process, which the
tracer does not follow, so they are the one allowance.  The exit code is
pytest's when the tests fail, else 1 when a statement never ran, else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wblow"


class LineTracer:
    """The (resolved file name, line) pairs run in frames of files under ``src/wblow``."""

    def __init__(self):
        self.ran = set()
        self._names = {}  # code file name -> its resolved name under src/wblow, or None

    def call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._names:
            path = Path(name).resolve()
            self._names[name] = str(path) if path.parent == SRC else None
        return self.line if self._names[name] else None

    def line(self, frame, event, arg):
        if event == "line":
            self.ran.add((self._names[frame.f_code.co_filename], frame.f_lineno))
        return self.line


def statements(path: Path):
    """(first line, last line, node) of each statement of a file that should run."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.add(node.body[0])
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skipped.update(ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in skipped:
            decorators = getattr(node, "decorator_list", ())
            yield min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno, node


def unrun(ran: set) -> list:
    """'file:line: source' for every statement no line of which ran."""
    missed = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = str(path.resolve())
        rel = path.relative_to(SRC.parent.parent)
        for first, last, node in sorted(statements(path), key=lambda span: span[:2]):
            if not any((name, line) in ran for line in range(first, last + 1)):
                missed.append(f"{rel}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return missed


def main(argv) -> int:
    tracer = LineTracer()
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    import pytest  # imported under the tracer, as are the modules the tests import

    code = pytest.main(argv)
    sys.settrace(None)
    threading.settrace(None)
    if code:
        return int(code)
    missed = unrun(tracer.ran)
    for entry in missed:
        print(entry)
    print(f"{len(missed)} statements of src/wblow never ran under the tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
