"""Golden corpus: the exact stdout, stderr and exit code of CLI runs.

Each case runs ``wblow.cli.main`` in-process with both streams captured and
the working directory set to ``tests/golden/`` (a batch report echoes the
path it was given, so the batch file is passed by its relative name).  The
outputs are compared byte for byte with ``<case>.stdout``, ``<case>.stderr``
and ``<case>.code`` in that directory.

A refactor must leave every file here unchanged.  When a change to the
output is intended, rewrite the corpus with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from wblow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# The command-line examples of README.md, each with --format json, two error
# reports and one mixed batch in both output formats.
CASES = {
    "charts": ["charts", "1/1(1,2,3)"],
    "ideal": ["ideal", "1/1(2,3)", "--k", "6"],
    "wt": ["wt", "1/3(1,2,1)", "--poly", "x1*x2+x3^3"],
    "pushforward": ["pushforward", "1/3(1,2,1)", "--f", "x1*x2+x3^3"],
    "transform": ["transform", "1/1(1,1)", "--g", "x1^2+x2^2", "--chart", "1"],
    "lift-check": ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--dmax", "6"],
    "lift-check-mutate": ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--mutate", "1"],
    "chain": ["chain", "1/3(1,1,2)", "--a-sequence", "2,1"],
    "invariants": ["invariants", "1/4(1,3)"],
    "example33": ["example33", "--r", "2", "--m", "1", "--a", "1"],
    "truncation": ["truncation", "1/1(2,3)", "--b", "6", "--d", "2"],
    "truncation-find-stable": ["truncation", "1/1(2,3)", "--find-stable", "--dmax", "3", "--limit", "8"],
    "parse-error": ["charts", "1/2(1"],
    "domain-error": ["charts", "1/1(2,4)"],
    "batch-json": ["batch", "batch.json"],
}
FORMATS = {name: "json" for name in CASES}
CASES["batch-text"] = ["batch", "batch.json"]
FORMATS["batch-text"] = "text"


def capture(name: str) -> tuple[str, str, int]:
    """Run one case in tests/golden/; return (stdout, stderr, exit code)."""
    argv = CASES[name] + ["--format", FORMATS[name]]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return out.getvalue(), err.getvalue(), code


def _read(name: str, suffix: str) -> str:
    return (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    stdout, stderr, code = capture(name)
    assert stdout == _read(name, "stdout")
    assert stderr == _read(name, "stderr")
    assert f"{code}\n" == _read(name, "code")


def write_corpus() -> None:
    for name in CASES:
        stdout, stderr, code = capture(name)
        for suffix, text in (("stdout", stdout), ("stderr", stderr), ("code", f"{code}\n")):
            (GOLDEN / f"{name}.{suffix}").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_corpus()
