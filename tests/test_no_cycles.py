"""Library calls leave no reference cycles behind.

A cycle outlives its call until the cyclic garbage collector runs, and
whatever it holds (a staircase walk's rows, say) goes with it; the
collections then land on an arbitrary later call.  Each golden batch entry,
a few larger ones and three refused as too long to write, is run once to warm
caches and imports, then again with the collector off: after ``del`` of the
report, ``gc.collect()`` must find nothing.  A walk with a planted closure
cycle must fail the same check.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

import wblow.wideal as wideal_mod
from wblow.cli import RunSpec, run

GOLDEN = Path(__file__).resolve().parent / "golden"

ENTRIES = json.loads((GOLDEN / "batch.json").read_text(encoding="utf-8")) + [
    {"command": "ideal", "target": "1/5(1,2,3,4)", "parameters": {"k": "12"}},
    # unequal ideals: the d-fold sums are built and minimalized
    {"command": "truncation", "target": "1/1(6,10,15,1)", "parameters": {"b": "30", "d": 3}},
    {"command": "pushforward", "target": "1/1(1,1)", "parameters": {"f": "x1", "a_max": 60}},
    {"command": "charts", "target": "1/2(1"},  # a parse error
    # results too long to write, refused by run: a weight of 4,301 digits, an lcm of 4,401
    {"command": "wt", "target": "1/1(1,9)", "parameters": {"poly": "x2^" + "9" * 4300}},
    {"command": "wt", "target": f"1/1(1{'0' * 2200},1{'0' * 2199}1)", "parameters": {"poly": "x1"}},
    # a parameter too long to write, refused by run before validation (a library call only)
    {"command": "lift-check", "parameters": {"sigma_prime": "1,2", "m": 1, "a": 1, "dmax": 10**5000}},
]
SPECS = [RunSpec(e["command"], e.get("target"), e.get("parameters", {})) for e in ENTRIES]
IDS = [f"{i}-{spec.command}" for i, spec in enumerate(SPECS)]


@pytest.fixture(scope="module")
def warmed():
    for spec in SPECS:
        run(spec)


def cyclic_garbage(spec: RunSpec) -> int:
    """Objects the collector finds unreachable after one run of spec and del of its report."""
    gc.collect()
    gc.disable()
    try:
        report = run(spec)
        del report
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_run_leaves_no_cycle(warmed, spec):
    assert cyclic_garbage(spec) == 0


def test_a_planted_cycle_is_caught(warmed, monkeypatch):
    real = wideal_mod.minimal_generators_numerator

    def walk_with_a_closure_cycle(weights, t):
        def walk():  # refers to itself through its cell: function <-> cell
            return walk

        walk()
        return real(weights, t)

    monkeypatch.setattr(wideal_mod, "minimal_generators_numerator", walk_with_a_closure_cycle)
    walking = [i for i, spec in enumerate(SPECS) if spec.command in ("ideal", "truncation", "pushforward")]
    assert [i for i, spec in enumerate(SPECS) if cyclic_garbage(spec)] == walking
