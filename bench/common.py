"""Shared plumbing of the benchmark: paths, tracing, statistics, check errors.

Nothing here imports the program.  The workload modules import ``wblow``
only after :func:`load_program` has put the checkout's own ``src`` first on
the path and confirmed the package really comes from there.
"""

from __future__ import annotations

import math
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "wblow" / "__init__.py"
OUT = Path(__file__).resolve().parent / "out"


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def program_present() -> bool:
    return PACKAGE.is_file()


def load_program():
    """Import wblow from this checkout's ``src``; refuse any other copy."""
    if not program_present():
        raise SystemExit(f"benchmark: no program at {PACKAGE.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import wblow

    if Path(wblow.__file__).resolve() != PACKAGE.resolve():
        raise SystemExit(f"benchmark: imported wblow from {wblow.__file__}, not from {SRC}")
    return wblow


def child_env() -> dict:
    """Environment of program subprocesses: this checkout's src, default budget."""
    env = dict(os.environ)
    env.pop("WBLOW_MAX_ENUM", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """Independent deterministic stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}|{seed}|{stream}")


def fresh(rng, seen: set, make, work_key, input_key=lambda payload: payload):
    """A new input from make(rng), not seen before in this run.

    Inputs are kept apart by work_key(payload), the part that decides the
    program's work, so that no two operations in a run do the same work.
    Each workload's pools are sized for runs of the benchmark's length;
    should one run dry in a much longer run, inputs that differ only in the
    rest (a group order that the computation merely records, say) are
    accepted next, and after that a repeat, rather than no input at all.
    """
    for attempt in range(400):
        payload = make(rng)
        work, exact = ("work", work_key(payload)), ("input", input_key(payload))
        if (work not in seen if attempt < 200 else exact not in seen) or attempt == 399:
            seen.update((work, exact))
            return payload


# ---------------------------------------------------------------------------
# Speed calibration.  Benchmark hosts are often shared, and on a shared host
# the speed of a fixed loop can drift by 2x over tens of seconds.  Every timing is
# therefore scaled to a reference speed, by the time of a fixed workload
# measured next to it: scaled = raw * REFERENCE_CALIBRATION_S / measured.
# The fixed workload is exact rational sums and an integer staircase walk,
# code of the same kind as the program's (and none of it), because a tight
# arithmetic loop tracks the program's speed about half as well.

REFERENCE_CALIBRATION_S = 0.004


def _calibration_loop():
    import oracles  # imports this module, so not at the top

    total = 0
    for r in range(6):
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i + r, i + 7)
        total += acc.denominator % 97
    total += len(oracles.min_gens((3, 5, 7), 80)) + len(oracles.min_gens((2, 5, 9), 70))
    return total + oracles.count_below((2, 3, 5), 1, 300)


def calibration_s() -> float:
    """Median of three timings of the fixed loop, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def speed_factor(before: float, after: float | None = None) -> float:
    """Scale from raw to reference time for work done between two calibrations."""
    measured = before if after is None else (before + after) / 2
    return REFERENCE_CALIBRATION_S / measured


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing: spans around the benchmark's own calls into the program's layers.


class NullTracer:
    """Tracing off: a layer call is a plain call."""

    op_id = 0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass


class Tracer:
    """Records (name, start_ns, end_ns, parent, op_id) spans in memory.

    Spans nest by call order; the operation span is the root of each
    operation's calls.  Counts are kept beside the spans, keyed by metric
    name, and written out with them when the run ends.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self.op_id = 0

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self, factors: dict) -> dict:
        """name -> (calls, total self time in reference ns): duration minus child coverage.

        factors maps an op id to the speed factor of its operation; spans
        after the last operation (the start-up probes) take the last factor.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        last = factors[max(factors)] if factors else 1.0
        out = {}
        for idx, (name, start, end, _, op_id) in enumerate(self.spans):
            calls, busy = out.get(name, (0, 0.0))
            own = (end - start) - child[idx]
            out[name] = (calls + 1, busy + own * factors.get(op_id, last))
        return out


# ---------------------------------------------------------------------------
# Statistics


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)


def tail(values):
    """(percentile, value): the highest candidate percentile with >= 10 samples beyond it.

    Nearest-rank percentiles.  With fewer than 40 samples there is no tail,
    and the median is returned as percentile 50.
    """
    s = sorted(values)
    n = len(s)
    if n >= 40:
        for p in TAIL_CANDIDATES:
            rank = math.ceil(p / 100 * n)
            if n - rank >= 10:
                return p, s[rank - 1]
    return 50.0, median(s)
