"""One fresh interpreter doing one workload: set up, signal ready, run, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Set-up imports the program from this checkout, builds the seeded inputs and
the warm-up inputs (a separate stream), runs the warm-up, collects and
freezes the garbage collector's view of the inputs, then prints READY.  The
timed phase runs a fixed list of passes (the count is the workload's
PASSES_PER_SECOND times --seconds) in a closed loop with one client.  Each
operation is timed alone; its output is checked right after, outside the
timing.  The last line of stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import common
from common import CheckError, NullTracer, Tracer

WORKLOADS = ("chart-route", "ideal-enum", "lift-sweep", "cli-mixed")
MAX_REPORTED_PROBLEMS = 5


def modules():
    import wl_chart
    import wl_cli
    import wl_ideal
    import wl_lift

    return {m.NAME: m for m in (wl_chart, wl_ideal, wl_lift, wl_cli)}


CALIBRATE_EVERY_NS = 200_000_000


class Outcome:
    """Tallies of one list of passes.

    ops holds [pass index, op id, raw ns, ok, speed factor] per operation;
    the factor comes from the calibrations taken before and after the
    stretch of about CALIBRATE_EVERY_NS of work that holds the operation.
    """

    def __init__(self):
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.problems = []

    def note(self, message):
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(message)

    def latencies_ms(self):
        return [ns * f / 1e6 for _, _, ns, ok, f in self.ops if ok]

    def pass_rates(self):
        """Completed operations per reference second, one figure per pass."""
        busy, done = {}, {}
        for p, _, ns, ok, f in self.ops:
            busy[p] = busy.get(p, 0.0) + ns * f / 1e9
            done[p] = done.get(p, 0) + ok
        return [done[p] / busy[p] for p in sorted(busy) if busy[p] > 0]

    def factors(self):
        return {op_id: f for _, op_id, _, _, f in self.ops}


def run_passes(mod, wb, passes, tr, outcome, traced_counts):
    """Run every op of every pass; record latency, failures and check results."""
    perf = time.perf_counter_ns
    before = common.calibration_s()
    pending = []
    pending_ns = 0
    for index, ops in enumerate(passes):
        for op in ops:
            tr.op_id += 1
            outcome.attempted += 1
            start = perf()
            try:
                out = tr.call("op", mod.run, op, wb, tr)
                ok = True
            except Exception as exc:  # a failed operation, counted and reported
                out, ok = exc, False
            elapsed = perf() - start
            record = [index, tr.op_id, elapsed, ok, None]
            outcome.ops.append(record)
            pending.append(record)
            pending_ns += elapsed
            if not ok:
                outcome.failed += 1
                if getattr(out, "kind", None) == "enumeration-limit":
                    tr.count("arith.budget_refusals")
                if not op[1]:
                    outcome.note(f"unexpected failure of {op[0]}: {type(out).__name__}: {out}")
            else:
                try:
                    mod.check(op, out)
                except (CheckError, LookupError, TypeError, ValueError) as exc:  # wrong or malformed
                    outcome.check_failures += 1
                    outcome.note(f"wrong output: {type(exc).__name__}: {exc}")
            if traced_counts and (ok or op[1]):
                mod.layer_counts(op, out, tr)
            if pending_ns >= CALIBRATE_EVERY_NS:
                before = _settle(pending, before)
                pending_ns = 0
    _settle(pending, before)


def _settle(pending, before):
    after = common.calibration_s()
    factor = common.speed_factor(before, after)
    for record in pending:
        record[4] = factor
    pending.clear()
    return after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wb = common.load_program()
    import wblow.cli  # noqa: F401  (part of set-up for every workload)

    mods = modules()
    mod = mods[args.workload]
    try:
        seen = set()
        warm = mod.build(common.rng_for(mod.NAME, args.seed, "warm-up"), 1, seen)
        n_passes = max(2, round(args.seconds * mod.PASSES_PER_SECOND))
        passes = mod.build(common.rng_for(mod.NAME, args.seed, "timed"), n_passes, seen)
        warm[0] = warm[0][: getattr(mod, "WARMUP_OPS", len(warm[0]))]
        warm_outcome = Outcome()
        run_passes(mod, wb, warm, NullTracer(), warm_outcome, False)
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tr = Tracer() if args.trace else NullTracer()
        outcome = Outcome()
        started = time.perf_counter()
        run_passes(mod, wb, passes, tr, outcome, args.trace)
        latencies = outcome.latencies_ms()
        summary = {
            "busy_s": sum(ns for _, _, ns, _, _ in outcome.ops) / 1e9,
            "wall_s": time.perf_counter() - started,
            "speed": common.median([f for *_, f in outcome.ops]),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "check_failures": outcome.check_failures + warm_outcome.check_failures,
            "problems": warm_outcome.problems + outcome.problems,
            "latencies_ms": latencies,
            "pass_rates": outcome.pass_rates(),
            "rss_mb": common.rss_mb(),
            "children_rss_mb": common.rss_mb(common.resource.RUSAGE_CHILDREN),
        }
        if args.trace:
            summary["op_p50_ms"] = common.median(latencies)
            census = Outcome()
            for name, other in mods.items():
                if name != mod.NAME:
                    extra = other.build(common.rng_for(name, args.seed, "census"), 1, seen)
                    run_passes(other, wb, extra, tr, census, True)
            mods["cli-mixed"].probe_process_start(tr)
            summary["check_failures"] += census.check_failures
            summary["problems"] += census.problems
            summary["spans"] = len(tr.spans)
            factors = {**outcome.factors(), **census.factors()}
            summary["self_times"] = tr.self_times(factors)
            summary["counts"] = tr.counts
            summary["trace_file"] = write_trace(tr, args)
    finally:
        mods["cli-mixed"].cleanup()
    print(json.dumps(summary))
    return 0


def write_trace(tr, args) -> str:
    """Spans as JSON lines: name, start_ns, end_ns, parent index, op id."""
    common.OUT.mkdir(parents=True, exist_ok=True)
    path = common.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(common.ROOT))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:  # the run's deadline passed; run.py reports it
        sys.exit(130)
