"""Benchmark of wblow: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it starts SETUP_SAMPLES
fresh workers that only set up (their time to READY gives setup_s), then
one worker that sets up, signals READY and runs the timed list; it prints
the end-to-end metrics.  With --trace 1 it runs the same list once untraced
and once traced, in two fresh workers, and prints the per-layer metrics
with the tracing overhead.  The last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
#: Every worker is killed once the whole run has taken this long.
RUN_LIMIT_S = 170
DEADLINE = time.monotonic() + RUN_LIMIT_S

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = (
    "charts", "fan", "ideal", "wt", "pushforward", "transform", "lift-check",
    "chain", "invariants", "example33", "truncation", "batch",
)

# (metric, unit, how): ("calls"|"busy"|"mean", span) read the trace's self
# times; ("value", key) a harness count or a figure derived in per_layer();
# ("ratio", a, b, scale) is scale * value(a) / value(b).
PER_LAYER = (
    ("notation.parse.calls", "count", ("calls", "notation.parse")),
    ("notation.parse.busy_ms", "ms", ("busy", "notation.parse")),
    ("wideal.polynomial_weight.busy_ms", "ms", ("busy", "wideal.polynomial_weight")),
    ("wideal.ideal_generators.calls", "count", ("calls", "wideal.ideal_generators")),
    ("wideal.ideal_generators.busy_ms", "ms", ("busy", "wideal.ideal_generators")),
    ("wideal.ideal_generators.gens", "count", ("value", "wideal.ideal_generators.gens")),
    ("wideal.count_below.calls", "count", ("calls", "wideal.count_below")),
    ("wideal.count_below.busy_ms", "ms", ("busy", "wideal.count_below")),
    ("wideal.count_below.points", "count", ("value", "wideal.count_below.points")),
    ("wideal.gens_per_point", "ratio",
     ("ratio", "wideal.ideal_generators.gens", "wideal.ideal_generators.points", 1)),
    ("wideal.product_vs_truncation.busy_ms", "ms", ("busy", "wideal.product_vs_truncation")),
    ("wideal.product_vs_truncation.sums", "count", ("value", "wideal.product_vs_truncation.sums")),
    ("wideal.product_vs_truncation.power_gens", "count",
     ("value", "wideal.product_vs_truncation.power_gens")),
    ("wideal.power_gens_per_sum", "ratio",
     ("ratio", "wideal.product_vs_truncation.power_gens", "wideal.product_vs_truncation.sums", 1)),
    ("wideal.find_stable_b.busy_ms", "ms", ("busy", "wideal.find_stable_b")),
    ("quotient.invariant_monoid_basis.calls", "count", ("calls", "quotient.invariant_monoid_basis")),
    ("quotient.invariant_monoid_basis.busy_ms", "ms", ("busy", "quotient.invariant_monoid_basis")),
    ("quotient.invariant_monoid_basis.candidates", "count",
     ("value", "quotient.invariant_monoid_basis.candidates")),
    ("quotient.invariant_monoid_basis.basis", "count", ("value", "quotient.invariant_monoid_basis.basis")),
    ("quotient.binomial_relation_2d.busy_ms", "ms", ("busy", "quotient.binomial_relation_2d")),
    ("blowup.chart.busy_ms", "ms", ("busy", "blowup.chart")),
    ("blowup.exceptional_valuation.calls", "count", ("calls", "blowup.exceptional_valuation")),
    ("blowup.exceptional_valuation.busy_ms", "ms", ("busy", "blowup.exceptional_valuation")),
    ("blowup.strict_transform_in_chart.calls", "count", ("calls", "blowup.strict_transform_in_chart")),
    ("blowup.strict_transform_in_chart.busy_ms", "ms", ("busy", "blowup.strict_transform_in_chart")),
    ("blowup.substitutions", "count", ("value", "blowup.substitutions")),
    ("blowup.us_per_substitution", "us",
     ("ratio", "blowup.substitution_busy_ms", "blowup.substitutions", 1000)),
    ("lifting.verify_decomposition.calls", "count", ("calls", "lifting.verify_decomposition")),
    ("lifting.verify_decomposition.busy_ms", "ms", ("busy", "lifting.verify_decomposition")),
    ("lifting.degrees_checked", "count", ("value", "lifting.degrees_checked")),
    ("lifting.degrees_refused", "count", ("value", "lifting.degrees_refused")),
    ("lifting.box_points", "count", ("value", "lifting.box_points")),
    ("lifting.prefix_weights", "count", ("value", "lifting.prefix_weights")),
    ("lifting.work_per_box", "ratio", ("ratio", "lifting.prefix_weights", "lifting.box_points", 1)),
    ("lifting.mutation_study.busy_ms", "ms", ("busy", "lifting.mutation_study")),
    ("lifting.mutations", "count", ("value", "lifting.mutations")),
    ("lifting.mutations_caught", "count", ("value", "lifting.mutations_caught")),
    ("lifting.chain_report.busy_ms", "ms", ("busy", "lifting.chain_report")),
    ("lifting.chain_stages", "count", ("value", "lifting.chain_stages")),
    ("arith.budget_refusals", "count", ("value", "arith.budget_refusals")),
    ("cli.interpreter_ms", "ms", ("mean", "cli.interpreter")),
    ("cli.import_ms", "ms", ("value", "cli.import_ms")),
    ("cli.process_ms", "ms", ("mean", "cli.process")),
    *((f"cli.{c}.main_ms", "ms", ("mean", f"cli.{c}.main")) for c in CLI_COMMANDS),
    ("cli.batch.entries_per_s", "1/s", ("ratio", "cli.batch.entries", "cli.batch.main_busy_ms", 1000)),
    ("trace.spans", "count", ("value", "trace.spans")),
    ("trace.op_p50_ms", "ms", ("value", "trace.op_p50_ms")),
    ("trace.untraced_op_p50_ms", "ms", ("value", "trace.untraced_op_p50_ms")),
    ("trace.overhead_pct", "%", ("value", "trace.overhead_pct")),
)


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, *extra) -> tuple[float, dict | None]:
    """Run one worker; return (reference seconds from spawn to READY, final summary or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    before = common.calibration_s()
    factor = common.speed_factor(before)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=common.ROOT, text=True)
    # SIGINT lets a worker stop the wblow process it is waiting on, then exit
    watchdog = threading.Timer(max(1.0, DEADLINE - time.monotonic()), proc.send_signal, (signal.SIGINT,))
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = (time.perf_counter() - start) * factor
            else:
                lines.append(line)
        code = proc.wait()
        if code != 0 or ready is None:
            raise WorkerFailed(f"worker exited with {code}")
        if "--setup-only" in extra:  # bracket the set-up by a second calibration
            ready *= common.speed_factor(before, common.calibration_s()) / factor
        summary = json.loads(lines[-1]) if lines else None
        return ready, summary
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def end_to_end(args) -> tuple[dict, dict]:
    setups = [start_worker(args, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, run = start_worker(args)
    setups.append(ready)
    lat = run["latencies_ms"]
    pct, tail_ms = common.tail(lat)
    rss = run["children_rss_mb"] if args.workload == "cli-mixed" else run["rss_mb"]
    values = {
        "setup_s": common.median(setups),
        "ops_per_s": common.median(run["pass_rates"]),
        "op_p50_ms": common.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss,
    }
    print(
        f"{args.workload}: {len(lat)} timed operations, {len(run['pass_rates'])} passes,"
        f" {run['busy_s']:.2f} s busy in {run['wall_s']:.2f} s with checks, speed factor {run['speed']:.3f};"
        f" op_tail_ms is p{pct:g} ({sum(1 for x in lat if x > tail_ms)} samples beyond);"
        f" setup samples {', '.join(f'{s:.4f}' for s in setups)} s"
    )
    return values, run


def per_layer(args) -> tuple[dict, dict]:
    _, plain = start_worker(args)
    _, run = start_worker(args, "--trace")
    st = {name: (calls, busy / 1e6) for name, (calls, busy) in run["self_times"].items()}
    counts = dict(run["counts"])
    sub = [st.get(n, (0, 0.0))[1] for n in ("blowup.exceptional_valuation", "blowup.strict_transform_in_chart")]
    counts["blowup.substitution_busy_ms"] = sum(sub)
    counts["cli.batch.main_busy_ms"] = st.get("cli.batch.main", (0, 0.0))[1]
    interp = st.get("cli.interpreter", (1, 0.0))
    imp = st.get("cli.import", (1, 0.0))
    counts["cli.import_ms"] = imp[1] / max(imp[0], 1) - interp[1] / max(interp[0], 1)
    counts["trace.spans"] = run["spans"]
    counts["trace.op_p50_ms"] = run["op_p50_ms"]
    counts["trace.untraced_op_p50_ms"] = common.median(plain["latencies_ms"])
    counts["trace.overhead_pct"] = 100 * (run["op_p50_ms"] / counts["trace.untraced_op_p50_ms"] - 1)
    values = {}
    for name, _, how in PER_LAYER:
        kind = how[0]
        if kind == "calls":
            values[name] = st.get(how[1], (0, 0.0))[0]
        elif kind == "busy":
            values[name] = st.get(how[1], (0, 0.0))[1]
        elif kind == "mean":
            calls, busy = st.get(how[1], (0, 0.0))
            values[name] = busy / calls if calls else 0.0
        elif kind == "value":
            values[name] = counts.get(how[1], 0)
        else:
            _, num, den, scale = how
            values[name] = scale * counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    print(f"{args.workload}: trace written to {run['trace_file']}; {run['spans']} spans")
    run["check_failures"] += plain["check_failures"]
    run["problems"] += plain["problems"]
    return values, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"benchmark: the program is missing ({common.PACKAGE.relative_to(common.ROOT)})", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, run = per_layer(args)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, run = end_to_end(args)
            units = dict(END_TO_END)
    except (WorkerFailed, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"  {problem}")
    result = {
        "correct": run["check_failures"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
