"""cli-mixed: `python -m wblow <command> ... --format json`, one process at a time.

Make-up of one pass (15 invocations): charts, fan (default grid), ideal,
wt, pushforward, transform, lift-check, lift-check --mutate (exit 2 with a
witness), chain, invariants, example33, truncation in compare mode,
truncation --find-stable, one batch file of 100 entries drawn from the
same generators, and one fixed batch file that holds a malformed entry
{"command": "charts", "target": 5}.  Today that batch dies with a TypeError
traceback and no report, so it counts as one failed operation per pass.
Library work per invocation is kept small, so process start and
`import wblow.cli` dominate.  Apart from the fixed batch, no command line
or batch entry repeats in a run.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import common
import oracles
import wl_chart
import wl_ideal
import wl_lift
from common import OUT, ROOT, child_env, expect

NAME = "cli-mixed"
PASSES_PER_SECOND = 0.45
WARMUP_OPS = 1
BATCH_ENTRIES = 100
ENVELOPE = {"schema_version", "command", "input", "status", "exit_code", "result", "error", "provenance"}
MALFORMED = [
    {"command": "charts", "target": "1/1(1,2)"},
    {"command": "charts", "target": 5},
    {"command": "ideal", "target": "1/1(2,3)", "parameters": {"k": "6"}},
]
ENV = child_env()


class NoReport(Exception):
    """The process ended without a JSON report (a traceback, for instance)."""


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _system(rng, n_lo, n_hi, w_hi=9, m_hi=5):
    n = rng.randint(n_lo, n_hi)
    return wl_ideal.coprime_weights(rng, n, 1, w_hi), rng.randint(1, m_hi)


def notation(weights, m):
    return f"1/{m}({','.join(map(str, weights))})"


# Each generator returns (command, target, parameters, facts for the check).


def g_charts(rng):
    w, m = _system(rng, 2, 4, 12, 6)
    params = {"chart": rng.randint(1, len(w))} if rng.random() < 0.3 else {}
    return "charts", notation(w, m), params, (w, m)


def g_fan(rng):
    w, m = _system(rng, 2, 3, 12, 6)
    return "fan", notation(w, m), {}, (w, m)


def g_ideal(rng):
    w, m = _system(rng, 2, 3)
    t = wl_ideal.threshold_for(w, rng.randint(100, 600))
    return "ideal", notation(w, m), {"k": frac(Fraction(t, m))}, (w, m, t)


def g_wt(rng):
    w, m = _system(rng, 2, 4)
    terms = wl_chart.poly(rng, w, m, 4, 5)
    return "wt", notation(w, m), {"poly": wl_chart.poly_text(terms)}, (w, m, terms)


def g_pushforward(rng):
    w, m = _system(rng, 2, 3, 5, 4)
    terms = wl_chart.poly(rng, w, m, 3, 2)
    return "pushforward", notation(w, m), {"f": wl_chart.poly_text(terms)}, (w, m, terms)


def g_transform(rng):
    w, m = _system(rng, 2, 4, 12, 6)
    terms = wl_chart.poly(rng, w, m, 5, 5)
    i = rng.randint(1, len(w))
    return "transform", notation(w, m), {"g": wl_chart.poly_text(terms), "chart": i}, (w, m, terms, i)


def _lift_params(rng):
    while True:
        base = tuple(rng.randint(1, 6) for _ in range(3))
        a = rng.randint(1, 3)
        d_max = rng.randint(2, 6)
        if oracles.lift_weights(base, a)[2] * d_max <= 400:
            return base, rng.randint(1, 4), a, d_max


def g_lift(rng):
    base, m, a, d_max = _lift_params(rng)
    params = {"sigma_prime": ",".join(map(str, base)), "m": m, "a": a, "dmax": d_max}
    return "lift-check", None, params, (base, m, a, d_max, None)


def g_mutant(rng):
    base, m, a, d_max = _lift_params(rng)
    delta = rng.choice((-2, -1, 1, 2))
    if oracles.lift_weights(base, a)[3] + delta < 1:
        delta = -delta
    params = {"sigma_prime": ",".join(map(str, base)), "m": m, "a": a, "dmax": d_max, "mutate": delta}
    return "lift-check", None, params, (base, m, a, d_max, delta)


def g_chain(rng):
    m, weights, a_seq, d_max = wl_lift.chain_input(rng)
    params = {"a_sequence": ",".join(map(str, a_seq)), "dmax": d_max}
    return "chain", notation(weights, m), params, (m, weights, a_seq, d_max)


def g_invariants(rng):
    n = rng.randint(2, 3)
    m = rng.randint(2, 30) if n == 2 else rng.randint(2, 7)
    w = tuple(rng.randint(1, m - 1) if m > 1 else 1 for _ in range(n))
    return "invariants", notation(w, m), {}, (m, w)


def g_example33(rng):
    while True:
        r, m, a = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 9)
        if r * m >= 2 and math.gcd(a, r) == 1:
            break
    params = {"r": r, "m": m, "a": a}
    if rng.random() < 0.5:
        params["exponent_n"] = rng.randint(2, 5)
    return "example33", None, params, (r, m, a)


def g_truncation(rng):
    while True:
        w = wl_ideal.coprime_weights(rng, 2, 1, 12)
        d = rng.randint(2, 3)
        c = rng.randint(1, 3)
        if math.comb(oracles.min_gen_count(w, c * math.lcm(*w)) + d - 1, d) <= 120:
            break
    m = rng.randint(1, 4)
    params = {"b": frac(Fraction(c * math.lcm(*w), m)), "d": d}
    return "truncation", notation(w, m), params, (w, m, c, d)


def g_stable(rng):
    w, m, d_max, _ = wl_ideal.stable_input(rng)
    limit = rng.randint(4, 8)
    params = {"find_stable": True, "dmax": d_max, "limit": limit}
    return "truncation", notation(w, m), params, (w, m, d_max, limit)


SINGLE = (
    g_charts, g_fan, g_ideal, g_wt, g_pushforward, g_transform, g_lift, g_mutant,
    g_chain, g_invariants, g_example33, g_truncation, g_stable,
)
IN_BATCH = (g_charts, g_ideal, g_wt, g_pushforward, g_transform, g_lift, g_chain, g_invariants, g_truncation)


def _fresh(rng, seen, gen):
    """A command line or batch entry not used before in the run."""
    key = lambda spec: json.dumps(spec[:3], sort_keys=True)  # noqa: E731
    return common.fresh(rng, seen, gen, key, key)


def argv_of(command, target, params):
    argv = [command] + ([target] if target is not None else [])
    for name, value in params.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [f"{flag}={value}"]
    return argv + ["--format", "json"]


def _batch_entry(spec):
    command, target, params, _ = spec
    entry = {"command": command, "parameters": params}
    if target is not None:
        entry["target"] = target
    return entry


BATCH_DIR = OUT / f"batches-{os.getpid()}"


def build(rng, passes: int, seen: set) -> list:
    BATCH_DIR.mkdir(parents=True, exist_ok=True)
    malformed = BATCH_DIR / "malformed.json"
    malformed.write_text(json.dumps(MALFORMED))
    out = []
    for _ in range(passes):
        ops = []
        for gen in SINGLE:
            spec = _fresh(rng, seen, gen)
            ops.append(("cli", False, (argv_of(*spec[:3]), [spec])))
        specs = [_fresh(rng, seen, IN_BATCH[i % len(IN_BATCH)]) for i in range(BATCH_ENTRIES)]
        path = BATCH_DIR / f"{len(seen)}.json"
        path.write_text(json.dumps([_batch_entry(s) for s in specs]))
        ops.append(("batch", False, (["batch", str(path), "--format", "json"], specs)))
        ops.append(("batch", True, (["batch", str(malformed), "--format", "json"], None)))
        out.append(ops)
    # one invocation per pass is run twice, and its two outputs compared byte for byte
    for i, ops in enumerate(out):
        j = (i + 1) % (len(ops) - 1)
        kind, fault, payload = ops[j]
        ops[j] = (kind, fault, payload + (True,))
    return out


def cleanup():
    shutil.rmtree(BATCH_DIR, ignore_errors=True)


def spawn(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "wblow", *argv], capture_output=True, cwd=ROOT, env=ENV, timeout=60
    )
    report = proc.stdout if proc.stdout.strip() else proc.stderr
    if proc.returncode not in (0, 1, 2, 3) or not report.lstrip().startswith(b"{"):
        raise NoReport(f"exit {proc.returncode} without a report: {proc.stderr[-300:]!r}")
    return proc.returncode, proc.stdout, proc.stderr


def run(op, wb, tr):
    return tr.call("cli.process", spawn, op[2][0])


# ---------------------------------------------------------------------------
# Checks


def _system_dict(w, m):
    return {"notation": notation(w, m), "weights": list(w), "m": m, "lcm": math.lcm(*w)}


def _lift_instance_dict(base, m, a, delta=None):
    reduced, factor, lcm, lifted = oracles.lift_weights(tuple(base), a)
    lifted += delta or 0
    return {
        "base_weights": list(reduced), "m": m, "multiplier": a, "normalization_factor": factor,
        "base_lcm": lcm, "lifted_weight": lifted, "weights": list(reduced) + [lifted], "step": lcm,
    }


def _sweep(check, base, lifted, a, step, d_max, what):
    v = check["counterexample"]
    violation = None if v is None else (v["d"], tuple(v["monomial"]))
    wl_lift.check_sweep(check["status"], check["d_range"], violation, base, lifted, a, step, d_max, what)


def check_result(spec, res):
    command, target, params, facts = spec
    what = f"{command} {target} {params}"
    if command in ("charts", "fan"):
        w, m = facts
        n = len(w)
        expect(res["system"] == _system_dict(w, m), f"{what}: system {res['system']}")
        if command == "fan":
            unit = [[frac(int(j == k)) for k in range(n)] for j in range(n)]
            expect(res["rays"] == unit + [[frac(Fraction(a, m)) for a in w]], f"{what}: rays")
            expect(res["cones"] == [[j for j in range(n) if j != i] + [n] for i in range(n)], f"{what}: cones")
            expect(res["subdivision_check"] == {"grid": 4, "ok": True}, f"{what}: subdivision check")
            want = [oracles.cone_index(w, m, i) for i in range(1, n + 1)]
            expect(res["cone_indices"] == want, f"{what}: cone indices {res['cone_indices']}")
            return
        indices = [params["chart"]] if "chart" in params else list(range(1, n + 1))
        expect([c["index"] for c in res["charts"]] == indices, f"{what}: chart indices")
        for c in res["charts"]:
            i = c["index"]
            order, qw = oracles.chart_quotient(w, m, i)
            expect(c["order"] == order and c["quotient_type"]["m"] == order, f"{what}: chart {i} order")
            expect(c["quotient_type"]["weights"] == list(qw), f"{what}: chart {i} weights")
            rows = [[frac(x) for x in row] for row in oracles.chart_rows(w, m, i)]
            expect(c["substitution"] == rows, f"{what}: chart {i} substitution")
            expect(c["cone_index"] == oracles.cone_index(w, m, i), f"{what}: chart {i} cone index")
    elif command == "ideal":
        w, m, t = facts
        expect(res["system"] == _system_dict(w, m), f"{what}: system")
        expect(res["k"] == frac(Fraction(t, m)) and res["threshold_numerator"] == frac(t), f"{what}: k")
        oracles.check_generators(res["generators"], w, t, what)
        expect(res["monomials_below"] == oracles.count_below(w, m, t), f"{what}: monomials below")
    elif command in ("wt", "pushforward"):
        w, m, terms = facts
        low = min(oracles.weight(s, w) for s in terms)
        if command == "wt":
            expect(res["weight"] == frac(Fraction(low, m)), f"{what}: weight {res['weight']}")
            got = {tuple(x["exponents"]): x["weight"] for x in res["per_monomial"]}
            expect(got == {s: frac(Fraction(oracles.weight(s, w), m)) for s in terms}, f"{what}: per monomial")
            return
        expect(res["multiplicity"] == frac(Fraction(low, m)), f"{what}: multiplicity")
        expect(res["eigenvalue_class"] == low % m, f"{what}: eigenvalue class")
        a_max = math.ceil(Fraction(low, m)) + 1
        expect([lv["a"] for lv in res["levels"]] == list(range(a_max + 1)), f"{what}: levels")
        for lv in res["levels"]:
            oracles.check_generators(lv["generators"], w, lv["a"] * m, f"{what} level {lv['a']}")
    elif command == "transform":
        w, m, terms, i = facts
        low = Fraction(min(oracles.weight(s, w) for s in terms), m)
        expect(res["chart"] == i and res["factored_exponent"] == frac(low), f"{what}: factored exponent")
        back = {}
        for term in res["residual"]:
            exps = [Fraction(e) for e in term["exponents"]]
            back[oracles.invert_chart_term(exps, low, w, m, i)] = Fraction(term["coefficient"])
        expect(back == terms, f"{what}: residual does not map back to g")
        on_divisor = [t for t in res["residual"] if Fraction(t["exponents"][i - 1]) == 0]
        expect(res["divisor_restriction"] == on_divisor, f"{what}: divisor restriction")
    elif command == "lift-check":
        base, m, a, d_max, delta = facts
        inst = _lift_instance_dict(base, m, a, delta)
        expect(res["instance"] == inst, f"{what}: instance {res['instance']}")
        expect(res["mutated"] == (delta is not None), f"{what}: mutated flag")
        _sweep(res["check"], inst["base_weights"], inst["lifted_weight"], a, inst["step"], d_max, what)
    elif command == "chain":
        m, weights, a_seq, d_max = facts
        expect(res["status"] == "pass" and res["halted_at"] is None, f"{what}: status {res['status']}")
        current = tuple(((x - 1) % m) + 1 for x in weights)
        expect(res["initial_weights"] == list(current), f"{what}: initial weights")
        expect(len(res["stages"]) == len(a_seq), f"{what}: stages")
        qweights = [x % m for x in weights]
        for stage, a in zip(res["stages"], a_seq):
            inst = _lift_instance_dict(current, m, a)
            expect(stage["instance"] == inst, f"{what}: stage {stage['index']} instance")
            qweights.append(inst["lifted_weight"] % m)
            expect(stage["lifted_type"]["weights"] == qweights, f"{what}: stage {stage['index']} type")
            _sweep(stage["check"], inst["base_weights"], inst["lifted_weight"], a, inst["step"], d_max, what)
            current = tuple(inst["weights"])
    elif command == "invariants":
        m, w = facts
        bound = len(w) * m
        expect(res["degree_bound"] == bound and res["complete"] is True, f"{what}: bound")
        basis = oracles.hilbert_basis(m, w)
        expect([tuple(b) for b in res["basis"]] == basis, f"{what}: basis {res['basis']}")
        if len(w) == 2 and len(basis) == 3:
            rel = res["relation"]
            wl_ideal.check_relation(m, w, [tuple(b) for b in rel["basis"]], tuple(rel["exponents"]), what)
        else:
            expect(res["relation"] is None, f"{what}: unexpected relation")
    elif command == "example33":
        r, m, a = facts
        rm = r * m
        expect(res["checks_passed"] is True, f"{what}: checks failed")
        expect([tuple(b) for b in res["surface_basis"]] == oracles.hilbert_basis(rm, (1, rm - 1)), f"{what}: basis")
        expect(res["relation"]["exponents"] == [1, 1, rm], f"{what}: relation")
        order = r * r * m
        expect(res["action_lift"]["induced_weights"] == [rm * a % order, -rm * a % order, rm % order], what)
    elif command == "truncation" and "find_stable" in params:
        w, m, d_max, limit = facts
        c = wl_ideal.stable_c(w, d_max, limit)
        want = None if c is None else frac(Fraction(c * math.lcm(*w), m))
        expect(res["stable_b"] == want, f"{what}: stable b {res['stable_b']}, expected {want}")
    else:
        w, m, c, d = facts
        t_b = c * math.lcm(*w)
        expect(res["b"] == frac(Fraction(t_b, m)) and res["d"] == d, f"{what}: b, d")
        wl_ideal.check_truncation(
            w, t_b, d, res["truncation_generators"], res["power_generators"],
            res["equal"], res["witness"], res["containment_ok"], what,
        )


def _caught_mutant(spec) -> bool:
    """A lift-check --mutate whose offset breaks some degree up to d_max."""
    command, _, params, facts = spec
    if command != "lift-check" or "mutate" not in params:
        return False
    base, m, a, d_max, delta = facts
    reduced, _, lcm, lifted = oracles.lift_weights(tuple(base), a)
    return oracles.first_failing_degree(reduced, lifted + delta, a, lcm, d_max) is not None


def check_report(spec, payload, code=None):
    """Envelope and result of one report; code is the process exit code when known."""
    command, target, params, facts = spec
    what = f"{command} {target}"
    expect(set(payload) == ENVELOPE, f"{what}: envelope keys {sorted(payload)}")
    expect(payload["schema_version"] == 1 and payload["command"] == command, f"{what}: header")
    expect(payload["input"] == {"target": target, "parameters": dict(sorted(params.items()))}, f"{what}: input echo")
    status, exit_code = ("verification-failed", 2) if _caught_mutant(spec) else ("ok", 0)
    expect(payload["status"] == status and payload["exit_code"] == exit_code, f"{what}: {payload['status']}")
    expect(code is None or code == exit_code, f"{what}: process exit {code}")
    expect(payload["error"] is None, f"{what}: error {payload['error']}")
    check_result(spec, payload["result"])


def check(op, out):
    kind, fault, payload = op
    argv, specs = payload[:2]
    code, stdout, stderr = out
    if len(payload) > 2:
        again = spawn(argv)
        expect(again[1] == stdout and again[0] == code, f"{argv[:2]}: output differs between two runs")
    if kind == "cli":
        expect(stdout.strip() != b"", f"{argv[:2]}: no report on stdout")
        check_report(specs[0], json.loads(stdout), code)
        return
    body = json.loads(stdout if stdout.strip() else stderr)
    expect(set(body) == ENVELOPE and body["command"] == "batch", f"batch: envelope {sorted(body)}")
    results = body["result"]["results"]
    if not fault:
        expect(code == 0 and body["status"] == "ok", f"batch: status {body['status']}, exit {code}")
        expect(len(results) == len(specs), f"batch: {len(results)} results for {len(specs)} entries")
        for spec, rep in zip(specs, results):
            check_report(spec, rep)
        return
    # the malformed batch, once it yields a report: one error for the bad entry only
    expect(code == 1 and body["status"] == "error", f"malformed batch: exit {code}")
    expect(len(results) == len(MALFORMED), "malformed batch: result count")
    bad = results[1]
    expect(bad["status"] == "error" and bad["error"]["kind"] == "invalid-instance", "malformed batch: bad entry")
    for i in (0, 2):
        expect(results[i]["status"] == "ok", f"malformed batch: entry {i} is {results[i]['status']}")


def _main(cli, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def layer_counts(op, out, tr):
    """In-process `wblow.cli.main(argv)`, output captured, for the per-command time."""
    kind, fault, payload = op
    if fault:
        return
    import wblow.cli

    tr.call(f"cli.{payload[0][0]}.main", _main, wblow.cli, payload[0])
    if kind == "batch":
        tr.count("cli.batch.entries", len(payload[1]))


def probe_process_start(tr, repeats=5):
    """Bare interpreter start and a fresh `import wblow.cli`, each timed `repeats` times."""
    for code, name in (("pass", "cli.interpreter"), ("import wblow.cli", "cli.import")):
        for _ in range(repeats):
            tr.call(
                name, subprocess.run, [sys.executable, "-c", code], cwd=ROOT, env=ENV, check=True, timeout=60
            )

