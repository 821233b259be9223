"""Proof that the benchmark's checks are not vacuous.

    python3 bench/selfcheck.py

1. The independent computations in oracles.py agree with brute force on
   small cases.
2. One short pass of every workload runs with all its checks; only the
   named fault operations may fail.
3. Every check rejects a deliberately wrong answer: an off-by-one count, a
   missing or non-minimal generator, a wrong valuation or transform, a
   witness at the wrong degree, a changed JSON envelope, output that
   differs between two runs, and so on.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as NS

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import oracles  # noqa: E402
from common import CheckError, NullTracer  # noqa: E402

results = []


def claim(what: str, holds: bool) -> None:
    results.append((what, holds))
    print(f"{'ok  ' if holds else 'FAIL'} {what}")


def fails(fn) -> bool:
    """True when a check rejects its input."""
    try:
        fn()
    except CheckError:
        return True
    return False


def rejects(what: str, fn) -> None:
    claim(f"rejects {what}", fails(fn))


def box(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def brute_force_oracles():
    for w, m, t in (((2, 3, 5), 3, 30), ((1, 4), 2, 13), ((3, 3, 2), 4, 20)):
        pts = [s for s in box([t // a for a in w]) if oracles.weight(s, w) < t]
        claim(f"count_below{w, t} by partitions", oracles.count_below(w, m, t) == len(pts))
        inv = sum(1 for s in pts if oracles.weight(s, w) % m == 0)
        claim(f"invariant count_below{w, m, t}", oracles.count_below(w, m, t, True) == inv)
        gens = sorted(s for s in box([-(-t // a) for a in w]) if oracles.is_min_gen(s, w, t))
        claim(f"min_gen_count{w, t}", oracles.min_gen_count(w, t) == len(gens))
        claim(f"min_gens{w, t}", sorted(oracles.min_gens(w, t)) == gens)
    for w, t, d in (((2, 3), 6, 2), ((2, 3), 6, 3), ((2, 3, 5), 10, 2), ((1, 3, 4), 6, 3)):
        base = oracles.min_gens(w, t)
        sums = {tuple(map(sum, zip(*c))) for c in itertools.combinations_with_replacement(base, d)}
        trunc = oracles.min_gens(w, d * t)
        agree = all(
            oracles.in_power(g, w, t, d, base) == any(oracles.divides(p, g) for p in sums) for g in trunc
        )
        claim(f"in_power{w, t, d} against all {d}-fold sums", agree)
    claim("hilbert_basis 1/4(1,2)", oracles.hilbert_basis(4, (1, 2)) == [(0, 2), (2, 1), (4, 0)])
    claim("hilbert_basis 1/5(1,4)", oracles.hilbert_basis(5, (1, 4)) == [(1, 1), (0, 5), (5, 0)])
    # the decomposition violation against a walk over every point of the box
    base, lifted, a, step = (1, 2), 5, 2, 2  # forced weight would be 4
    for d in (1, 2, 3):
        caps, cap_n = oracles.box_caps(base, lifted, d * step)
        walk = any(
            (oracles.weight(s, base) + s[-1] * lifted >= d * step)
            != (d <= a or oracles.weight(s, base) + (s[-1] - 1) * lifted >= (d - a) * step)
            for s in box(caps + (cap_n,))
            if s[-1] >= 1
        )
        found = oracles.decomposition_violation(base, lifted, a, step, d) is not None
        claim(f"decomposition_violation at d={d} matches a full box walk", walk == found)


def run_short(mods, wb):
    outputs = {}
    for name, mod in mods.items():
        passes = mod.build(common.rng_for(name, 0, "selfcheck"), 1, set())
        bad = 0
        for op in passes[0]:
            try:
                out = mod.run(op, wb, NullTracer())
            except Exception:  # only the named faults may fail
                bad += not op[1]
                continue
            try:
                mod.check(op, out)
            except CheckError as exc:
                print(f"     {exc}")
                bad += 1
            outputs.setdefault(op[0], []).append((op, out))
        claim(f"{name}: one pass of {len(passes[0])} operations checks clean", bad == 0)
    return outputs


def wrong_answers(mods, outputs):
    outs = {kind: pairs[0] for kind, pairs in outputs.items()}
    outs["mutant"] = next(p for p in outputs["mutant"] if p[1][1].counterexample is not None)
    chart, ideal, lift, cli = (mods[n] for n in ("chart-route", "ideal-enum", "lift-sweep", "cli-mixed"))

    op, (system, f, w, per) = outs["chart-route"]
    m = op[2][3]
    rejects("a weight off by 1/m", lambda: chart.check(op, (system, f, w + Fraction(1, m), per)))
    ch, v, st = per[0]
    rejects("a wrong chart valuation", lambda: chart.check(op, (system, f, w, [(ch, v * 2 + 1, st)] + per[1:])))
    rows = [list(r) for r in ch.substitution]
    rows[0][0] += 1
    fake_ch = NS(index=ch.index, quotient_type=ch.quotient_type, substitution=rows)
    rejects("a wrong chart substitution", lambda: chart.check(op, (system, f, w, [(fake_ch, v, st)] + per[1:])))
    terms = list(st.terms)
    terms[0] = (terms[0][0], terms[0][1] + 1)
    fake_st = NS(chart_index=st.chart_index, factored_exponent=st.factored_exponent, terms=tuple(terms))
    rejects("a wrong strict-transform coefficient", lambda: chart.check(op, (system, f, w, [(ch, v, fake_st)] + per[1:])))
    terms = [(tuple(e[:-1]) + (e[-1] + 1,), c) for e, c in st.terms]
    fake_st = NS(chart_index=st.chart_index, factored_exponent=st.factored_exponent, terms=tuple(terms))
    rejects("a shifted strict transform", lambda: chart.check(op, (system, f, w, [(ch, v, fake_st)] + per[1:])))

    op, out = outs["gens"]
    rejects("a missing generator", lambda: ideal.check(op, NS(k=out.k, gens=out.gens[:-1])))
    g0 = tuple(out.gens[0])
    bumped = (g0[0] + 1,) + g0[1:]
    rejects("a non-minimal generator", lambda: ideal.check(op, NS(k=out.k, gens=(bumped,) + tuple(out.gens[1:]))))
    for op, out in [outs["count"]]:
        rejects("an off-by-one count", lambda: ideal.check(op, out + 1))
    op, out = outs["pvt"]
    trunc = out.truncation
    if out.equal:
        fake = NS(d=out.d, b=out.b, truncation=trunc, power_gens=out.power_gens, equal=False,
                  witness=trunc.gens[0], containment_ok=True)
    else:
        fake = NS(d=out.d, b=out.b, truncation=trunc, power_gens=trunc.gens, equal=True,
                  witness=None, containment_ok=True)
    rejects("a flipped power-versus-truncation verdict", lambda: ideal.check(op, fake))
    op, out = outs["stable"]
    step = Fraction(math.lcm(*op[2][0]), op[2][1])
    rejects("a stable b one step off", lambda: ideal.check(op, (out or 0) + step))
    op, out = outs["basis"]
    fake = NS(degree_bound=out.degree_bound, generators=out.generators[:-1], complete=out.complete)
    rejects("a basis missing an element", lambda: ideal.check(op, fake))
    op, out = outs["binrel"]
    alpha, beta, gamma = out.exponents
    rejects("a wrong binomial relation", lambda: ideal.check(op, NS(basis=out.basis, exponents=(alpha + 1, beta, gamma))))

    op, (inst, rep) = outs["verify"]
    bogus = NS(status="fail", d_range=rep.d_range, counterexample=NS(d=1, monomial=(0, 0, 0, 1)))
    rejects("a derived instance reported as failing", lambda: lift.check(op, (inst, bogus)))
    wrong_inst = dataclasses.replace(inst, lifted_weight=inst.lifted_weight + 1,
                                     weights=inst.base_weights + (inst.lifted_weight + 1,))
    rejects("a wrong lifted weight", lambda: lift.check(op, (wrong_inst, rep)))
    op, (inst, study) = outs["mutation"]
    moved = [dataclasses.replace(o, first_failing_d=(o.first_failing_d or 0) + 1) for o in study.outcomes]
    rejects("a mutation caught at the wrong degree", lambda: lift.check(op, (inst, NS(outcomes=moved))))
    op, (inst, rep) = outs["mutant"]
    v = rep.counterexample
    late = NS(status=rep.status, d_range=rep.d_range, counterexample=NS(d=v.d + 1, monomial=v.monomial))
    rejects("a mutant witness at the wrong degree", lambda: lift.check(op, (inst, late)))
    caps, _ = oracles.box_caps(inst.base_weights, inst.lifted_weight, v.d * inst.step)
    heavy = NS(d=v.d, monomial=tuple(caps) + (v.monomial[-1],))  # in every ideal: no violation
    moved = NS(status=rep.status, d_range=rep.d_range, counterexample=heavy)
    rejects("a mutant witness that does not break the identity", lambda: lift.check(op, (inst, moved)))
    op, out = outs["chain"]
    rejects("a chain with a wrong start", lambda: lift.check(op, NS(
        status=out.status, halted_at=None, stages=out.stages,
        initial_weights=tuple(x + 1 for x in out.initial_weights))))

    op, (code, stdout, stderr) = outs["cli"]
    payload = json.loads(stdout)
    spec = op[2][1][0]
    rejects("a JSON report missing an envelope key",
            lambda: cli.check_report(spec, {k: v for k, v in payload.items() if k != "provenance"}, code))
    rejects("an undocumented exit code", lambda: cli.check_report(spec, payload, 1))
    rejects("a report with a changed result",
            lambda: cli.check_report(spec, {**payload, "result": {**payload["result"], "system": None}}, code))
    once = (op[0], op[1], op[2][:2] + (True,))
    rejects("stdout that differs between two runs", lambda: cli.check(once, (code, stdout + b" ", stderr)))
    # the fault operations, once mended, are checked too
    fault = next(op for op in _ops(mods["lift-sweep"]) if op[1])
    mended = NS(status="pass", d_range=(fault[2],), counterexample=None)
    claim("accepts a mended refused degree", not fails(lambda: lift.check(fault, mended)))
    rejects("a refused degree that reports fail", lambda: lift.check(fault, NS(status="fail", d_range=(fault[2],))))
    fault = next(op for op in _ops(cli) if op[1])
    ok = {"status": "ok"}
    bad = {"status": "error", "error": {"kind": "invalid-instance", "message": "target must be text"}}
    body = {"schema_version": 1, "command": "batch", "input": {}, "status": "error", "exit_code": 1,
            "result": {"results": [ok, bad, ok]}, "error": None, "provenance": []}
    report = json.dumps(body).encode()
    claim("accepts a mended malformed batch", not fails(lambda: cli.check(fault, (1, b"", report))))
    body["result"]["results"][1] = {**bad, "error": {"kind": "parse-error", "message": "x"}}
    rejects("a malformed batch with the wrong error kind",
            lambda: cli.check(fault, (1, b"", json.dumps(body).encode())))

    op, out = outs["batch"]
    code, stdout, stderr = out
    body = json.loads(stdout)
    body["result"]["results"] = body["result"]["results"][:-1]
    rejects("a batch with a missing entry", lambda: cli.check(op, (code, json.dumps(body).encode(), stderr)))
    ideal_spec = next(s for s in op[2][1] if s[0] == "ideal")
    rep = json.loads(stdout)["result"]["results"][op[2][1].index(ideal_spec)]
    off = {**rep, "result": {**rep["result"], "monomials_below": rep["result"]["monomials_below"] + 1}}
    rejects("a batch entry with an off-by-one count", lambda: cli.check_report(ideal_spec, off))


def _ops(mod):
    return mod.build(common.rng_for(mod.NAME, 0, "selfcheck"), 1, set())[0]


def main() -> int:
    wb = common.load_program()
    import worker

    mods = worker.modules()
    brute_force_oracles()
    try:
        outs = run_short(mods, wb)
        wrong_answers(mods, outs)
    finally:
        mods["cli-mixed"].cleanup()
    failed = [what for what, holds in results if not holds]
    print(f"selfcheck: {len(results) - len(failed)} of {len(results)} claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
