"""lift-sweep: many small runs of the lifting-decomposition engine.

Make-up of one pass (12 operations):

- 3 x make_lift_instance + verify_decomposition_range on a derived instance
  (3 section weights 1..12, multiplier 1..3, d_max 2..8, sized so that
  lcm * d_max * (d_max + 1) / 2 stays within 400-1,500);
- 1 x mutation_study on a smaller instance (work 200-800);
- 2 x a mutated instance (lifted weight off by -3..3) swept by
  verify_decomposition_range, expected to fail with a witness;
- 2 x chain_report from a 3-dimensional start 1/m(a,b,c), m = 2..7, with
  one multiplier and d_max = 2..4, or two multipliers and d_max = 2;
- 4 x make_lift_instance((3,5,7), 1, 2) checked at d = 9, 10, 11, 12.  These
  four inputs are the same in every pass and every seed.  The nominal box
  (58,064,573 points at d = 9) exceeds the default 50 M budget, so today
  each one is refused with EnumerationLimitError and counts as failed.

No two other operations in a run do the same work (see common.fresh).
"""

from __future__ import annotations

from functools import lru_cache

import common
import oracles
from common import expect

NAME = "lift-sweep"
PASSES_PER_SECOND = 150.0
REFUSED = ((3, 5, 7), 1, 2)
REFUSED_DEGREES = (9, 10, 11, 12)
WEIGHTS = range(1, 13)


def _sized(lo, hi):
    """Instances whose sweep work, lcm * d_max * (d_max + 1) / 2, lies in [lo, hi]."""

    def make(rng):
        while True:
            base = tuple(rng.choices(WEIGHTS, k=3))
            a = rng.randint(1, 3)
            d_max = rng.randint(2, 8)
            if lo <= oracles.lift_weights(base, a)[2] * d_max * (d_max + 1) // 2 <= hi:
                return base, rng.randint(1, 6), a, d_max

    return make


_instance = _sized(400, 1500)


def _mutant(rng):
    base, m, a, d_max = _instance(rng)
    delta = rng.choice((-3, -2, -1, 1, 2, 3))
    if oracles.lift_weights(base, a)[3] + delta < 1:
        delta = -delta
    return base, m, a, delta, d_max


def chain_input(rng):
    """One stage up to d = 4, or two stages at d <= 2.

    Two-stage chains at d = 3..4 reach nominal boxes of 6e7-9e7 points for
    some starts, which the budget refuses (the fault described above); they
    are left out so that the share of refused operations does not depend on
    the seed.
    """
    m = rng.randint(2, 7)
    weights = tuple(rng.randint(1, m) for _ in range(3))
    if rng.random() < 0.5:
        return m, weights, (rng.randint(1, 2),), rng.randint(2, 4)
    return m, weights, (rng.randint(1, 2), rng.randint(1, 2)), 2


KINDS = (
    ("verify", _instance),
    ("verify", _instance),
    ("verify", _instance),
    ("mutation", _sized(200, 800)),
    ("mutant", _mutant),
    ("mutant", _mutant),
    ("chain", chain_input),
    ("chain", chain_input),
)


def _work(kind, payload):
    """The group order m is recorded in an instance but does not change the sweep."""
    return (kind,) + (payload if kind == "chain" else payload[:1] + payload[2:])


def build(rng, passes: int, seen: set) -> list:
    out = []
    for _ in range(passes):
        ops = []
        for kind, make in KINDS:
            payload = common.fresh(rng, seen, make, lambda p, k=kind: _work(k, p))
            ops.append((kind, False, payload))
        ops.extend(("refused", True, d) for d in REFUSED_DEGREES)
        out.append(ops)
    return out


def run(op, wb, tr):
    kind, _, p = op
    call = tr.call
    if kind == "refused":
        inst = wb.make_lift_instance(*REFUSED)
        return call("lifting.verify_decomposition", wb.verify_decomposition, inst, p)
    if kind == "chain":
        m, weights, a_seq, d_max = p
        q = wb.CyclicQuotientType(m, weights)
        start = wb.HyperquotientType(q, wb.Polynomial.zero(3), 0)
        return call("lifting.chain_report", wb.chain_report, start, a_seq, d_max)
    base, m, a = p[:3]
    inst = wb.make_lift_instance(base, m, a)
    if kind == "mutation":
        return inst, call("lifting.mutation_study", wb.mutation_study, inst, p[3])
    if kind == "mutant":
        inst = wb.mutated_instance(inst, p[3])
    return inst, call("lifting.verify_decomposition", wb.verify_decomposition_range, inst, p[-1])


def check_instance(inst, base, m, a, what):
    reduced, factor, lcm, lifted = oracles.lift_weights(tuple(base), a)
    expect(tuple(inst.base_weights) == reduced, f"{what}: base weights {inst.base_weights}")
    expect(inst.normalization_factor == factor, f"{what}: factor {inst.normalization_factor}")
    expect(inst.base_lcm == lcm and inst.step == lcm, f"{what}: lcm {inst.base_lcm}, step {inst.step}")
    expect(inst.multiplier == a and inst.m == m, f"{what}: multiplier {inst.multiplier}, m {inst.m}")
    expect(inst.lifted_weight == lifted, f"{what}: lifted weight {inst.lifted_weight}, expected {lifted}")
    expect(tuple(inst.weights) == reduced + (lifted,), f"{what}: weights {inst.weights}")


def check_sweep(status, d_range, violation, base, lifted, a, step, d_max, what):
    """A range sweep reports pass, or fail at the first violating degree with a real witness."""
    expect(tuple(d_range) == tuple(range(1, d_max + 1)), f"{what}: degrees {d_range}")
    first = oracles.first_failing_degree(base, lifted, a, step, d_max)
    if first is None:
        expect(status == "pass" and violation is None, f"{what}: status {status}, expected pass")
        return
    expect(status == "fail" and violation is not None, f"{what}: status {status}, fails at d={first}")
    d, monomial = violation
    expect(d == first, f"{what}: first failure reported at d={d}, expected d={first}")
    oracles.check_witness(monomial, base, lifted, a, step, d)


def _violation(report):
    v = report.counterexample
    return None if v is None else (v.d, v.monomial)


def check(op, out):
    kind, _, p = op
    what = f"{kind}{p}"
    if kind == "refused":
        expect(out.status == "pass" and tuple(out.d_range) == (p,), f"{what}: status {out.status}")
        return
    if kind == "chain":
        m, weights, a_seq, d_max = p
        expect(out.status == "pass" and out.halted_at is None, f"{what}: chain status {out.status}")
        expect(len(out.stages) == len(a_seq), f"{what}: {len(out.stages)} stages")
        current = tuple(((w - 1) % m) + 1 for w in weights)
        qweights = tuple(w % m for w in weights)
        expect(tuple(out.initial_weights) == current, f"{what}: initial weights {out.initial_weights}")
        for stage, a in zip(out.stages, a_seq):
            reduced, _, lcm, lifted = oracles.lift_weights(current, a)
            check_instance(stage.instance, current, m, a, what)
            qweights = qweights + (lifted % m,)
            expect(tuple(stage.lifted_type.weights) == qweights, f"{what}: lifted type {stage.lifted_type}")
            expect(stage.lifted_type.m == m, f"{what}: lifted order {stage.lifted_type.m}")
            check_sweep(
                stage.check.status, stage.check.d_range, _violation(stage.check),
                reduced, lifted, a, lcm, d_max, what,
            )
            current = reduced + (lifted,)
        return
    inst, report = out
    base, m, a = p[:3]
    reduced, _, lcm, lifted = oracles.lift_weights(tuple(base), a)
    if kind == "mutant":
        lifted += p[3]
        expect(inst.lifted_weight == lifted, f"{what}: mutated weight {inst.lifted_weight}")
        expect(not inst.is_derived, f"{what}: mutant claims to be derived")
    else:
        check_instance(inst, base, m, a, what)
    if kind == "mutation":
        deltas = [dl for dl in range(-3, 4) if dl and lifted + dl >= 1]
        expect([o.delta for o in report.outcomes] == deltas, f"{what}: mutation offsets")
        for o in report.outcomes:
            expect(o.lifted_weight == lifted + o.delta, f"{what}: outcome weight {o.lifted_weight}")
            first = oracles.first_failing_degree(reduced, lifted + o.delta, a, lcm, p[3])
            expect(
                o.first_failing_d == first,
                f"{what}: offset {o.delta} first fails at {o.first_failing_d}, expected {first}",
            )
        return
    check_sweep(report.status, report.d_range, _violation(report), reduced, lifted, a, lcm, p[-1], what)


@lru_cache(maxsize=None)
def _degree_work(base, lifted, step, d):
    """(nominal box the budget compares, achievable prefix weights) at degree d."""
    caps, _ = oracles.box_caps(base, lifted, d * step)
    return oracles.box_points(base, lifted, d * step), oracles.reachable_weights(caps, base).bit_count()


def _count_degrees(tr, base, lifted, step, degrees):
    for d in degrees:
        box, prefixes = _degree_work(tuple(base), lifted, step, d)
        tr.count("lifting.box_points", box)
        tr.count("lifting.prefix_weights", prefixes)


def layer_counts(op, out, tr):
    kind, _, p = op
    if kind == "refused":
        reduced, _, lcm, lifted = oracles.lift_weights(REFUSED[0], REFUSED[2])
        _count_degrees(tr, reduced, lifted, lcm, (p,))
        refused = isinstance(out, Exception)
        tr.count("lifting.degrees_refused" if refused else "lifting.degrees_checked")
        return
    if kind == "chain":
        tr.count("lifting.chain_stages", len(out.stages))
        for stage in out.stages:
            inst = stage.instance
            degrees = stage.check.d_range
            tr.count("lifting.degrees_checked", len(degrees))
            _count_degrees(tr, inst.base_weights, inst.lifted_weight, inst.step, degrees)
        return
    inst, report = out
    if kind == "mutation":
        tr.count("lifting.mutations", report.applicable)
        tr.count("lifting.mutations_caught", report.caught)
        return
    tr.count("lifting.degrees_checked", len(report.d_range))
    _count_degrees(tr, inst.base_weights, inst.lifted_weight, inst.step, report.d_range)
