"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison below is equality, never a
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import ceil_div, random_semi_invariant, random_weight_system
from wblow.blowup import build_fan, chart, cone_index, exceptional_valuation
from wblow.lifting import make_lift_instance, mutation_study, verify_decomposition
from wblow.quotient import (
    CyclicQuotientType,
    Polynomial,
    action_lift_check,
    binomial_relation_2d,
    invariant_monoid_basis,
    semi_invariant_class,
)
from wblow.wideal import (
    WeightSystem,
    find_stable_b,
    ideal_generators,
    monomial_weight,
    polynomial_weight,
    product_vs_truncation,
)


def report_line(number, name, passed, elapsed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail}; {elapsed:.1f}s)", flush=True)


def test_criterion_1_chart_formula_reproduction():
    """Chart quotient types match the reduced-weight formula; cone index = a_i."""
    t0 = time.time()
    rng = random.Random(101)
    failures = 0
    for _ in range(100):
        system = random_weight_system(rng, n_choices=(2, 3, 4), max_a=12, max_m=10)
        fan = build_fan(system)
        n, m = system.n, system.m
        for i in range(1, n + 1):
            a_i = system.weights[i - 1]
            expected = CyclicQuotientType(
                a_i, tuple(m if j == i - 1 else -system.weights[j] for j in range(n))
            )
            if chart(system, i).quotient_type != expected:
                failures += 1
            if cone_index(fan, i) != a_i:
                failures += 1
    elapsed = time.time() - t0
    passed = failures == 0 and elapsed < 30
    report_line(1, "chart formula reproduction", passed, elapsed, "100 random systems, exact")
    assert passed


def test_criterion_2_valuation_consistency():
    """Chartwise vanishing order agrees across charts and equals the weight."""
    t0 = time.time()
    rng = random.Random(202)
    failures = 0
    for _ in range(200):
        system = random_weight_system(rng, n_choices=(2, 3, 4), max_a=10, max_m=8)
        f = random_semi_invariant(rng, system)
        expected = polynomial_weight(f, system)
        values = {exceptional_valuation(f, system, i) for i in range(1, system.n + 1)}
        if values != {expected}:
            failures += 1
    elapsed = time.time() - t0
    passed = failures == 0 and elapsed < 30
    report_line(2, "valuation consistency", passed, elapsed, "200 semi-invariant polynomials")
    assert passed


def test_criterion_3_pushforward_monomial_identity():
    """Order >= a along the divisor (chart route) = level-a ideal membership.

    Systems are randomized inside feasibility caps (n in {2,3}, entries <= 4,
    m <= 3, bounded box totals) so the exhaustive sweep over 0 <= a <= 3M
    stays desk-scale.
    """
    t0 = time.time()
    rng = random.Random(303)
    systems = []
    while len(systems) < 20:
        n = rng.choice((2, 2, 3))
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        if math.gcd(*weights) != 1:
            continue
        m = rng.randint(1, 3)
        system = WeightSystem(weights, m)
        total = sum(
            math.prod(ceil_div(a * m, w) + 2 for w in weights)
            for a in range(1, 3 * system.lcm + 1)
        )
        if total > 120_000:
            continue
        systems.append(system)

    checked = 0
    failures = 0
    for system in systems:
        n, m = system.n, system.m
        for a in range(0, 3 * system.lcm + 1):
            ideal = ideal_generators(system, Fraction(a))
            caps = [ceil_div(a * m, w) + 1 for w in system.weights]
            for s in itertools.product(*[range(c + 1) for c in caps]):
                checked += 1
                by_ideal = ideal.contains_monomial(s)
                if any(s):
                    orders = {
                        exceptional_valuation(Polynomial.monomial(s), system, i)
                        for i in range(1, n + 1)
                    }
                    by_chart = len(orders) == 1 and orders.pop() >= a
                else:
                    by_chart = a <= 0
                if by_ideal != by_chart:
                    failures += 1
    elapsed = time.time() - t0
    passed = failures == 0 and elapsed < 120
    report_line(
        3, "pushforward identity at monomial level", passed, elapsed,
        f"20 systems, {checked} monomial checks",
    )
    assert passed


def test_criterion_4_lifting_decomposition():
    """Decomposition sweep passes on the whole grid; mutations are caught."""
    t0 = time.time()
    failures = 0
    instances = 0
    mutated_total = 0
    mutated_caught = 0
    for n_base in (2, 3):
        for base in itertools.product(range(1, 7), repeat=n_base):
            for m in range(1, 6):
                for a in range(1, 4):
                    inst = make_lift_instance(base, m, a)
                    instances += 1
                    for d in range(1, 9):
                        if not verify_decomposition(inst, d).passed:
                            failures += 1
                    study = mutation_study(inst, d_max=8)
                    mutated_total += study.applicable
                    mutated_caught += study.caught
    rate = mutated_caught / mutated_total
    elapsed = time.time() - t0
    passed = failures == 0 and rate >= 0.95 and elapsed < 300
    report_line(
        4, "lifting decomposition", passed, elapsed,
        f"{instances} instances x d<=8 zero failures, mutation catch rate {rate:.3f}",
    )
    assert passed


def test_criterion_5_worked_surface_example():
    """Invariant basis, binomial relation, lifted action, eigenvalue class."""
    t0 = time.time()
    ok = True
    for rm in range(2, 13):
        q = CyclicQuotientType(rm, (1, -1))
        basis = invariant_monoid_basis(q, 2 * rm)
        ok &= set(basis.generators) == {(rm, 0), (0, rm), (1, 1)} and basis.complete
        rel = binomial_relation_2d(q)
        ok &= rel.basis[2] == (1, 1) and rel.exponents == (1, 1, rm)
    for r in range(1, 7):
        for m in range(1, 5):
            for a in range(1, r + 1):
                if math.gcd(a, r) != 1:
                    continue
                ok &= action_lift_check(r, m, a).ok
                for exp_n in (2, 3):
                    ambient = CyclicQuotientType(r, (a, -a, 1, 0))
                    g = Polynomial(
                        4,
                        {(1, 1, 0, 0): 1, (0, 0, r * m, 0): 1, (0, 0, 0, exp_n): 1},
                    )
                    ok &= semi_invariant_class(g, ambient) == 0
    elapsed = time.time() - t0
    passed = ok and elapsed < 10
    report_line(
        5, "worked surface example reproduction", passed, elapsed,
        "bases 2<=rm<=12, action lifts r<=6 m<=4, eigenvalue class 0",
    )
    assert passed


def test_criterion_6_truncation_behavior():
    """Containment never violated; a stabilizing b exists within the search."""
    t0 = time.time()
    containment_ok = True
    stable_ok = True
    # explicit comparison sweep (documented grid): n=2, entries <= 7
    for a1 in range(1, 8):
        for a2 in range(1, 8):
            if math.gcd(a1, a2) != 1:
                continue
            system = WeightSystem((a1, a2), 1)
            for c in (1, 2):
                for d in (2, 3):
                    report = product_vs_truncation(system, c * system.lcm, d)
                    containment_ok &= report.containment_ok
    # stabilization sweep: n=2, entries <= 5, m <= 4
    for a1 in range(1, 6):
        for a2 in range(1, 6):
            if math.gcd(a1, a2) != 1:
                continue
            for m in range(1, 5):
                system = WeightSystem((a1, a2), m)
                found = find_stable_b(system, d_max=3, search_limit=8)
                if found is None:
                    stable_ok = False
    elapsed = time.time() - t0
    passed = containment_ok and stable_ok and elapsed < 180
    report_line(
        6, "truncation behavior", passed, elapsed,
        "containment everywhere, stable b found for every system",
    )
    assert passed


def test_criterion_7_generator_minimality_oracle():
    """Brute-force box enumeration reproduces the generated monomial set."""
    t0 = time.time()
    rng = random.Random(707)
    failures = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        while True:
            weights = tuple(rng.randint(1, 6) for _ in range(n))
            if math.gcd(*weights) == 1:
                break
        system = WeightSystem(weights, rng.randint(1, 4))
        k = Fraction(rng.randint(1, 24), rng.randint(1, 4) * system.m)
        ideal = ideal_generators(system, k)
        caps = [math.ceil(k * system.m / w) + 1 for w in weights]
        for s in itertools.product(*[range(c + 1) for c in caps]):
            direct = monomial_weight(s, system) >= k
            generated = any(
                all(gi <= si for gi, si in zip(g, s)) for g in ideal.gens
            )
            if direct != generated:
                failures += 1
        for g in ideal.gens:
            others = [h for h in ideal.gens if h != g]
            if any(all(hi <= gi for hi, gi in zip(h, g)) for h in others):
                failures += 1  # a generator was redundant: not minimal
    elapsed = time.time() - t0
    passed = failures == 0 and elapsed < 60
    report_line(
        7, "generator minimality oracle", passed, elapsed,
        "50 random thresholds, closure and minimality exact",
    )
    assert passed


def test_criterion_8_cli_determinism():
    """Byte-identical JSON across consecutive runs."""
    t0 = time.time()

    def run_cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "wblow", *args, "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    ok = True
    commands = [
        ("example33", "--r", "2", "--m", "1", "--a", "1"),
        ("charts", "1/5(1,2,3)"),
        ("lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--dmax", "6"),
    ]
    for cmd in commands:
        ok &= run_cli(*cmd) == run_cli(*cmd)
    elapsed = time.time() - t0
    report_line(
        8, "cli determinism", passed := ok, elapsed,
        "consecutive runs byte-identical",
    )
    assert passed
