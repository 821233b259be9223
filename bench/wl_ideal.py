"""ideal-enum: threshold ideals at sizes where enumeration does all the work.

Make-up of one pass (25 operations; no two operations in a run do the same
work, see common.fresh):

- 6 x ideal_generators, n = 3..4, threshold sized so the staircase walk
  visits about 350-650 prefix points;
- 6 x count_below and 6 x count_below(invariant_only), n = 3..4, about
  1,250-2,000 points below the threshold;
- 1 x product_vs_truncation, n = 2..3 (weights up to 40 and 9), d = 2..3,
  threshold at most 600, with 50-100 d-fold sums;
- 1 x find_stable_b, n = 2, weights 2..100 with product <= 200, d_max = 2..3;
- 4 x invariant_monoid_basis, n = 2..3, 400-1,000 candidates;
- 1 x binomial_relation_2d on a type 1/m(u, -u r), r | m, m = 8..36.

Sizes are set from closed-form estimates, so building the inputs costs
almost nothing; the exact counts the checks need come from the
restricted-partition program in ``oracles``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import common
import oracles
from common import expect

NAME = "ideal-enum"
PASSES_PER_SECOND = 22.0


def coprime_weights(rng, n, lo, hi):
    while True:
        w = tuple(rng.randint(lo, hi) for _ in range(n))
        if math.gcd(*w) == 1:
            return w


def threshold_for(weights, points) -> int:
    """t with about `points` vectors of weight < t: (t + sum/2)^n / (n! prod a) = points."""
    n = len(weights)
    t = (points * math.factorial(n) * math.prod(weights)) ** (1 / n) - sum(weights) / 2
    return max(int(round(t)), max(weights) + 1)


def _gens(rng):
    """Staircase walk: about 1.3 us per prefix point plus 4 us per generator here.

    With 350-650 prefix points, and at most one generator per prefix
    point and crossing, one call costs about 0.5-3.5 ms.
    """
    n = rng.randint(3, 4)
    w = coprime_weights(rng, n, 1, 9)
    return w, rng.randint(1, 5), threshold_for(w[:-1], rng.randint(350, 650))


def _count(invariant):
    def make(rng):
        n = rng.randint(3, 4)
        w = coprime_weights(rng, n, 1, 9)
        m = rng.randint(2, 6) if invariant else rng.randint(1, 5)
        return w, m, threshold_for(w, rng.randint(1250, 2000)), invariant

    return make


def _pvt(rng):
    while True:
        n = rng.randint(2, 3)
        w = coprime_weights(rng, n, 1, 9 if n == 3 else 40)
        d = rng.randint(2, 3)
        lcm = math.lcm(*w)
        for c in range(1, 600 // lcm + 1):
            sums = math.comb(oracles.min_gen_count(w, c * lcm) + d - 1, d)
            if sums > 100:
                break
            if sums >= 50:
                return w, rng.randint(1, 4), c, d


def stable_input(rng):
    while True:
        w = coprime_weights(rng, 2, 2, 100)
        if w[0] * w[1] <= 200:
            return w, rng.randint(1, 4), rng.randint(2, 3), 8


def _basis(rng):
    while True:
        n = rng.randint(2, 3)
        m = rng.randint(20, 60) if n == 2 else rng.randint(4, 10)
        w = tuple(rng.randint(1, m - 1) for _ in range(n))
        bound = rng.randint(m, n * m)
        if 400 <= math.comb(bound + n, n) <= 1000:
            return m, w, bound


def _binrel(rng):
    """1/m(u, -u r) with r a proper divisor of m and u a unit: basis (m,0), (r,1), (0,m/r) up to units."""
    m = rng.randint(8, 36)
    r = rng.choice([x for x in range(1, m) if m % x == 0])
    u = rng.choice([x for x in range(1, m) if math.gcd(x, m) == 1])
    return m, (u, (-u * r) % m)


# (kind, input maker, the part of the input that decides the work)
KINDS = (
    *6 * (("gens", _gens, lambda p: (p[0], p[2])),),
    *6 * (("count", _count(False), lambda p: (p[0], p[2])),),
    *6 * (("count", _count(True), lambda p: p),),
    *4 * (("basis", _basis, lambda p: p),),
    ("pvt", _pvt, lambda p: (p[0], p[2], p[3])),
    ("stable", stable_input, lambda p: (p[0], p[2])),
    ("binrel", _binrel, lambda p: p),
)


def build(rng, passes: int, seen: set) -> list:
    return [
        [(kind, False, common.fresh(rng, seen, make, lambda p, k=kind, key=key: (k, key(p))))
         for kind, make, key in KINDS]
        for _ in range(passes)
    ]


def run(op, wb, tr):
    kind, _, p = op
    call = tr.call
    if kind == "gens":
        w, m, t = p
        return call("wideal.ideal_generators", wb.ideal_generators, wb.WeightSystem(w, m), Fraction(t, m))
    if kind == "count":
        w, m, t, inv = p
        return call(
            "wideal.count_below", wb.count_below, wb.WeightSystem(w, m), Fraction(t, m), invariant_only=inv
        )
    if kind == "pvt":
        w, m, c, d = p
        b = Fraction(c * math.lcm(*w), m)
        return call("wideal.product_vs_truncation", wb.product_vs_truncation, wb.WeightSystem(w, m), b, d)
    if kind == "stable":
        w, m, d_max, limit = p
        return call("wideal.find_stable_b", wb.find_stable_b, wb.WeightSystem(w, m), d_max, limit)
    if kind == "basis":
        m, w, bound = p
        q = wb.CyclicQuotientType(m, w)
        return call("quotient.invariant_monoid_basis", wb.invariant_monoid_basis, q, bound)
    m, w = p
    return call("quotient.binomial_relation_2d", wb.binomial_relation_2d, wb.CyclicQuotientType(m, w))


def check_truncation(w, t_b, d, trunc, power, equal, witness, containment_ok, what):
    """Power-versus-truncation report against independent membership tests."""
    oracles.check_generators(trunc, w, d * t_b, f"{what} truncation")
    expect(containment_ok is True, f"{what}: containment reported as {containment_ok}")
    base = oracles.min_gens(w, t_b)
    power = [tuple(g) for g in power]
    for g in power:
        expect(oracles.weight(g, w) >= d * t_b, f"{what}: power generator {g} escapes the truncation")
        expect(oracles.in_power(g, w, t_b, d, base), f"{what}: {g} is not a {d}-fold product")
    for g in power:
        expect(
            not any(u != g and oracles.divides(u, g) for u in power),
            f"{what}: power generator {g} is not minimal",
        )
    if equal:
        expect(witness is None, f"{what}: equal but a witness {witness} is given")
        expect(set(power) == {tuple(g) for g in trunc}, f"{what}: equal but generator sets differ")
    else:
        expect(witness is not None, f"{what}: unequal without a witness")
        witness = tuple(witness)
        expect(witness in {tuple(g) for g in trunc}, f"{what}: witness {witness} is not a truncation generator")
        expect(not oracles.in_power(witness, w, t_b, d, base), f"{what}: witness {witness} lies in the power")


def stable_c(w, d_max, limit):
    """Smallest c <= limit with power = truncation at c*lcm for every d <= d_max."""
    lcm = math.lcm(*w)
    for c in range(1, limit + 1):
        if all(oracles.power_equals_truncation(w, c * lcm, d)[0] for d in range(2, d_max + 1)):
            return c
    return None


def check_basis(m, w, bound, gens, complete, what):
    expect(
        [tuple(g) for g in gens] == oracles.hilbert_basis(m, w, bound),
        f"{what}: basis {list(gens)} differs from the brute-force Hilbert basis",
    )
    expect(complete == (bound >= len(w) * m), f"{what}: complete flag {complete}")


def check_relation(m, w, basis, exponents, what):
    true_basis = oracles.hilbert_basis(m, w)
    expect(sorted(map(tuple, basis)) == sorted(true_basis), f"{what}: relation basis {basis}")
    alpha, beta, gamma = exponents
    u, v, z = basis
    expect(min(exponents) > 0 and math.gcd(*exponents) == 1, f"{what}: exponents {exponents}")
    expect(
        all(alpha * a + beta * b == gamma * c for a, b, c in zip(u, v, z)),
        f"{what}: {exponents} is not a relation among {basis}",
    )


def check(op, out):
    kind, _, p = op
    what = f"{kind}{p}"
    if kind == "gens":
        w, m, t = p
        expect(out.k == Fraction(t, m), f"{what}: threshold echoed as {out.k}")
        oracles.check_generators(out.gens, w, t, what)
    elif kind == "count":
        w, m, t, inv = p
        want = oracles.count_below(w, m, t, inv)
        expect(out == want, f"{what}: count {out}, expected {want}")
    elif kind == "pvt":
        w, m, c, d = p
        t_b = c * math.lcm(*w)
        expect(out.d == d and out.b == Fraction(t_b, m), f"{what}: echoed b={out.b} d={out.d}")
        check_truncation(
            w, t_b, d, out.truncation.gens, out.power_gens, out.equal, out.witness, out.containment_ok, what
        )
    elif kind == "stable":
        w, m, d_max, limit = p
        c = stable_c(w, d_max, limit)
        want = None if c is None else Fraction(c * math.lcm(*w), m)
        expect(out == want, f"{what}: stable b {out}, expected {want}")
    elif kind == "basis":
        m, w, bound = p
        expect(out.degree_bound == bound, f"{what}: degree bound echoed as {out.degree_bound}")
        check_basis(m, w, bound, out.generators, out.complete, what)
    else:
        m, w = p
        check_relation(m, w, out.basis, out.exponents, what)


def layer_counts(op, out, tr):
    kind, _, p = op
    if kind == "gens":
        w, m, t = p
        tr.count("wideal.ideal_generators.gens", len(out.gens))
        tr.count("wideal.ideal_generators.points", oracles.count_below(w, m, t))
    elif kind == "count":
        tr.count("wideal.count_below.points", out)
    elif kind == "pvt":
        w, m, c, d = p
        base = oracles.min_gen_count(w, c * math.lcm(*w))
        tr.count("wideal.product_vs_truncation.sums", math.comb(base + d - 1, d))
        tr.count("wideal.product_vs_truncation.power_gens", len(out.power_gens))
    elif kind == "basis":
        m, w, bound = p
        tr.count("quotient.invariant_monoid_basis.candidates", math.comb(bound + len(w), len(w)))
        tr.count("quotient.invariant_monoid_basis.basis", len(out.generators))
