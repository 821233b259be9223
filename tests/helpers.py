"""Shared test utilities: independent brute-force oracles and random data.

The oracles here deliberately use different algorithms from the library
(full-box enumeration with pairwise divisibility minimalization, direct
definition checks) so that agreement is meaningful.  The chart and fan
oracles are the library's former ``Fraction`` routes, kept as the reference
for the integer-numerator ones; the fan oracle samples a grid, and is the
reference for the exact star-subdivision check; ``fraction_cone_index``, a
rational determinant times the center's order, is the reference for the
closed form v_i / gcd(m, v) of ``cone_index``; ``box_verify_decomposition`` is the former
box engine of the lifting check, kept as the reference for the residue
lookup; ``scan_first_violation`` is the former sorted scan of the class
minima, kept as the reference for the residue lookup at sizes the box engine
cannot afford; it takes the minima from ``sorted_class_minima``, the sorted
``class_minima``, the former round-robin table, kept as the reference for
the semigroup bitset, and builds its witnesses with ``prefix_for_weight``, the former witness builder,
kept as the reference for ``arith.lex_walk``, the witness walk that
``arith.lex_least`` and the lifting check share;
``sum_of_two_monoid_basis`` is the former invariant-basis route, kept as the
reference for the Davenport-capped minimalization; ``staircase_min_gens`` is
the former recursive generator walk, kept as the reference for the flat one;
``sums_power_vs_truncation`` is the former d-fold-sum comparison of a
power with a truncation, kept as the reference for the membership sweep;
``scanner_parse_polynomial`` is the former character-by-character
polynomial parser, kept as the reference for the term-at-a-time one;
``scanner_parse_prefix`` is the former scanner read of the '1/m(w1,...,wk'
head, kept as the reference for the head pattern.
The oracles minimalize with their own ``minimalize``, never the library's,
which the d-fold branch under test uses.
``invert_transform`` and ``verify_generator_lift`` are cross-checks that
only tests use.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import le

from wblow.blowup import TransformedEquation
from wblow.errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInstanceError,
    UndefinedWeightError,
)
from wblow.lifting import CheckReport, LiftInstance, Violation
from wblow.notation import _Scanner
from wblow.quotient import CyclicQuotientType, MonoidBasis, Polynomial
from wblow.wideal import WeightSystem, minimal_generators_numerator


def ceil_div(p, q):
    return -(-p // q)


def minimalize(vectors) -> tuple:
    """Oracle: the divisibility-minimal vectors in (total degree, lex) order.

    Only a vector of lower total degree can divide another, so each one is
    kept unless a vector kept before it divides it.  A copy of its own, so
    that a fault in ``arith.minimalize`` shows as a disagreement.
    """
    kept = []
    for v in sorted(set(vectors), key=lambda e: (sum(e), e)):
        if not any(all(map(le, u, v)) for u in kept):
            kept.append(v)
    return tuple(kept)


def brute_min_gens(weights, t):
    """Oracle: minimal generators of {s : sum(s_i w_i) >= t} by full box +
    pairwise divisibility minimalization."""
    n = len(weights)
    if t <= 0:
        return {(0,) * n}
    caps = [ceil_div(t, w) for w in weights]
    members = [
        s
        for s in itertools.product(*[range(c + 1) for c in caps])
        if sum(si * wi for si, wi in zip(s, weights)) >= t
    ]
    gens = set()
    for s in members:
        if not any(u != s and all(ui <= si for ui, si in zip(u, s)) for u in members):
            gens.add(s)
    return gens


def staircase_min_gens(weights, t):
    """Oracle: the former recursive walk of ``minimal_generators_numerator``.

    It visits the same staircase as the library, but writes each point into
    a shared list, tests minimality against every earlier entry and sorts by
    a recomputed (weight, lex) key; the library's flat walk must return the
    same tuple, order included.  No budget check.
    """
    n = len(weights)
    if t <= 0:
        return ((0,) * n,)
    out = []
    s = [0] * n

    def minimal_here(w, upto):
        return all(s[i] == 0 or w - weights[i] < t for i in range(upto + 1))

    def descend(j, acc):
        # invariant: acc == weight of s[0:j] and acc < t
        a = weights[j]
        if j == n - 1:
            sj = ceil_div(t - acc, a)
            s[j] = sj
            if minimal_here(acc + sj * a, j):
                out.append(tuple(s))
            s[j] = 0
            return
        sj = 0
        w = acc
        while w < t:
            s[j] = sj
            descend(j + 1, w)
            sj += 1
            w = acc + sj * a
        # first crossing value of s_j: larger ones can never be minimal
        s[j] = sj
        if minimal_here(w, j):
            out.append(tuple(s))
        s[j] = 0

    descend(0, 0)
    out.sort(key=lambda e: (sum(si * ai for si, ai in zip(e, weights)), e))
    return tuple(out)


def sums_power_vs_truncation(weights, t_b, d):
    """Oracle: the former power-vs-truncation comparison, from every d-fold sum.

    The power's generators are the minimalized d-fold sums of the base
    generators, sorted by (total degree, lex); containment is checked by
    weight and by divisibility, and the witness is the first truncation
    generator (in (weight, lex) order) that no power generator divides.
    Returns (trunc_gens, power_gens, equal, witness, containment_ok), the
    shape of ``wideal._compare_power_vs_truncation``.  No budget check.
    """
    base = staircase_min_gens(weights, t_b)
    trunc = staircase_min_gens(weights, d * t_b)
    power = minimalize(
        tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(base, d)
    )
    containment_ok = all(sum(p_i * w_i for p_i, w_i in zip(p, weights)) >= d * t_b for p in power)
    by_div = all(any(all(map(le, g, p)) for g in trunc) for p in power)
    if containment_ok != by_div:
        raise InternalConsistencyError("containment routes disagree in the sums oracle")
    equal = set(trunc) == set(power)
    witness = None
    if not equal:
        witness = next(g for g in trunc if not any(all(map(le, p, g)) for p in power))
    return trunc, power, equal, witness, containment_ok


def sums_stable_b(system: WeightSystem, d_max: int, search_limit: int):
    """Oracle: the former ``find_stable_b``, one sums comparison per candidate and d."""
    lcm = system.lcm
    for c in range(1, search_limit + 1):
        if all(sums_power_vs_truncation(system.weights, c * lcm, d)[2] for d in range(2, d_max + 1)):
            return Fraction(c * lcm, system.m)
    return None


def scanner_parse_polynomial(text: str, nvars: int, offset: int = 0) -> Polynomial:
    """Oracle: the former parser of ``notation.parse_polynomial``.

    It reads the body one character at a time with the notation scanner;
    on ASCII input the library must return the same polynomial or raise
    ``NotationError`` with the same message and position.
    """
    sc = _Scanner(text, offset=offset)
    terms: dict = {}
    if sc.at_end():
        sc.error("empty polynomial")

    first = True
    while not sc.at_end():
        sign = 1
        ch = sc.peek()
        if ch in "+-":
            sc.pos += 1
            sign = -1 if ch == "-" else 1
        elif not first:
            sc.error(f"expected '+' or '-' between terms, found {ch!r}")
        first = False

        coeff = 1
        has_body = False
        if sc.peek().isdigit():
            coeff = sc.take_unsigned()
            has_body = True
        exponents = [0] * nvars
        while True:
            if sc.peek() == "*":
                sc.pos += 1
            if sc.peek() != "x":
                break
            sc.pos += 1
            ch = sc.peek()
            if ch == "{":
                sc.pos += 1
                idx = sc.take_unsigned()
                sc.expect("}")
            elif ch.isdigit() and ch != "0":
                sc.pos += 1
                idx = int(ch)
            else:
                sc.error("expected a variable index after 'x'")
            if not 1 <= idx <= nvars:
                sc.error(f"variable x{idx} is out of range for {nvars} variables")
            power = 1
            if sc.peek() == "^":
                sc.pos += 1
                power = sc.take_unsigned()
                if power < 1:
                    sc.error("exponents must be positive")
            exponents[idx - 1] += power
            has_body = True
        if not has_body:
            sc.error("expected a coefficient or a variable")
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + sign * coeff

    return Polynomial(nvars, {k: Fraction(v) for k, v in terms.items() if v != 0})


def scanner_parse_prefix(sc: _Scanner) -> tuple[int, list]:
    """Oracle: the former head reader of ``notation``, one scanner step at a time.

    It leaves the scanner after the whitespace that follows the head, as the
    pattern route does, or raises ``NotationError`` at the fault.
    """
    sc.expect("1")
    sc.expect("/")
    m = sc.take_unsigned()
    sc.expect("(")
    weights = [sc.take_signed()]
    while sc.peek() == ",":
        sc.pos += 1
        weights.append(sc.take_signed())
    return m, weights


def brute_upset_in_box(weights, threshold_num, m, caps):
    """Oracle: members of {s : sum(s_i w_i)/m >= threshold} inside the given box."""
    out = set()
    for s in itertools.product(*[range(c + 1) for c in caps]):
        if Fraction(sum(si * wi for si, wi in zip(s, weights)), m) >= threshold_num:
            out.add(s)
    return out


def brute_monoid_basis(m, weights, bound):
    """Oracle: Hilbert basis of the invariant monoid up to total degree bound."""
    elems = []
    for s in itertools.product(range(bound + 1), repeat=len(weights)):
        if 0 < sum(s) <= bound and sum(si * ai for si, ai in zip(s, weights)) % m == 0:
            elems.append(s)
    eset = set(elems)
    basis = set()
    for s in elems:
        decomposable = False
        for u in elems:
            if u != s and all(ui <= si for ui, si in zip(u, s)):
                v = tuple(si - ui for si, ui in zip(s, u))
                if any(v) and v in eset:
                    decomposable = True
                    break
        if not decomposable:
            basis.add(s)
    return basis


def sum_of_two_monoid_basis(q: CyclicQuotientType, degree_bound: int) -> MonoidBasis:
    """Oracle: the former library route to the invariant Hilbert basis.

    Every invariant of total degree 1..degree_bound is enumerated (no
    Davenport cap), and one is a generator iff it is not the sum of two
    nonzero invariants, found by an O(E^2) scan over all of them.
    """
    n, m = q.n, q.m
    elements = []
    for total in range(1, degree_bound + 1):
        for s in _compositions(total, n):
            if sum(si * ai for si, ai in zip(s, q.weights)) % m == 0:
                elements.append(s)
    elem_set = set(elements)
    generators = [s for s in elements if not _is_sum_of_two(s, elements, elem_set)]
    generators.sort(key=lambda e: (sum(e), e))
    return MonoidBasis(tuple(generators), degree_bound >= n * m, degree_bound)


def _compositions(total: int, n: int):
    """All n-tuples of non-negative ints summing to total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def _is_sum_of_two(s, elements: list, elem_set: set) -> bool:
    half = sum(s) // 2
    for u in elements:
        if sum(u) > half:
            break  # elements are sorted by total degree
        if u != s and all(ui <= si for ui, si in zip(u, s)):
            v = tuple(si - ui for si, ui in zip(s, u))
            if any(v) and v in elem_set:
                return True
    return False


def random_weight_system(rng: random.Random, n_choices=(2, 3, 4), max_a=12, max_m=10):
    """A random valid weight system: positive entries with gcd 1."""
    n = rng.choice(n_choices)
    while True:
        weights = tuple(rng.randint(1, max_a) for _ in range(n))
        if math.gcd(*weights) == 1:
            return WeightSystem(weights, rng.randint(1, max_m))


def random_semi_invariant(rng: random.Random, system: WeightSystem, max_terms=4, max_deg=6):
    """A random nonzero polynomial whose monomials share one weight class mod m."""
    n, m = system.n, system.m
    target = None
    terms = {}
    attempts = 0
    wanted = rng.randint(1, max_terms)
    while len(terms) < wanted and attempts < 400:
        attempts += 1
        s = tuple(rng.randint(0, max_deg) for _ in range(n))
        cls = sum(si * ai for si, ai in zip(s, system.weights)) % m
        if target is None:
            target = cls
        if cls != target:
            continue
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[s] = terms.get(s, 0) + coeff
    terms = {k: v for k, v in terms.items() if v != 0}
    if not terms:  # collisions cancelled everything; fall back to one monomial
        s = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms = {s: 1}
    return Polynomial(n, {k: Fraction(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# The Fraction chart route


def fraction_chart_rows(system: WeightSystem, i: int) -> tuple:
    """Oracle: chart i's substitution matrix as rows of exact rationals."""
    n = system.n
    if not 1 <= i <= n:
        raise DimensionError(f"chart index {i} out of range 1..{n}")
    a = system.weights
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        if j != i - 1:
            row[j] = Fraction(1)
        row[i - 1] += Fraction(a[j], system.m)
        rows.append(tuple(row))
    return tuple(rows)


def fraction_substitute_exponents(s, rows) -> tuple:
    """Oracle: barred exponent vector of the image of x^s under the chart map."""
    n = len(rows)
    if len(s) != n:
        raise DimensionError(f"exponent length {len(s)} does not match chart dimension {n}")
    out = []
    for k in range(n):
        total = Fraction(0)
        for j, sj in enumerate(s):
            if sj:
                total += sj * rows[j][k]
        out.append(total if total.denominator != 1 else int(total))
    return tuple(out)


def fraction_exceptional_valuation(f: Polynomial, system: WeightSystem, chart_index: int) -> Fraction:
    """Oracle: minimal chart-coordinate exponent, checked against the weight summed in rationals."""
    if f.is_zero:
        raise UndefinedWeightError("the zero polynomial has no vanishing order")
    rows = fraction_chart_rows(system, chart_index)
    i0 = chart_index - 1
    order = min(Fraction(fraction_substitute_exponents(s, rows)[i0]) for s in f.support())
    direct = min(
        sum((si * Fraction(ai, system.m) for si, ai in zip(s, system.weights)), Fraction(0))
        for s in f.support()
    )
    if order != direct:
        raise InternalConsistencyError(
            f"chart {chart_index} reads vanishing order {order} but the weight"
            f" valuation is {direct}"
        )
    return order


def fraction_strict_transform(
    g: Polynomial, system: WeightSystem, chart_index: int
) -> TransformedEquation:
    """Oracle: substitute in rationals, divide out the least chart-coordinate power, sort."""
    if g.is_zero:
        raise UndefinedWeightError("the zero polynomial has no strict transform")
    rows = fraction_chart_rows(system, chart_index)
    i0 = chart_index - 1
    substituted = {}
    for s, c in g.items():
        e = fraction_substitute_exponents(s, rows)
        if e in substituted:
            raise InternalConsistencyError(f"chart map collided two monomials at {e}")
        substituted[e] = c
    w_min = min(Fraction(e[i0]) for e in substituted)
    residual = {}
    for e, c in substituted.items():
        shifted = Fraction(e[i0]) - w_min
        key = e[:i0] + (shifted if shifted.denominator != 1 else int(shifted),) + e[i0 + 1 :]
        residual[key] = c
    terms = tuple(sorted(residual.items(), key=lambda item: tuple(map(Fraction, item[0]))))
    report = TransformedEquation(chart_index, w_min, terms)
    if min(Fraction(e[i0]) for e, _ in terms) != 0:
        raise InternalConsistencyError("residual does not reach chart-coordinate exponent 0")
    return report


# ---------------------------------------------------------------------------
# The Fraction fan route


def fraction_solve_cone_coordinates(gens, point):
    """Solve sum(lambda_k * gens[k]) = point exactly; None when the gens are dependent."""
    n = len(point)
    # columns are the generators
    aug = [[gens[k][row] for k in range(len(gens))] + [point[row]] for row in range(n)]
    cols = len(gens)
    perm = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[r], aug[pivot] = aug[pivot], aug[r]
        perm.append(c)
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][-1] != 0 for i in range(r, n)):
        return None  # inconsistent: point outside the span
    coeffs = [Fraction(0)] * cols
    for row, c in enumerate(perm):
        coeffs[c] = aug[row][-1]
    return coeffs


def fraction_det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    mat = [list(r) for r in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = Fraction(1) / mat[c][c]
        mat[c] = [v * inv for v in mat[c]]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[c])]
    return det


def fraction_fan_is_subdivision(fan, grid: int) -> bool:
    """Oracle: solve for every grid point's cone coordinates in rationals, cone by cone."""
    gens_by_cone = []
    for cone in fan.cones:
        gens = [fan.rays[k] for k in cone]
        if len(gens) != fan.n or fraction_det(gens) == 0:
            return False
        gens_by_cone.append(gens)
    for point in itertools.product(range(grid + 1), repeat=fan.n):
        if not any(point):
            continue
        p = tuple(Fraction(v) for v in point)
        covered = 0
        interior = 0
        for gens in gens_by_cone:
            coeffs = fraction_solve_cone_coordinates(gens, p)
            if coeffs is None:
                continue
            if all(c >= 0 for c in coeffs):
                covered += 1
                if all(c > 0 for c in coeffs):
                    interior += 1
        if covered == 0 or interior > 1:
            return False
    return True


def fraction_cone_index(fan, i: int) -> int:
    """Oracle: |det| of the rational cone generators times the lcm of the center's denominators."""
    if not 1 <= i <= fan.n:
        raise DimensionError(f"chart index {i} out of range 1..{fan.n}")
    gens = [fan.rays[k] for k in fan.cones[i - 1]]
    idx = abs(fraction_det(gens)) * math.lcm(*(fr.denominator for fr in fan.rays[-1]))
    if idx.denominator != 1:
        raise InternalConsistencyError(f"cone index {idx} is not an integer")
    return int(idx)


def invert_transform(teq: TransformedEquation, system: WeightSystem) -> Polynomial:
    """Undo a strict transform: multiply the factored power back and invert the chart map.

    Used as a round-trip check; raises when the data does not come from an
    actual substitution (non-integral or negative recovered exponents).
    """
    i0 = teq.chart_index - 1
    a = system.weights
    terms = {}
    for e, c in teq.terms:
        total_i = Fraction(e[i0]) + teq.factored_exponent
        others = [Fraction(e[k]) for k in range(len(e)) if k != i0]
        if any(v.denominator != 1 or v < 0 for v in others):
            raise InternalConsistencyError("barred exponents off the chart coordinate must be integers")
        s = [0] * len(e)
        pos = 0
        acc = Fraction(0)
        for k in range(len(e)):
            if k == i0:
                continue
            s[k] = int(others[pos])
            acc += s[k] * Fraction(a[k], system.m)
            pos += 1
        si = (total_i - acc) * Fraction(system.m, a[i0])
        if si.denominator != 1 or si < 0:
            raise InternalConsistencyError(f"recovered exponent {si} is not a non-negative integer")
        s[i0] = int(si)
        terms[tuple(s)] = c
    return Polynomial(len(system.weights), terms)


# ---------------------------------------------------------------------------
# The ideal-level view of the lifting decomposition


def verify_generator_lift(inst: LiftInstance, d: int) -> CheckReport:
    """Ideal-level restatement of the decomposition at degree d.

    The minimal generators of N(d*b) must equal the minimalization of
    (last variable) * gens N((d - a)*b) together with the section ideal's
    generators embedded with last exponent zero.
    """
    if d < 1:
        raise InvalidInstanceError(f"d must be >= 1, got {d}")
    db = d * inst.step
    lower = (d - inst.multiplier) * inst.step
    top = minimal_generators_numerator(inst.weights, db)
    lower_gens = minimal_generators_numerator(inst.weights, lower)
    shifted = [g[:-1] + (g[-1] + 1,) for g in lower_gens]
    embedded = [g + (0,) for g in minimal_generators_numerator(inst.base_weights, db)]
    candidate = minimalize(shifted + embedded)

    if set(top) == set(candidate):
        return CheckReport(inst, range(d, d + 1), None)
    diff = sorted(set(top) ^ set(candidate))
    witness = diff[0]
    side = "the level ideal" if witness in set(top) else "the rebuilt decomposition"
    explanation = (
        f"at degree {d}: generator sets differ; {witness} appears only in {side}"
    )
    return CheckReport(inst, range(d, d + 1), Violation(d, witness, explanation))


# ---------------------------------------------------------------------------
# The former box engine of the decomposition check


def _box_suffix_sum_masks(weights, caps):
    """masks[j] has bit W set iff W is a sum t_j*w_j + ... + t_last*w_last with t_i <= caps[i]."""
    n = len(weights)
    masks = [0] * (n + 1)
    masks[n] = 1
    for j in range(n - 1, -1, -1):
        acc = 0
        block = masks[j + 1]
        for t in range(caps[j] + 1):
            acc |= block << (t * weights[j])
        masks[j] = acc
    return masks


def _box_prefix_for_weight(weights, caps, masks, target):
    """Lexicographically smallest bounded exponent vector with the given weight."""
    out = []
    rem = target
    for j, w in enumerate(weights):
        for t in range(caps[j] + 1):
            r = rem - t * w
            if r < 0:
                break
            if (masks[j + 1] >> r) & 1:
                out.append(t)
                rem = r
                break
        else:
            raise InternalConsistencyError(f"weight {target} marked achievable but not realizable")
    return tuple(out)


def box_verify_decomposition(inst: LiftInstance, d: int) -> CheckReport:
    """Oracle: the decomposition check at degree d over the sufficient box.

    Every achievable prefix weight in the box (s_i <= ceil(d*b / w_i) + 1),
    found as a bitmask sum set, is checked by comparing the first last
    exponents that put s in N(d*b) and s - e_n in the lower level; the
    first mismatch in ascending prefix weight is the witness.
    """
    if d < 1:
        raise InvalidInstanceError(f"d must be >= 1, got {d}")
    db = d * inst.step
    lower = (d - inst.multiplier) * inst.step
    lower_is_unit = (d - inst.multiplier) <= 0
    a_n = inst.lifted_weight

    caps = [ceil_div(db, w) + 1 for w in inst.base_weights]
    cap_n = ceil_div(db, a_n) + 1
    masks = _box_suffix_sum_masks(inst.base_weights, caps)
    sentinel = cap_n + 1
    remaining = masks[0]
    while remaining:
        low_bit = remaining & -remaining
        remaining ^= low_bit
        w_prefix = low_bit.bit_length() - 1

        if w_prefix >= db:
            first_top = 1
        else:
            first_top = ceil_div(db - w_prefix, a_n)
            if first_top > cap_n:
                first_top = sentinel
        if lower_is_unit or w_prefix >= lower:
            first_shifted = 1
        else:
            first_shifted = ceil_div(lower - w_prefix, a_n) + 1
            if first_shifted > cap_n:
                first_shifted = sentinel

        if first_top != first_shifted:
            s_n = min(first_top, first_shifted)
            prefix = _box_prefix_for_weight(inst.base_weights, caps, masks, w_prefix)
            monomial = prefix + (s_n,)
            total = w_prefix + s_n * a_n
            in_top = total >= db
            in_lower = lower_is_unit or (total - a_n) >= lower
            explanation = (
                f"at degree {d}: monomial {monomial} has weight {total};"
                f" level-{db} membership is {in_top} but dividing by the last"
                f" variable gives level-{lower if not lower_is_unit else 'unit'}"
                f" membership {in_lower}"
            )
            return CheckReport(inst, range(d, d + 1), Violation(d, monomial, explanation))

    return CheckReport(inst, range(d, d + 1), None)


def box_first_violation(inst: LiftInstance, d_max: int) -> Violation | None:
    """Oracle: the box engine's witness at the first failing d in 1..d_max, or None."""
    for d in range(1, d_max + 1):
        report = box_verify_decomposition(inst, d)
        if not report.passed:
            return report.counterexample
    return None


# ---------------------------------------------------------------------------
# The former sorted scan of the class minima


def prefix_for_weight(weights, target):
    """Lexicographically smallest exponent vector with the given weight."""
    full = (1 << (target + 1)) - 1
    masks = [1]  # masks[k] has bit W set iff W <= target is a sum of the last k weights
    for w in reversed(weights[1:]):
        acc, shift = masks[-1], w
        while shift <= target:  # after k rounds each exponent runs over [0, 2^k)
            acc |= (acc << shift) & full
            shift *= 2
        masks.append(acc)
    out, rem = [], target
    for w, mask in zip(weights, reversed(masks)):
        t = next((t for t in range(rem // w + 1) if (mask >> (rem - t * w)) & 1), None)
        if t is None:
            raise InternalConsistencyError(f"weight {target} marked achievable but not realizable")
        out.append(t)
        rem -= t * w
    return tuple(out)


def class_minima(weights: tuple, modulus: int) -> list:
    """Least element of the semigroup spanned by weights in each residue class mod modulus.

    Entry r is the least sum of weights that is r mod modulus, and
    ``math.inf`` when no sum is: the round-robin table of Boecker and
    Liptak, which the library built before the semigroup bitset below the
    sweep's threshold replaced it.
    """
    table = [math.inf] * modulus
    table[0] = 0
    for w in weights:
        g = math.gcd(w, modulus)
        for start in range(g):
            best = min(table[start::g])
            if best == math.inf:
                continue
            for _ in range(modulus // g - 1):
                best += w
                r = best % modulus
                if table[r] < best:
                    best = table[r]
                else:
                    table[r] = best
    return table


def sorted_class_minima(weights: tuple, modulus: int) -> list:
    """Sorted least elements of the semigroup spanned by weights, one per reached residue.

    The round-robin table that the semigroup bitset replaced
    (``class_minima``), with the unreached residues left out and the rest
    sorted.
    """
    return sorted(v for v in class_minima(weights, modulus) if v < math.inf)


def scan_first_violation(inst: LiftInstance, d_max: int, d_min: int = 1) -> Violation | None:
    """Oracle: the witness at the first failing d in d_min..d_max, by scanning every class minimum.

    For each degree the sorted minima below d*b - min(a*b, A) are tested
    against the definition, ceil(u/A) != max(1, ceil((u + delta)/A)) with
    u = d*b - mu, and the first failing one gives the witness.
    """
    a_n = inst.lifted_weight
    ab = inst.multiplier * inst.step
    delta = a_n - ab
    minima = sorted_class_minima(inst.base_weights, a_n)
    for d in range(d_min, d_max + 1):
        db = d * inst.step
        bound = db - min(ab, a_n)
        for w_prefix in minima:
            if w_prefix >= bound:
                break
            u = db - w_prefix
            first_top = ceil_div(u, a_n)
            first_shifted = max(1, ceil_div(u + delta, a_n))
            if first_top == first_shifted:
                continue
            s_n = min(first_top, first_shifted)
            monomial = prefix_for_weight(inst.base_weights, w_prefix) + (s_n,)
            lower = (d - inst.multiplier) * inst.step
            lower_is_unit = (d - inst.multiplier) <= 0
            total = w_prefix + s_n * a_n
            in_top = total >= db
            in_lower = lower_is_unit or (total - a_n) >= lower
            explanation = (
                f"at degree {d}: monomial {monomial} has weight {total};"
                f" level-{db} membership is {in_top} but dividing by the last"
                f" variable gives level-{lower if not lower_is_unit else 'unit'}"
                f" membership {in_lower}"
            )
            return Violation(d, monomial, explanation)
    return None
