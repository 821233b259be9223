"""Independent computations the benchmark checks the program against.

Standard library only; nothing here imports or mirrors the program's code
paths.  Exponent vectors are tuples of ints, weights tuples of positive
ints, and thresholds are integer numerators t (a monomial s lies in the
ideal N(t) iff W(s) = sum(s_i a_i) >= t).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from common import expect


def weight(s, weights) -> int:
    return sum(x * a for x, a in zip(s, weights))


# ---------------------------------------------------------------------------
# Restricted partitions: coefficients of prod 1/(1 - x^a_i)


def partition_counts(weights, t: int) -> list:
    """c[w] = number of exponent vectors of weight exactly w, for 0 <= w < t."""
    c = [0] * max(t, 0)
    if t > 0:
        c[0] = 1
    for a in weights:
        for w in range(a, t):
            c[w] += c[w - a]
    return c


def count_below(weights, m: int, t: int, invariant_only: bool = False) -> int:
    """Vectors with W(s) < t; with invariant_only, also W(s) = 0 mod m."""
    c = partition_counts(weights, t)
    if invariant_only:
        return sum(c[w] for w in range(0, len(c), m))
    return sum(c)


def min_gen_count(weights, t: int) -> int:
    """Number of minimal generators of N(t).

    s is minimal iff W(s) >= t and W(s) - min{a_i : s_i > 0} < t.  Order
    the variables by weight; with j the first variable in s's support,
    s - e_j ranges over the vectors on variables j.. of weight in
    [t - a_j, t - 1].  Summing suffix partition counts over that window
    counts the generators.
    """
    if t <= 0:
        return 1
    c = [0] * t
    c[0] = 1
    total = 0
    for a in sorted(weights, reverse=True):  # grow the suffix from the heaviest
        for w in range(a, t):
            c[w] += c[w - a]
        total += sum(c[max(0, t - a) : t])
    return total


def is_min_gen(s, weights, t: int) -> bool:
    w = weight(s, weights)
    if t <= 0:
        return not any(s)
    return w >= t and all(w - a < t for x, a in zip(s, weights) if x > 0)


def check_generators(gens, weights, t: int, what: str) -> None:
    """gens is exactly the minimal generating set of N(t)."""
    gens = [tuple(g) for g in gens]
    expect(len(set(gens)) == len(gens), f"{what}: repeated generator")
    for g in gens:
        expect(len(g) == len(weights), f"{what}: generator {g} has the wrong length")
        expect(is_min_gen(g, weights, t), f"{what}: {g} is not a minimal generator of N({t})")
    expect(
        len(gens) == min_gen_count(weights, t),
        f"{what}: {len(gens)} generators, expected {min_gen_count(weights, t)}",
    )


def min_gens(weights, t: int) -> list:
    """Enumerate the minimal generators of N(t) (own walk over first crossings)."""
    n = len(weights)
    if t <= 0:
        return [(0,) * n]
    out = []

    def rec(prefix, acc):
        j = len(prefix)
        if j == n - 1:
            s = prefix + (max(0, -(-(t - acc) // weights[j])),)
            if is_min_gen(s, weights, t):
                out.append(s)
            return
        x = 0
        while True:
            w = acc + x * weights[j]
            if w >= t:
                s = prefix + (x,) + (0,) * (n - j - 1)
                if is_min_gen(s, weights, t):
                    out.append(s)
                return
            rec(prefix + (x,), w)
            x += 1

    rec((), 0)
    return out


# ---------------------------------------------------------------------------
# Powers of threshold ideals


def divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def reachable_weights(g, weights) -> int:
    """Bitmask of W(v) over all 0 <= v <= g."""
    mask = 1
    for x, a in zip(g, weights):
        acc = 0
        for k in range(x + 1):
            acc |= mask << (k * a)
        mask = acc
    return mask


def in_power(g, weights, t: int, d: int, base) -> bool:
    """g lies in N(t)^d, the ideal generated by d-fold sums of base = gens N(t)."""
    g = tuple(g)
    w = weight(g, weights)
    if w < d * t:
        return False
    if d == 1:
        return True
    if d == 2:
        # g = v + (g - v) with both parts of weight >= t, for some v <= g
        span = w - 2 * t + 1
        return (reachable_weights(g, weights) >> t) & ((1 << span) - 1) != 0
    return any(
        in_power(tuple(x - y for x, y in zip(g, u)), weights, t, d - 1, base)
        for u in base
        if divides(u, g)
    )


def power_equals_truncation(weights, t: int, d: int) -> tuple:
    """(equal, first truncation generator outside the power or None)."""
    base = min_gens(weights, t)
    for g in sorted(min_gens(weights, d * t), key=lambda e: (weight(e, weights), e)):
        if not in_power(g, weights, t, d, base):
            return False, g
    return True, None


# ---------------------------------------------------------------------------
# Charts of the weighted blow-up


def chart_rows(weights, m: int, i: int) -> list:
    """Exponent rows of chart i (1-based): x_j -> xbar_j * xbar_i^(a_j/m)."""
    n = len(weights)
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        if j != i - 1:
            row[j] = Fraction(1)
        row[i - 1] += Fraction(weights[j], m)
        rows.append(row)
    return rows


def chart_quotient(weights, m: int, i: int) -> tuple:
    """(order, reduced weights) of chart i: 1/a_i(-a_1,..,m,..,-a_n)."""
    order = weights[i - 1]
    ws = tuple((m if j == i - 1 else -a) % order for j, a in enumerate(weights))
    return order, ws


def invert_chart_term(exps, factored: Fraction, weights, m: int, i: int) -> tuple:
    """Integer preimage s of a strict-transform term in chart i.

    Off the chart coordinate the exponents are s_k; on it, the exponent
    plus the factored power is W(s)/m, so s_i = (m*that - sum_{k != i} s_k a_k)/a_i.
    """
    i0 = i - 1
    s = []
    for k, e in enumerate(exps):
        if k == i0:
            s.append(None)
            continue
        e = Fraction(e)
        expect(e.denominator == 1 and e >= 0, f"chart {i}: exponent {e} off the chart coordinate")
        s.append(int(e))
    total = (Fraction(exps[i0]) + factored) * m
    expect(total.denominator == 1, f"chart {i}: chart-coordinate exponent {total / m} is not W/m")
    rest = sum(s[k] * weights[k] for k in range(len(s)) if k != i0)
    q, r = divmod(int(total) - rest, weights[i0])
    expect(r == 0 and q >= 0, f"chart {i}: no integer preimage for {tuple(exps)}")
    s[i0] = q
    return tuple(s)


def cone_index(weights, m: int, i: int) -> int:
    """|det| of cone i (a_i/m) times the order of the centre modulo Z^n."""
    order = math.lcm(*(Fraction(a, m).denominator for a in weights))
    idx = Fraction(weights[i - 1], m) * order
    expect(idx.denominator == 1, f"cone index {idx} is not an integer")
    return int(idx)


# ---------------------------------------------------------------------------
# Invariant monoids


def hilbert_basis(m: int, weights, degree_bound: int | None = None) -> list:
    """Brute-force Hilbert basis of {s : W(s) = 0 mod m}, entries <= m.

    Every basis element has all entries at most m (s_i = m alone is
    invariant), so the box [0, m]^n holds the whole basis.  An invariant is
    a basis element iff it is not the sum of two nonzero invariants.
    """
    n = len(weights)
    inv = []

    def rec(prefix, acc):
        if len(prefix) == n:
            if acc % m == 0 and any(prefix):
                inv.append(prefix)
            return
        a = weights[len(prefix)]
        for x in range(m + 1):
            rec(prefix + (x,), acc + x * a)

    rec((), 0)
    inv_set = set(inv)
    basis = []
    for s in inv:
        decomposable = any(
            u != s and divides(u, s) and tuple(x - y for x, y in zip(s, u)) in inv_set
            for u in inv
        )
        if not decomposable:
            basis.append(s)
    if degree_bound is not None:
        basis = [b for b in basis if sum(b) <= degree_bound]
    return sorted(basis, key=lambda e: (sum(e), e))


# ---------------------------------------------------------------------------
# The lifting decomposition


def box_caps(base, lifted: int, db: int) -> tuple:
    """Per-coordinate caps of the sufficient box at level db: ceil(db / w) + 1."""
    return tuple(-(-db // w) + 1 for w in base), -(-db // lifted) + 1


def box_points(base, lifted: int, db: int) -> int:
    caps, cap_n = box_caps(base, lifted, db)
    return math.prod(c + 1 for c in caps) * (cap_n + 1)


def bits(mask: int):
    """Positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def decomposition_violation(base, lifted: int, multiplier: int, step: int, d: int):
    """First (prefix weight, s_n) at which the degree-d decomposition fails, or None.

    For s with prefix weight P and last exponent s_n >= 1: s is in N(d b)
    iff P + s_n w >= d b, and s - e_n is in N((d - a) b) iff d <= a or
    P + (s_n - 1) w >= (d - a) b.  The two must agree over the whole box.
    """
    db = d * step
    low = (d - multiplier) * step
    caps, cap_n = box_caps(base, lifted, db)
    for p in bits(reachable_weights(caps, base)):
        for sn in range(1, cap_n + 1):
            top = p + sn * lifted >= db
            shifted = d <= multiplier or p + (sn - 1) * lifted >= low
            if top != shifted:
                return p, sn
    return None


def first_failing_degree(base, lifted: int, multiplier: int, step: int, d_max: int):
    """Smallest d <= d_max with a violation, or None.

    With the forced weight lifted = multiplier * step the two conditions
    P + s_n a b >= d b and P + (s_n - 1) a b >= (d - a) b are the same
    inequality, so a derived instance passes at every degree.
    """
    if lifted == multiplier * step:
        return None
    for d in range(1, d_max + 1):
        if decomposition_violation(base, lifted, multiplier, step, d) is not None:
            return d
    return None


def check_witness(monomial, base, lifted: int, multiplier: int, step: int, d: int) -> None:
    """A reported counterexample really breaks the decomposition at degree d."""
    monomial = tuple(monomial)
    expect(len(monomial) == len(base) + 1, f"witness {monomial} has the wrong length")
    sn = monomial[-1]
    expect(sn >= 1, f"witness {monomial} has last exponent 0")
    total = weight(monomial, tuple(base) + (lifted,))
    top = total >= d * step
    shifted = d <= multiplier or total - lifted >= (d - multiplier) * step
    expect(top != shifted, f"witness {monomial} satisfies the decomposition at degree {d}")
    caps, cap_n = box_caps(base, lifted, d * step)
    expect(
        all(x <= c for x, c in zip(monomial, caps + (cap_n,))),
        f"witness {monomial} lies outside the degree-{d} box",
    )


@lru_cache(maxsize=None)
def lift_weights(base: tuple, multiplier: int) -> tuple:
    """(reduced base, gcd factor, lcm, lifted weight) of a derived lift instance."""
    g = math.gcd(*base)
    reduced = tuple(w // g for w in base)
    lcm = math.lcm(*reduced)
    return reduced, g, lcm, multiplier * lcm
