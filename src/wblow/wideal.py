"""Weighted monomial valuations and threshold ideals.

A weight system assigns each variable the exact rational weight a_i/m; the
weight of a monomial is the dot product, and the weight of a polynomial is
the minimum over its support.  The threshold ideal at level k collects every
monomial of weight >= k.  Thresholds are kept as exact rationals throughout,
with a numerator-form spelling (compare sum(s_i a_i) against k*m) available
so callers working at the integer level never round; polynomial weights are
minimised as integer numerators and divided by m once.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul, sub

from .arith import ceil_div, check_enum_budget, lex_least, minimalize, normalize_weights
from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInstanceError,
    InvalidWeightsError,
    UndefinedWeightError,
)
from .quotient import Polynomial


@dataclass(frozen=True, slots=True)
class WeightSystem:
    """Blow-up weights: positive integers with gcd 1, over a group of order m.

    Unlike quotient-type weights these are never reduced mod m; they are the
    grading data of the blow-up, not action weights.  The constructor rejects
    non-coprime weights; use :meth:`normalized` to divide a gcd out
    explicitly and learn the factor.
    """

    weights: tuple
    m: int = 1

    def __post_init__(self):
        ws = tuple(self.weights)
        _, g = normalize_weights(ws)  # the positive-weights rule and the gcd
        if g != 1:
            raise InvalidWeightsError(
                f"weights {ws} have gcd {g}; divide it out first"
                " (WeightSystem.normalized does this and reports the factor)"
            )
        if not isinstance(self.m, int) or type(self.m) is bool or self.m < 1:
            raise InvalidWeightsError(f"group order must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "weights", ws)

    @classmethod
    def normalized(cls, weights, m: int = 1) -> tuple["WeightSystem", int]:
        reduced, factor = normalize_weights(weights)
        return cls(reduced, m), factor

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.weights)

    def notation(self) -> str:
        return f"1/{self.m}({','.join(str(w) for w in self.weights)})"

    def __str__(self):
        return self.notation()


def monomial_weight(s, system: WeightSystem) -> Fraction:
    """Exact weight sum(s_i * a_i) / m of a monomial exponent vector."""
    if len(s) != system.n:
        raise DimensionError(f"exponent length {len(s)} does not match {system.n} weights")
    return Fraction(sum(si * ai for si, ai in zip(s, system.weights)), system.m)


def polynomial_weight(f: Polynomial, system: WeightSystem) -> Fraction:
    """Minimum monomial weight over the support; undefined for the zero polynomial.

    The least sum(s_i * a_i) over the support, divided by m once; it is read
    off ``f.weighed``, which f keeps for the next call under the same weight
    system.
    """
    if f.is_zero:
        raise UndefinedWeightError("the zero polynomial has no weight")
    if f.nvars != system.n:
        raise DimensionError(f"exponent length {f.nvars} does not match {system.n} weights")
    return f.weighed(system.weights, system.m)[1]


@dataclass(frozen=True, slots=True)
class WeightedIdeal:
    """The monomial ideal of weight >= k, by its unique minimal generators.

    Invariants: every generator has weight >= k, no generator divides
    another, and every monomial of weight >= k is divisible by a generator.
    Generators are sorted by (weight, lex).
    """

    system: WeightSystem
    k: Fraction
    gens: tuple

    @property
    def threshold_numerator(self) -> Fraction:
        """The same threshold in numerator form: compare sum(s_i a_i) against this."""
        return self.k * self.system.m

    def contains_monomial(self, s) -> bool:
        n = self.system.n
        if len(s) != n:
            raise DimensionError(f"exponent vectors of lengths {n} and {len(s)} cannot be combined")
        return any(all(map(le, g, s)) for g in self.gens)


def minimal_generators_numerator(weights: tuple, t: int) -> tuple:
    """Minimal generators of {s : sum(s_i * weights_i) >= t} for an integer threshold.

    The walk visits the staircase: every prefix of weight < t and its first
    crossing of t, the only value of an entry that can end a minimal
    generator.  It recurses over the first n - 2 entries, passing down the
    prefix, the weight still missing to t and the least weight at a nonzero
    entry; the last two entries are one flat loop that solves the last
    entry's crossing inline.  A point s of weight W >= t is minimal iff its
    overshoot W - t is below min{a_i : s_i > 0}, an O(1) test; at the first
    crossing of entry i, W - a_i < t already holds, so only the entries
    before i are tested.  The walk meets generators in lex order, so
    appending each generator to the row of its overshoot and joining the
    rows in overshoot order sorts them by (weight, lex); only the distinct
    overshoots are sorted, and the rows are keyed by overshoot, so their
    storage follows the generators, not max(weights).  The budget still
    charges the nominal box prod(ceil(t / weights_i) + 1), which never
    shrinks as t grows.
    """
    n = len(weights)
    if t <= 0:
        return ((0,) * n,)
    box = math.prod(ceil_div(t, a) + 1 for a in weights)
    check_enum_budget(box, "minimal generator enumeration")
    if n == 1:
        return ((ceil_div(t, weights[0]),),)
    a, b = weights[-2:]
    top = max(weights)
    rows = defaultdict(list)  # rows[W - t]: the generators of weight W, in lex order

    def walk(p: tuple, rem: int, low: int) -> None:
        # rem = t - weight of the prefix p > 0; low = least weight at a nonzero entry of p
        j = len(p)
        if j < n - 2:
            c = weights[j]
            walk(p + (0,), rem, low)
            low_c = min(low, c)
            s, rem = 1, rem - c
            while rem > 0:
                walk(p + (s,), rem, low_c)
                s, rem = s + 1, rem - c
            if -rem < low:
                rows[-rem].append(p + (s,) + (0,) * (n - 1 - j))
            return
        q, e = divmod(rem - 1, b)  # the last entry crosses at q + 1 with overshoot b - 1 - e
        if b - 1 - e < low:
            rows[b - 1 - e].append(p + (0, q + 1))
        low_a = min(low, a)
        s, rem = 1, rem - a
        while rem > 0:
            q, e = divmod(rem - 1, b)
            if b - 1 - e < low_a:
                rows[b - 1 - e].append(p + (s, q + 1))
            s, rem = s + 1, rem - a
        if -rem < low:
            rows[-rem].append(p + (s, 0))

    walk((), t, top)  # top stands in for "no nonzero entry yet"
    return tuple(itertools.chain.from_iterable(rows[o] for o in sorted(rows)))


def ideal_generators(system: WeightSystem, k) -> WeightedIdeal:
    """The weighted ideal at threshold k (any rational; k <= 0 gives the unit ideal)."""
    k = Fraction(k)
    t = math.ceil(k * system.m)  # integer weights make the numerator cutoff exact
    gens = minimal_generators_numerator(system.weights, t)
    return WeightedIdeal(system, k, gens)


def contains(ideal: WeightedIdeal, f: Polynomial) -> bool:
    """Membership of a polynomial: weight threshold and divisibility must agree.

    The zero polynomial is contained by definition.  Both membership routes
    (polynomial weight >= k, and every support monomial divisible by a
    generator) are evaluated and compared; disagreement is a bug.
    """
    if f.nvars != ideal.system.n:
        raise DimensionError(
            f"polynomial has {f.nvars} variables, ideal lives in {ideal.system.n}"
        )
    if f.is_zero:
        return True
    by_weight = polynomial_weight(f, ideal.system) >= ideal.k
    by_divisibility = all(ideal.contains_monomial(s) for s in f.support())
    if by_weight != by_divisibility:
        raise InternalConsistencyError(
            f"membership routes disagree for {f.text()} at threshold {ideal.k}:"
            f" weight says {by_weight}, divisibility says {by_divisibility}"
        )
    return by_weight


@dataclass(frozen=True, slots=True)
class TruncationReport:
    """Comparison of the level-d*b ideal with the d-th power of the level-b ideal.

    ``containment_ok`` records the inclusion power <= truncation, which holds
    unconditionally because weights add; ``equal`` records whether the two
    ideals coincide, and ``witness`` is a monomial in the truncation but not
    in the power when they do not.
    """

    system: WeightSystem
    b: Fraction
    d: int
    truncation: WeightedIdeal
    power_gens: tuple
    equal: bool
    witness: tuple | None
    containment_ok: bool


def _power_split(g: tuple, weights: tuple, lo: int, hi: int):
    """Some h <= g with lo <= sum(h_i * weights_i) <= hi, or None.

    The prefix split comes first: whole entries of g until the next one
    crosses lo, and that one only as far as the crossing; it answers most
    calls.  Otherwise the bounded subset sum ``arith.lex_least`` decides.
    """
    rem = lo
    for i, (gi, a) in enumerate(zip(g, weights)):
        if gi * a >= rem:
            x = (rem - 1) // a + 1
            if x * a - rem <= hi - lo:
                return g[:i] + (x,) + (0,) * (len(g) - 1 - i)
            break
        rem -= gi * a
    return lex_least(weights, g, lo, hi)


def _first_power_gap(weights: tuple, t: int, d: int, top: tuple | None = None):
    """(j, g) for the least j in 2..d with I_t^j != I_{jt}, g the first generator of I_{jt} outside; or None.

    I_t^j is contained in I_{jt} because weights add, so the two are equal iff
    every minimal generator of I_{jt} lies in I_t^j.  The sweep runs j upward:
    once I_t^(j-1) = I_{(j-1)t} is known, I_t^j = I_{(j-1)t} * I_t, and g lies
    in that product iff some h <= g has W(h) >= t and W(g - h) >= (j-1)t,
    that is t <= W(h) <= W(g) - (j-1)t.  Each h that ``_power_split``
    returns is checked against this definition, a second route apart from the
    subset sum.  Each level is built once; ``top`` is the level-d generators
    when the caller has them already.
    """
    for j in range(2, d + 1):
        rest = (j - 1) * t
        level = top if j == d and top is not None else minimal_generators_numerator(weights, j * t)
        for g in level:
            h = _power_split(g, weights, t, sum(map(mul, g, weights)) - rest)
            if h is None:
                return j, g
            if not (
                len(h) == len(g)
                and all(map(le, h, g))
                and sum(map(mul, h, weights)) >= t
                and sum(map(mul, map(sub, g, h), weights)) >= rest
            ):
                raise InternalConsistencyError(
                    f"the split {h} does not put {g} in the product of the ideals at {rest} and {t}"
                )
    return None


def _compare_power_vs_truncation(system: WeightSystem, t_b: int, d: int) -> tuple:
    """Core comparison in numerator form; returns (trunc_gens, power_gens, equal, witness, ok).

    Equality and the witness come from the membership sweep.  When it finds
    the two ideals equal, the power's minimal generators are the
    truncation's, given in the (total degree, lex) order of ``minimalize``,
    and level b is not walked.  Otherwise the power is built from d-fold
    sums of the level-b generators, walked and charged only then, and its
    containment and first missing truncation generator are checked against
    the sweep; a power outside the truncation raises, so ``ok`` is True.
    The level-d*b box, charged first, is the largest, so a refusal names it.
    """
    weights = system.weights
    trunc = minimal_generators_numerator(weights, d * t_b)
    gap = _first_power_gap(weights, t_b, d, trunc)
    if gap is None:
        return trunc, tuple(sorted(trunc, key=lambda e: (sum(e), e))), True, None, True

    # the C(G + d - 1, d) d-fold sums of the G base generators, charged before any is built
    base = minimal_generators_numerator(weights, t_b)
    check_enum_budget(math.comb(len(base) + d - 1, d), "d-fold products of generators")
    power = minimalize(
        tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(base, d)
    )
    containment_ok = all(sum(map(mul, p, weights)) >= d * t_b for p in power)
    by_div = all(any(all(map(le, g, p)) for g in trunc) for p in power)
    if containment_ok != by_div:
        raise InternalConsistencyError("containment routes disagree in power-vs-truncation")
    if not containment_ok:
        raise InternalConsistencyError(
            "the power ideal escaped the truncation ideal; weights must add"
        )
    witness = next((g for g in trunc if not any(all(map(le, p, g)) for p in power)), None)
    equal = set(trunc) == set(power)
    j, g = gap
    if equal != (witness is None) or (j == d and witness != g):
        raise InternalConsistencyError(
            f"the d-fold sums give the witness {witness}, the membership sweep {g} at level {j}"
        )
    return trunc, power, equal, witness, True


def product_vs_truncation(system: WeightSystem, b, d: int) -> TruncationReport:
    """Compare the ideal at threshold d*b with the d-fold product of the one at b.

    ``b`` must be a positive multiple of lcm(weights)/m, the natural step of
    the associated graded algebra.  Equality is decided by membership: each
    minimal generator of the ideal at j*b, j = 2..d, is split into a part of
    weight >= b and one of weight >= (j-1)*b, and every split is checked.
    The d-fold products of generators are built only when the ideals differ,
    for the power's own generators.
    """
    if d < 2:
        raise InvalidInstanceError(f"d must be at least 2, got {d}")
    b = Fraction(b)
    step = Fraction(system.lcm, system.m)
    if b <= 0 or (b / step).denominator != 1:
        raise InvalidInstanceError(
            f"b must be a positive multiple of lcm(weights)/m = {step}, got {b}"
        )
    t_b = int(b * system.m)
    trunc, power, equal, witness, ok = _compare_power_vs_truncation(system, t_b, d)
    ideal = WeightedIdeal(system, d * b, trunc)
    return TruncationReport(system, b, d, ideal, power, equal, witness, ok)


def find_stable_b(system: WeightSystem, d_max: int, search_limit: int):
    """Smallest b in {step, 2*step, ...} with equality for every d <= d_max, or None.

    ``step`` is lcm(weights)/m.  Each candidate gets one membership sweep up
    to d_max, which stops at the first failing d; the search stops at the
    first candidate that passes, and returns None when no candidate within
    search_limit does.
    """
    if d_max < 2:
        raise InvalidInstanceError(f"d_max must be at least 2, got {d_max}")
    if search_limit < 1:
        raise InvalidInstanceError(f"search_limit must be at least 1, got {search_limit}")
    lcm = system.lcm
    for c in range(1, search_limit + 1):
        if _first_power_gap(system.weights, c * lcm, d_max) is None:
            return Fraction(c * lcm, system.m)
    return None


def count_below(system: WeightSystem, k, invariant_only: bool = False) -> int:
    """Number of exponent vectors with weight < k; finite since all weights are positive.

    With ``invariant_only`` the count is restricted to vectors with
    sum(s_i a_i) = 0 mod m (the invariant monomials of the quotient action).
    Weight sums are integers, so weight < k means a numerator below
    t = ceil(k*m).  p[w], the number of vectors of weight numerator w, is the
    coefficient of x^w in prod 1/(1 - x^a_i) (the restricted partition
    function, Beck & Robins, *Computing the Continuous Discretely*, ch. 1);
    it is built one weight at a time in n*t steps, which the budget charges.
    """
    k = Fraction(k)
    if k <= 0:
        return 0
    t = math.ceil(k * system.m)
    check_enum_budget(system.n * t, "below-threshold count")
    p = [0] * t
    p[0] = 1
    for a in system.weights:
        for w in range(a, t):
            p[w] += p[w - a]
    return sum(itertools.islice(p, 0, None, system.m)) if invariant_only else sum(p)
