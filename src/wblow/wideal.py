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
from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul

from .arith import (
    ceil_div, check_enum_budget, divides, lcm_of, minimalize, normalize_weights, vec_add,
)
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
        if not ws:
            raise InvalidWeightsError("at least one weight is required")
        for w in ws:
            if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
                raise InvalidWeightsError(f"weights must be positive integers, got {w!r}")
        if math.gcd(*ws) != 1:
            raise InvalidWeightsError(
                f"weights {ws} have gcd {math.gcd(*ws)}; divide it out first"
                " (WeightSystem.normalized does this and reports the factor)"
            )
        if not isinstance(self.m, int) or self.m < 1:
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
        return lcm_of(self.weights)

    def notation(self) -> str:
        return f"1/{self.m}({','.join(str(w) for w in self.weights)})"

    def __str__(self):
        return self.notation()


def monomial_weight(s, system: WeightSystem) -> Fraction:
    """Exact weight sum(s_i * a_i) / m of a monomial exponent vector."""
    if len(s) != system.n:
        raise DimensionError(f"exponent length {len(s)} does not match {system.n} weights")
    return Fraction(sum(si * ai for si, ai in zip(s, system.weights)), system.m)


def weight_numerator(f: Polynomial, system: WeightSystem) -> int:
    """m times the weight of f: the least sum(s_i * a_i) over the support."""
    if f.is_zero:
        raise UndefinedWeightError("the zero polynomial has no weight")
    if f.nvars != system.n:
        raise DimensionError(f"exponent length {f.nvars} does not match {system.n} weights")
    return min(sum(map(mul, s, system.weights)) for s in f.support())


def polynomial_weight(f: Polynomial, system: WeightSystem) -> Fraction:
    """Minimum monomial weight over the support; undefined for the zero polynomial."""
    return Fraction(weight_numerator(f, system), system.m)


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


def check_box_budget(weights: tuple, t: int) -> None:
    """Charge the nominal box prod(ceil(t / weights_i) + 1), which never shrinks as t grows."""
    box = 1
    for a in weights:
        box *= ceil_div(t, a) + 1
    check_enum_budget(box, "minimal generator enumeration")


def minimal_generators_numerator(weights: tuple, t: int) -> tuple:
    """Minimal generators of {s : sum(s_i * weights_i) >= t} for an integer threshold.

    Box-bounded enumeration: every minimal generator satisfies
    s_i <= ceil(t / weights_i), because one more step past that bound leaves
    the decrement still over the threshold.  The walk below visits exactly
    the staircase (prefixes of weight < t plus their first crossing), so its
    cost is the size of the below-threshold region, and the budget check is
    against the full box as documented.
    """
    n = len(weights)
    if t <= 0:
        return ((0,) * n,)
    check_box_budget(weights, t)

    out = []
    s = [0] * n

    def minimal_here(w: int, upto: int) -> bool:
        return all(s[i] == 0 or w - weights[i] < t for i in range(upto + 1))

    def descend(j: int, acc: int) -> None:
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


def _compare_power_vs_truncation(system: WeightSystem, t_b: int, d: int) -> tuple:
    """Core comparison in numerator form; returns (trunc_gens, power_gens, equal, witness, ok)."""
    base = minimal_generators_numerator(system.weights, t_b)
    trunc = minimal_generators_numerator(system.weights, d * t_b)
    sums = set()
    for combo in itertools.combinations_with_replacement(base, d):
        acc = combo[0]
        for v in combo[1:]:
            acc = vec_add(acc, v)
        sums.add(acc)
    power = minimalize(sums)

    containment_ok = all(
        sum(si * ai for si, ai in zip(p, system.weights)) >= d * t_b for p in power
    )
    by_div = all(any(divides(g, p) for g in trunc) for p in power)
    if containment_ok != by_div:
        raise InternalConsistencyError("containment routes disagree in power-vs-truncation")

    equal = set(trunc) == set(power)
    witness = None
    if not equal:
        for g in trunc:
            if not any(divides(p, g) for p in power):
                witness = g
                break
        if witness is None:
            raise InternalConsistencyError(
                "ideals reported unequal but every truncation generator lies in the power"
            )
    return trunc, power, equal, witness, containment_ok


def product_vs_truncation(system: WeightSystem, b, d: int) -> TruncationReport:
    """Compare the ideal at threshold d*b with the d-fold product of the one at b.

    ``b`` must be a positive multiple of lcm(weights)/m, the natural step of
    the associated graded algebra.  The product ideal is computed exactly
    from d-fold sums of generators (products of monomial ideals are generated
    by products of generators), then minimalized.
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

    ``step`` is lcm(weights)/m.  Stops at the first candidate that passes the
    whole d-sweep; returns None when no candidate within search_limit does.
    """
    if d_max < 2:
        raise InvalidInstanceError(f"d_max must be at least 2, got {d_max}")
    if search_limit < 1:
        raise InvalidInstanceError(f"search_limit must be at least 1, got {search_limit}")
    step = Fraction(system.lcm, system.m)
    for c in range(1, search_limit + 1):
        b = c * step
        if all(product_vs_truncation(system, b, d).equal for d in range(2, d_max + 1)):
            return b
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
