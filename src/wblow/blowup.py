"""The weighted blow-up as toric and chart data.

The blow-up of the quotient of affine n-space with weights (a_1,...,a_n)
over a group of order m is the star subdivision of the positive orthant at
the ray through e = (a_1/m,...,a_n/m).  Each top cone C_i (drop the i-th
unit ray, add e) is an affine chart: a cyclic quotient of order a_i whose
coordinates map back by x_j -> xbar_j * xbar_i^(a_j/m).  The exceptional
divisor is cut out by xbar_i in chart i, so the xbar_i-exponent after
substitution is the vanishing order along it.

Chart i gives x^s the xbar_i-exponent sum_j s_j a_j / m, the weight of s,
so valuations and strict transforms read the weights directly; fractional
powers stay formal symbols.  Every fan ray and chart exponent is an integer
over the group order m, so the fan and the charts store integer numerators
over m, and a ``Fraction`` is built only where a result leaves the layer
(``Fan.rays``, valuations, strict-transform exponents,
``Chart.substitution``).  The subdivision check compares the fan record with
the star layout, exactly; cone indices and chart maps are read off that
layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionError,
    InvalidInstanceError,
    OutOfDomainError,
    UndefinedWeightError,
)
from .quotient import CyclicQuotientType, Polynomial, semi_invariant_class
from .wideal import (
    WeightedIdeal,
    WeightSystem,
    ideal_generators,
    polynomial_weight,
)


@dataclass(frozen=True, slots=True)
class Fan:
    """Star subdivision data: unit rays e_1..e_n, the center e, and top cones.

    ``numerators`` lists the rays as integer vectors over ``m`` (m*e_1, ...,
    m*e_n, then the weights); ``rays`` is the same as exact rationals.  Cone
    i is given by the indices of its n generating rays (all unit rays but
    the i-th, plus the center).  The record itself is unvalidated so that
    tests can corrupt it; ``fan_is_subdivision`` certifies the layout that
    ``build_fan`` always returns, and ``cone_indices`` refuses any other.
    """

    n: int
    m: int
    numerators: tuple
    cones: tuple

    @property
    def rays(self) -> tuple:
        """The rays as exact rational vectors."""
        return tuple(tuple(Fraction(v, self.m) for v in row) for row in self.numerators)


def _star_layout(n: int, m: int) -> tuple:
    """Rays m*e_1..m*e_n and the cones: cone i is every unit ray but the i-th, then the center."""
    unit = tuple(tuple(m if k == j else 0 for k in range(n)) for j in range(n))
    cones = tuple(tuple(j for j in range(n) if j != i) + (n,) for i in range(n))
    return unit, cones


def build_fan(system: WeightSystem) -> Fan:
    """Fan of the blow-up: orthant star-subdivided at (1/m)(a_1,...,a_n)."""
    unit, cones = _star_layout(system.n, system.m)
    return Fan(system.n, system.m, unit + (system.weights,), cones)


def fan_is_subdivision(fan: Fan) -> bool:
    """Exact O(n^2) check: the star layout of ``build_fan``, with n positive center entries.

    Such a fan subdivides the orthant: with center v > 0, a point p >= 0
    lies in cone i iff i attains min_j p_j / v_j, so the cones cover it, no
    point is interior to two of them, and cone i has determinant
    v_i * m^(n-1) != 0 (Cox, Little & Schenck, Toric Varieties, 3.3).  Any
    other record, even another subdivision, is refused.
    """
    n, m = fan.n, fan.m
    unit, cones = _star_layout(n, m)
    if n < 1 or m < 1 or fan.numerators[:-1] != unit or fan.cones != cones:
        return False
    center = fan.numerators[-1]
    return len(center) == n and min(center) > 0


def _check_chart_index(i: int, n: int) -> None:
    """Refuse a chart or cone index outside 1..n."""
    if not 1 <= i <= n:
        raise DimensionError(f"chart index {i} out of range 1..{n}")


def cone_indices(fan: Fan) -> tuple:
    """Index of each chart cone in the blow-up lattice (unit lattice plus the center ray), in order.

    That is |det| of the cone generators times the order of the center
    modulo the unit lattice.  On a certified star layout with center v over
    m, cone i has determinant v_i * m^(n-1) over m^n and the center has
    order m / gcd(m, v), so the index is v_i / gcd(m, v), always an integer.
    The record is certified once for all n indices; a record that is not
    the star layout is refused.
    """
    if not fan_is_subdivision(fan):
        raise InvalidInstanceError("the fan record is not the star subdivision of the orthant")
    center = fan.numerators[-1]
    common = math.gcd(fan.m, *center)
    return tuple(v // common for v in center)


def cone_index(fan: Fan, i: int) -> int:
    """Index of chart cone i, ``cone_indices(fan)[i - 1]``; the index range is checked first."""
    _check_chart_index(i, fan.n)
    return cone_indices(fan)[i - 1]


@dataclass(frozen=True, slots=True)
class Chart:
    """One affine piece of the blow-up.

    ``numerators`` is the n x n integer matrix of exponent numerators over
    ``m``: row j gives m times the barred-variable exponents of the image of
    x_j, so row j is m at position j with a_j in column i, and row i is a_i
    at position i.  ``substitution`` is the same matrix as rows of
    ``Fraction`` (a_j/m and so on), built on demand for reports.
    ``quotient_type`` is the chart's cyclic quotient: order a_i with weights
    (-a_1,...,m,...,-a_n) reduced mod a_i (trivial when a_i = 1).
    """

    index: int
    quotient_type: CyclicQuotientType
    m: int
    numerators: tuple

    @property
    def substitution(self) -> tuple:
        """The chart map's exponent matrix as exact rationals."""
        return tuple(tuple(Fraction(v, self.m) for v in row) for row in self.numerators)


@functools.lru_cache(maxsize=64, typed=True)
def chart(system: WeightSystem, i: int) -> Chart:
    """The i-th chart (1-based) of the blow-up for the given weight system.

    The numerator matrix is the star layout's unit rays m*e_j with column i
    replaced by the weights, the center ray of cone i; only these n rows
    are built, not the fan's cones.  Memoised: both arguments are hashable
    and the ``Chart`` is frozen, so repeated calls for one system share one
    record.  The cache is kept small because callers sweep the charts of
    one system at a time.
    """
    n, a, m = system.n, system.weights, system.m
    _check_chart_index(i, n)
    i0 = i - 1
    qtype = CyclicQuotientType(a[i0], tuple(m if j == i0 else -a[j] for j in range(n)))
    rows = tuple(
        tuple(a_j if k == i0 else m if k == j else 0 for k in range(n)) for j, a_j in enumerate(a)
    )
    return Chart(i, qtype, m, rows)


def exceptional_valuation(f: Polynomial, system: WeightSystem, chart_index: int) -> Fraction:
    """Vanishing order of f along the exceptional divisor, read off in one chart.

    Column i of chart i's map is the weight vector over m, so the chart
    coordinate's exponent of x^s is its weight and the order is the weight
    of f in every chart.  The weight is taken first, which checks that f is
    nonzero and has the system's number of variables; then the chart index
    is checked.
    """
    weight = polynomial_weight(f, system)
    _check_chart_index(chart_index, system.n)
    return weight


@dataclass(frozen=True, slots=True)
class PushforwardRecord:
    """One level of the pushforward: the ideal of functions vanishing to order >= a."""

    a: int
    ideal: WeightedIdeal


@dataclass(frozen=True, slots=True)
class PushforwardReport:
    """Decomposition of the pullback of the divisor (f = 0).

    The pullback is the strict transform plus ``multiplicity`` times the
    exceptional divisor, where the multiplicity is the weight of f.  The
    attached records give, level by level, the ideal of the direct image of
    functions vanishing to order >= a along the divisor; that identity is a
    structural fact of the blow-up, while each ideal is computed here.
    """

    system: WeightSystem
    multiplicity: Fraction
    eigenvalue_class: int
    records: tuple


def pushforward_decomposition(
    f: Polynomial, system: WeightSystem, a_max: int | None = None
) -> PushforwardReport:
    """Multiplicity of the exceptional divisor in the pullback of (f = 0), with ideals.

    ``f`` must be semi-invariant under the order-m action with these weights
    (checked).  Records cover integer levels 0..a_max; the default bound
    brackets the multiplicity by one extra level.  The levels are built from
    a_max down, so the first walk, and the first charge, is the top level's
    box, the largest: a refusal comes before any level is built.
    """
    if f.is_zero:
        raise UndefinedWeightError("the zero polynomial defines no divisor")
    ambient = CyclicQuotientType(system.m, system.weights)
    eig = semi_invariant_class(f, ambient)  # raises NotSemiInvariantError when mixed
    multiplicity = polynomial_weight(f, system)
    if a_max is None:
        a_max = math.ceil(multiplicity) + 1
    if a_max < 0:
        raise OutOfDomainError(f"a_max must be non-negative, got {a_max}")
    records = [PushforwardRecord(a, ideal_generators(system, a)) for a in range(a_max, -1, -1)]
    return PushforwardReport(system, multiplicity, eig, tuple(reversed(records)))


@dataclass(frozen=True, slots=True)
class TransformedEquation:
    """Strict transform of an equation in one chart.

    ``terms`` maps barred exponent vectors (exact, possibly fractional in the
    chart coordinate) to coefficients, normalized so the minimal exponent of
    the chart coordinate is zero; ``factored_exponent`` is the power of the
    chart coordinate divided out, i.e. the weight of the equation.
    """

    chart_index: int
    factored_exponent: Fraction
    terms: tuple  # ((exponent tuple, coefficient), ...) sorted

    def term_dict(self) -> dict:
        return dict(self.terms)

    def divisor_restriction(self) -> tuple:
        """Terms surviving on the exceptional divisor (chart-coordinate exponent 0)."""
        i0 = self.chart_index - 1
        return tuple((e, c) for e, c in self.terms if e[i0] == 0)


def strict_transform_in_chart(
    g: Polynomial, system: WeightSystem, chart_index: int
) -> TransformedEquation:
    """Substitute the chart map into g and factor out the exceptional multiplicity.

    Each monomial acquires chart-coordinate exponent equal to its weight;
    dividing by the minimal one leaves the residual equation of the strict
    transform, whose restriction to the divisor is read off by keeping the
    exponent-zero terms.  Row j of the chart map is m e_j off column i, and
    column i is the weight vector, so only column i is substituted, by the
    weights: every other exponent stays the integer s_j.  The terms are
    sorted on keys that hold the numerator sum_j s_j a_j in place of s_i;
    since m > 0 the order of these keys is that of the exponents.  The map
    is injective: a key keeps s_j for j != i, from which s_i is recovered
    because a_i > 0.  The sums, the weight and each term's chart-coordinate
    exponent over m come from ``g.weighed``, which g keeps, so the charts
    of one weight system weigh each term once.
    """
    if g.is_zero:
        raise UndefinedWeightError("the zero polynomial has no strict transform")
    n = system.n
    _check_chart_index(chart_index, n)
    if g.nvars != n:
        raise DimensionError(f"exponent length {g.nvars} does not match chart dimension {n}")
    i0 = chart_index - 1
    sums, weight, residuals = g.weighed(system.weights, system.m)
    keyed = sorted(
        [(s[:i0] + (w,) + s[i0 + 1 :], c, r) for (s, c), w, r in zip(g.items(), sums, residuals)]
    )
    terms = tuple([(e[:i0] + (r,) + e[i0 + 1 :], c) for e, c, r in keyed])
    return TransformedEquation(chart_index, weight, terms)


@dataclass(frozen=True, slots=True)
class ExceptionalInfo:
    """Bookkeeping for the exceptional divisor of the blow-up.

    ``projective_space`` describes the divisor (weighted projective space of
    the blow-up weights); ``cartier_generator`` is the integral generator of
    the relative Picard group, -lcm(weights) times the divisor.  The
    restriction rule answers only at levels divisible by the product of the
    weights.  The vanishing statement is a recorded fact about the blow-up,
    carried for reports and never computed here.
    """

    lcm: int
    weights_product: int
    m: int
    projective_space: str
    cartier_generator: str
    vanishing_fact: str

    def restriction(self, a: int) -> str:
        """Degree of the restricted sheaf at level a (a must be divisible by the weight product)."""
        if a % self.weights_product != 0:
            raise OutOfDomainError(
                f"restriction rule answers only for a divisible by {self.weights_product}, got {a}"
            )
        return f"O_P({self.m * a})"


def exceptional_info(system: WeightSystem) -> ExceptionalInfo:
    """Divisor descriptors derived from the weight system alone."""
    M = system.lcm
    prod = math.prod(system.weights)
    names = ",".join(str(a) for a in system.weights)
    return ExceptionalInfo(
        lcm=M,
        weights_product=prod,
        m=system.m,
        projective_space=f"P({names})",
        cartier_generator=f"H = -{M}E",
        vanishing_fact=(
            "recorded fact (not computed): higher direct images of every integer"
            " multiple of the relatively ample Cartier generator vanish"
        ),
    )
