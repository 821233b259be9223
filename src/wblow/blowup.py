"""The weighted blow-up as toric and chart data.

The blow-up of the quotient of affine n-space with weights (a_1,...,a_n)
over a group of order m is the star subdivision of the positive orthant at
the ray through e = (a_1/m,...,a_n/m).  Each top cone C_i (drop the i-th
unit ray, add e) is an affine chart: a cyclic quotient of order a_i whose
coordinates map back by x_j -> xbar_j * xbar_i^(a_j/m).  The exceptional
divisor is cut out by xbar_i in chart i, so the xbar_i-exponent after
substitution is the vanishing order along it.

Every fan ray and every chart exponent is an integer over the group order
m, so the fan and the charts store integer numerators over m, the
subdivision check and the cone indices use integer determinants, and a
``Fraction`` is built only where a result leaves the layer (``Fan.rays``,
valuations, strict-transform exponents, ``Chart.substitution``).
Fractional powers are treated as formal symbols; all consequences used
here (valuations, strict transforms) only need exponent arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import check_enum_budget
from .errors import (
    DimensionError,
    InternalConsistencyError,
    InvalidInstanceError,
    OutOfDomainError,
    UndefinedWeightError,
)
from .quotient import CyclicQuotientType, Polynomial, semi_invariant_class
from .wideal import (
    WeightedIdeal,
    WeightSystem,
    check_box_budget,
    ideal_generators,
    polynomial_weight,
    weight_numerator,
)


@dataclass(frozen=True, slots=True)
class Fan:
    """Star subdivision data: unit rays e_1..e_n, the center e, and top cones.

    ``numerators`` lists the rays as integer vectors over ``m`` (m*e_1, ...,
    m*e_n, then the weights); ``rays`` is the same as exact rationals.  Cone
    i is given by the indices of its n generating rays (all unit rays but
    the i-th, plus the center).  The record itself is unvalidated so that
    tests can corrupt it; ``build_fan`` output always satisfies the
    invariants and ``fan_is_subdivision`` checks them.
    """

    n: int
    m: int
    numerators: tuple
    cones: tuple

    @property
    def rays(self) -> tuple:
        """The rays as exact rational vectors."""
        return tuple(tuple(Fraction(v, self.m) for v in row) for row in self.numerators)


def build_fan(system: WeightSystem) -> Fan:
    """Fan of the blow-up: orthant star-subdivided at (1/m)(a_1,...,a_n)."""
    n, m = system.n, system.m
    unit = tuple(tuple(m if k == j else 0 for k in range(n)) for j in range(n))
    cones = tuple(
        tuple(j for j in range(n) if j != i) + (n,) for i in range(n)
    )
    return Fan(n, m, unit + (system.weights,), cones)


def _det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination; every division is exact."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign = prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        top = mat[c]
        for row in mat[c + 1 :]:
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * top[c] - f * top[j]) // prev
        prev = top[c]
    return sign * prev


def _adjugate(gens) -> list:
    """Adjugate of the matrix with columns ``gens``: row k . p = det * p's k-th coordinate."""
    n = len(gens)
    rows = []
    for k in range(n):
        others = gens[:k] + gens[k + 1 :]
        rows.append(
            [(-1) ** (k + r) * _det([g[:r] + g[r + 1 :] for g in others]) for r in range(n)]
        )
    return rows


#: Deterministic sampling grid for the subdivision check: all integer points
#: of [0, GRID]^n except the origin.
SUBDIVISION_GRID = 4


def fan_is_subdivision(fan: Fan, grid: int = SUBDIVISION_GRID) -> bool:
    """Sanity-check the subdivision: full-dimensional cones covering the orthant.

    (a) each cone's generators are linearly independent over the rationals;
    (b) every sampled orthant point lies in some cone; (c) no sampled point
    is interior to two cones.  Sampling uses the fixed integer grid above,
    so the check is deterministic.  A grid below 1 samples no point, so it
    is refused rather than reported as a check that passed; the budget is
    charged the (grid+1)^n grid points.  The signs of D * (adjugate . p),
    with D a cone's determinant, are those of p's cone coordinates.
    """
    if grid < 1:
        raise InvalidInstanceError(f"the sample grid must be at least 1, got {grid}")
    adjugates = []
    for cone in fan.cones:
        gens = [fan.numerators[k] for k in cone]
        if len(gens) != fan.n or (det := _det(gens)) == 0:
            return False
        adjugates.append([[det * v for v in row] for row in _adjugate(gens)])

    check_enum_budget((grid + 1) ** fan.n, "fan subdivision check")
    for point in itertools.product(range(grid + 1), repeat=fan.n):
        if not any(point):
            continue
        covered = interior = 0
        for adj in adjugates:
            lowest = min(sum(map(mul, row, point)) for row in adj)
            if lowest >= 0:
                covered += 1
                if lowest > 0:
                    interior += 1
        if covered == 0 or interior > 1:
            return False
    return True


def cone_index(fan: Fan, i: int) -> int:
    """Index of chart cone i in the blow-up lattice (unit lattice plus the center ray).

    Computed as |det| of the cone generators in standard coordinates times
    the order of the center modulo the unit lattice.  On numerators over m
    that is |det| * (m / gcd(m, center)) / m^n, which must come out an
    integer.
    """
    if not 1 <= i <= fan.n:
        raise DimensionError(f"chart index {i} out of range 1..{fan.n}")
    m = fan.m
    vol = abs(_det([fan.numerators[k] for k in fan.cones[i - 1]]))
    center_order = m // math.gcd(m, *fan.numerators[-1])
    idx, rest = divmod(vol * center_order, m**fan.n)
    if rest:
        raise InternalConsistencyError(
            f"cone index {Fraction(vol * center_order, m**fan.n)} is not an integer"
        )
    return idx


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

    Memoised: both arguments are hashable and the ``Chart`` is frozen, so
    repeated calls for one system share one record.  The cache is kept
    small because callers sweep the charts of one system at a time.
    """
    n = system.n
    if not 1 <= i <= n:
        raise DimensionError(f"chart index {i} out of range 1..{n}")
    a, m = system.weights, system.m
    i0 = i - 1
    qtype = CyclicQuotientType(a[i0], tuple(m if j == i0 else -a[j] for j in range(n)))
    rows = []
    for j in range(n):
        row = [0] * n
        if j != i0:
            row[j] = m
        row[i0] = a[j]
        rows.append(tuple(row))
    return Chart(i, qtype, m, tuple(rows))


def _check_nvars(f: Polynomial, ch: Chart) -> None:
    n = len(ch.numerators)
    if f.nvars != n:
        raise DimensionError(f"exponent length {f.nvars} does not match chart dimension {n}")


def _over(v: int, m: int):
    """Report form of an exponent numerator over m: an int when m divides it, else a Fraction."""
    q, r = divmod(v, m)
    return Fraction(v, m) if r else q


def exceptional_valuation(f: Polynomial, system: WeightSystem, chart_index: int) -> Fraction:
    """Vanishing order of f along the exceptional divisor, read off in one chart.

    Substitutes the chart map and takes the minimal exponent numerator of
    the chart's barred coordinate (the local equation of the divisor) over
    the support.  The result must equal the weight valuation computed
    directly; the two routes are compared and a mismatch raises, since they
    agree by construction.
    """
    if f.is_zero:
        raise UndefinedWeightError("the zero polynomial has no vanishing order")
    ch = chart(system, chart_index)
    _check_nvars(f, ch)
    column = [row[chart_index - 1] for row in ch.numerators]
    order = min(sum(map(mul, s, column)) for s in f.support())
    direct = weight_numerator(f, system)
    if order != direct:
        raise InternalConsistencyError(
            f"chart {chart_index} reads vanishing order {Fraction(order, ch.m)} but the weight"
            f" valuation is {Fraction(direct, ch.m)}"
        )
    return Fraction(order, ch.m)


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
    brackets the multiplicity by one extra level.
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
    check_box_budget(system.weights, a_max * system.m)  # the largest box, before any level
    records = tuple(
        PushforwardRecord(a, ideal_generators(system, Fraction(a))) for a in range(a_max + 1)
    )
    return PushforwardReport(system, multiplicity, eig, records)


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
    exponent-zero terms.  Row j of the chart map is m e_j off column i, so
    only column i is substituted: every other exponent stays the integer s_j,
    and the chart-coordinate entry is kept as its numerator over m until the
    report.  Since m > 0 the order of these keys is that of the exponents.
    """
    if g.is_zero:
        raise UndefinedWeightError("the zero polynomial has no strict transform")
    ch = chart(system, chart_index)
    _check_nvars(g, ch)
    i0 = chart_index - 1
    m = ch.m
    column = [row[i0] for row in ch.numerators]
    keyed = sorted((s[:i0] + (sum(map(mul, s, column)),) + s[i0 + 1 :], c) for s, c in g.items())
    for (e, _), (f, _) in zip(keyed, keyed[1:]):
        if e == f:
            raise InternalConsistencyError(
                f"chart map collided two monomials at {e[:i0] + (_over(e[i0], m),) + e[i0 + 1 :]}"
            )
    w_min = min(e[i0] for e, _ in keyed)
    terms = tuple((e[:i0] + (_over(e[i0] - w_min, m),) + e[i0 + 1 :], c) for e, c in keyed)
    if min(e[i0] for e, _ in terms) != 0:
        raise InternalConsistencyError("residual does not reach chart-coordinate exponent 0")
    return TransformedEquation(chart_index, Fraction(w_min, m), terms)


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
