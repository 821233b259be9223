"""Cyclic quotient and hyperquotient singularity types.

A cyclic quotient of order m acts diagonally on affine n-space with integer
weights taken mod m; its coordinate ring is the ring of invariant monomials.
A hyperquotient is a hypersurface inside such a quotient, cut out by a
semi-invariant equation.  This module holds those types, the semi-invariance
check, the invariant-monomial Hilbert basis (enumerated up to the Davenport
bound), and the modular bookkeeping for lifting a quotient action through an
invariant-coordinate cover.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul

from .arith import ExpVec, check_enum_budget, expvec, vec_add
from .errors import (
    DimensionError,
    InvalidInstanceError,
    InvalidWeightsError,
    NotSemiInvariantError,
    UndefinedWeightError,
    UnsupportedShapeError,
)


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    Terms map exponent tuples to nonzero ``Fraction`` coefficients; zero
    coefficients are dropped at construction and all exponent tuples must
    share one length (``nvars``).  Instances are immutable by convention and
    hashable; the zero polynomial has an empty term map but still knows its
    variable count.  One more slot keeps the terms' weights under the last
    weight system asked for (:meth:`weighed`); it takes no part in ``==``,
    ``hash``, copies or pickles.
    """

    __slots__ = ("nvars", "_terms", "_weighed")

    def __init__(self, nvars: int, terms: Mapping[ExpVec, Fraction] | Iterable = ()):
        if not isinstance(nvars, int) or nvars < 1:
            raise DimensionError(f"nvars must be a positive integer, got {nvars!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for exp, coeff in items:
            e = expvec(exp)
            if len(e) != nvars:
                raise DimensionError(f"exponent {e} has length {len(e)}, expected {nvars}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            acc[e] = acc[e] + c if e in acc else c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", dict(sorted((e, c) for e, c in acc.items() if c)))
        object.__setattr__(self, "_weighed", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        """Copies and pickles are rebuilt by the constructor, without the kept weights."""
        return Polynomial, (self.nvars, self._terms)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, ())

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise DimensionError(f"variable index {index} out of range 1..{nvars}")
        exp = tuple(1 if j == index - 1 else 0 for j in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, exp: ExpVec, coeff=1) -> "Polynomial":
        e = tuple(exp)  # validated once, by the constructor
        return cls(len(e), {e: coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple:
        """Exponent vectors with nonzero coefficient, in lexicographic order."""
        return tuple(self._terms)

    def coefficient(self, exp: ExpVec) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def items(self):
        return self._terms.items()

    def weighed(self, weights: tuple, m: int) -> tuple:
        """The terms under weights a over m, in support order: (sums, weight, residuals).

        ``sums[j]`` is sum(s_i * a_i) for the j-th support vector s, ``weight``
        is min(sums) / m, and ``residuals[j]`` is (sums[j] - min(sums)) / m,
        an int where m divides it.  The result for the last weights and m
        asked for is kept, so the weight and the strict transforms in every
        chart of one weight system weigh each term once.  Callers check that
        f is nonzero and that the weights have ``nvars`` entries.
        """
        kept = self._weighed
        if kept is not None and kept[0] == weights and kept[1] == m:
            return kept[2]
        sums = tuple([sum(map(mul, s, weights)) for s in self._terms])
        least = min(sums)
        residuals = tuple([Fraction(v, m) if v % m else v // m for v in (w - least for w in sums)])
        weighed = sums, Fraction(least, m), residuals
        object.__setattr__(self, "_weighed", (tuple(weights), m, weighed))
        return weighed

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise DimensionError("cannot add polynomials in different variable counts")
        merged = dict(self._terms)
        for e, c in other._terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise DimensionError("cannot multiply polynomials in different variable counts")
        prod: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = vec_add(e1, e2)
                prod[e] = prod.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, prod)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(self._terms.items())))

    def text(self) -> str:
        """Canonical plain-text form, parseable by the notation grammar."""
        if self.is_zero:
            return "0"
        parts = []
        # descending by (total degree, exponents): highest-order term first
        for exp in sorted(self._terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self._terms[exp]
            factors = []
            for j, p in enumerate(exp):
                if p == 0:
                    continue
                var = f"x{j + 1}" if j + 1 <= 9 else f"x{{{j + 1}}}"
                factors.append(var if p == 1 else f"{var}^{p}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.text()!r})"

    def __str__(self):
        return self.text()


@dataclass(frozen=True, slots=True)
class CyclicQuotientType:
    """The quotient of affine n-space by a cyclic group of order m acting
    diagonally with the given weights, written 1/m(a_1,...,a_n).

    Weights are canonically reduced into [0, m) at construction, so the
    negative spellings like 1/3(1,-1,1) compare equal to 1/3(1,2,1).
    """

    m: int
    weights: tuple

    def __post_init__(self):
        if not isinstance(self.m, int) or type(self.m) is bool or self.m < 1:
            raise InvalidWeightsError(f"group order must be a positive integer, got {self.m!r}")
        ws = tuple(self.weights)
        if not ws:
            raise InvalidWeightsError("at least one weight is required")
        for w in ws:
            if not isinstance(w, int) or isinstance(w, bool):
                raise InvalidWeightsError(f"weights must be integers, got {w!r}")
        object.__setattr__(self, "weights", tuple(w % self.m for w in ws))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def is_trivial(self) -> bool:
        return self.m == 1

    def notation(self) -> str:
        return f"1/{self.m}({','.join(str(w) for w in self.weights)})"

    def __str__(self):
        return self.notation()


@dataclass(frozen=True, slots=True)
class HyperquotientType:
    """A hypersurface (g = 0) inside a cyclic quotient, type 1/m(a_0,...,a_n; e).

    ``g`` must be semi-invariant of class ``e`` under the ambient action; the
    constructor verifies this instead of trusting the caller.  ``g == 0`` is
    allowed and means "no equation" (the type is then a plain cyclic
    quotient); its class is taken to be 0 by convention.
    """

    ambient: CyclicQuotientType
    g: Polynomial
    e: int

    def __post_init__(self):
        if self.g.nvars != self.ambient.n:
            raise DimensionError(
                f"equation has {self.g.nvars} variables, ambient type has {self.ambient.n}"
            )
        if self.g.is_zero:
            object.__setattr__(self, "e", 0)
            return
        e = semi_invariant_class(self.g, self.ambient)
        declared = self.e % self.ambient.m
        if declared != e:
            raise NotSemiInvariantError(
                f"equation is semi-invariant of class {e} mod {self.ambient.m},"
                f" not the declared class {declared}",
                monomials=self.g.support()[:1],
            )
        object.__setattr__(self, "e", e)

    @property
    def dimension(self) -> int:
        """Dimension of the singularity: ambient n minus one when g is a real equation."""
        return self.ambient.n - (0 if self.g.is_zero else 1)

    def notation(self) -> str:
        ws = ",".join(str(w) for w in self.ambient.weights)
        return f"1/{self.ambient.m}({ws};{self.e}){{g={self.g.text()}}}"

    def __str__(self):
        return self.notation()


def semi_invariant_class(g: Polynomial, q: CyclicQuotientType) -> int:
    """Eigenvalue class of a semi-invariant polynomial under the quotient action.

    Every monomial x^s transforms by the character sum(s_i a_i) mod m; the
    polynomial is an eigenfunction exactly when all its monomials agree.
    """
    if g.is_zero:
        raise UndefinedWeightError("the zero polynomial has no eigenvalue class")
    if g.nvars != q.n:
        raise DimensionError(f"polynomial has {g.nvars} variables, type has {q.n}")
    support = g.support()
    first = support[0]
    cls = sum(s * a for s, a in zip(first, q.weights)) % q.m
    for exp in support[1:]:
        c = sum(s * a for s, a in zip(exp, q.weights)) % q.m
        if c != cls:
            raise NotSemiInvariantError(
                f"monomials {first} (class {cls}) and {exp} (class {c})"
                f" lie in different weight classes mod {q.m}",
                monomials=(first, exp),
            )
    return cls


@dataclass(frozen=True, slots=True)
class MonoidBasis:
    """Hilbert basis of the invariant-exponent monoid, up to a degree bound.

    ``degree_bound`` echoes the bound asked for; ``complete`` is True when
    bound >= n*m (x_i^m is invariant, so no basis entry exceeds m).  The
    Davenport bound makes any bound >= m complete, but the golden reports and
    the benchmark's basis check pin the n*m rule, so flipping it waits for a
    change that updates them together.
    """

    generators: tuple
    complete: bool
    degree_bound: int


def _extend_heads(heads, a: int, m: int, top: int):
    """Each head with one more entry of weight a, made lazily; a call binds a per level."""
    for p, r, d in heads:
        for s in range(top - d + 1):
            yield p + (s,), (r + s * a) % m, d + s


def invariant_monoid_basis(q: CyclicQuotientType, degree_bound: int) -> MonoidBasis:
    """Minimal additive generators of {s in N^n : sum(s_i a_i) = 0 mod m}.

    A basis element is a minimal zero-sum sequence over Z/m, so its degree
    is at most the Davenport constant D(Z/m) = m (Olson, *J. Number Theory*
    1 (1969)); enumeration stops at min(degree_bound, m).  The basis is the
    divisibility-minimal nonzero invariants, because the difference of two
    invariants is invariant.  The budget charges C(min(degree_bound, m) + n, n)
    candidates; the walk visits the first n - 1 entries (a head) and solves for
    the last.  Heads come in lexicographic order, which extends divisibility,
    so each basis element dividing an invariant v is found before v; under one
    head only the least last entry can be minimal, and it is tested against the
    basis found so far.
    """
    if degree_bound < 1:
        raise InvalidInstanceError("degree bound must be at least 1")
    n, m, top = q.n, q.m, min(degree_bound, q.m)
    check_enum_budget(math.comb(top + n, n), "invariant monoid enumeration")
    heads = [((), 0, 0)]  # (head entries, their weight mod m, their degree)
    for a in q.weights[:-1]:
        heads = _extend_heads(heads, a, m, top)
    # s * last = -r (mod m) iff g | r and s lies in one class mod m/g; the zero vector is skipped
    last = q.weights[-1]
    g = math.gcd(last, m)
    step = m // g
    inverse = pow(last // g, -1, step)
    basis = []
    for p, r, d in heads:
        if r % g == 0:
            first = -(r // g) * inverse % step or (step if d == 0 else 0)
            v = p + (first,)
            if first <= top - d and not any(all(map(le, u, v)) for u in reversed(basis)):
                basis.append(v)  # newest first above: a divisor is most often a recent element
    basis.sort(key=lambda e: (sum(e), e))
    return MonoidBasis(tuple(basis), degree_bound >= n * m, degree_bound)


@dataclass(frozen=True, slots=True)
class BinomialRelation:
    """The single relation alpha*u + beta*v = gamma*w among a 3-element basis.

    ``basis`` is ordered (u, v, w) with w the generator expressible through
    the other two; exponents are positive and primitive.
    """

    basis: tuple
    exponents: tuple

    def holds(self) -> bool:
        alpha, beta, gamma = self.exponents
        u, v, w = self.basis
        lhs = tuple(alpha * ui + beta * vi for ui, vi in zip(u, v))
        rhs = tuple(gamma * wi for wi in w)
        return lhs == rhs


def binomial_relation_2d(q: CyclicQuotientType) -> BinomialRelation:
    """Exponent identity among the three invariant generators of a 2-variable quotient.

    Only the 3-generator shape is modelled (one relation); anything else is
    rejected.  The relation is found as the integer kernel of the 3x2 matrix
    of generators, via 2d cross products.  None is zero: of two parallel
    vectors of N^2 one divides the other, which basis elements never do.  A
    zero sum of nonzero vectors of N^2 needs coefficients of both signs, so
    after a sign flip exactly one is negative: its generator is w.
    """
    if q.n != 2:
        raise UnsupportedShapeError(f"binomial relation needs 2 variables, got {q.n}")
    basis = invariant_monoid_basis(q, 2 * q.m).generators
    if len(basis) != 3:
        raise UnsupportedShapeError(
            f"invariant basis has {len(basis)} generators; only the 3-generator case"
            " carries a single binomial relation"
        )
    p, r, s = basis
    cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
    c = (cross(r, s), cross(s, p), cross(p, r))
    g = math.gcd(*c)
    c = tuple(x // g for x in c)
    if sum(x < 0 for x in c) == 2:
        c = tuple(-x for x in c)
    k = next(i for i in range(3) if c[i] < 0)
    others = [i for i in range(3) if i != k]
    ordered = (basis[others[0]], basis[others[1]], basis[k])
    exponents = (c[others[0]], c[others[1]], -c[k])
    return BinomialRelation(ordered, exponents)


@dataclass(frozen=True, slots=True)
class ActionLiftReport:
    """Outcome of lifting a residual quotient action through the invariant cover.

    For the degree-rm cover (x, y, z) = (xi^rm, eta^rm, xi*eta) of the
    2-variable order-rm quotient, the candidate order-r^2*m action on
    (xi, eta) with weights (a, rm-a) induces weights on (x, y, z) that must
    be (rm*a, -rm*a, rm) mod r^2*m, i.e. the residual order-r action pushed
    through the rm-th power of the group generator.
    """

    ok: bool
    group_order: int
    induced: tuple
    expected: tuple


def action_lift_check(r: int, m: int, a: int) -> ActionLiftReport:
    """Verify the modular weight bookkeeping for the lifted action.

    Purely exponent arithmetic: x = xi^rm picks up rm*a, y = eta^rm picks up
    rm*(rm - a), z = xi*eta picks up a + (rm - a) = rm, everything mod r^2*m.
    """
    for name, v in (("r", r), ("m", m), ("a", a)):
        if not isinstance(v, int) or v < 1:
            raise InvalidInstanceError(f"{name} must be a positive integer, got {v!r}")
    if math.gcd(a, r) != 1:
        raise InvalidInstanceError(f"a={a} must be coprime to r={r}")
    order = r * r * m
    rm = r * m
    induced = ((rm * a) % order, (rm * (rm - a)) % order, rm % order)
    expected = ((rm * a) % order, (-rm * a) % order, rm % order)
    return ActionLiftReport(induced == expected, order, induced, expected)


def section_type(q: CyclicQuotientType, i: int) -> CyclicQuotientType:
    """Type of the hyperplane section x_i = 0: the same quotient with one weight dropped."""
    if q.n < 2:
        raise DimensionError("cannot take a section of a 1-variable type")
    if not 1 <= i <= q.n:
        raise DimensionError(f"coordinate index {i} out of range 1..{q.n}")
    ws = q.weights[: i - 1] + q.weights[i:]
    return CyclicQuotientType(q.m, ws)


def lift_type(q: CyclicQuotientType, a_n: int) -> CyclicQuotientType:
    """Ambient type one dimension up: append a_n (mod m) as the last weight."""
    return CyclicQuotientType(q.m, q.weights + (a_n,))
