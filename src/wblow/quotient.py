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
from .record import Record, set_field


def check_nvars(nvars) -> None:
    """Refuse a variable count that is not an int, a bool included, or is below 1."""
    if not isinstance(nvars, int) or type(nvars) is bool or nvars < 1:
        raise DimensionError(f"nvars must be a positive integer, got {nvars!r}")


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

    def __init__(self, nvars: int, terms: Mapping[ExpVec, Fraction] | Iterable = ()):
        check_nvars(nvars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for exp, coeff in items:
            e = expvec(exp)
            if len(e) != nvars:
                raise DimensionError(f"exponent {e} has length {len(e)}, expected {nvars}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            acc[e] = acc[e] + c if e in acc else c
        self._fill(nvars, acc)

    def _fill(self, nvars: int, terms: dict) -> "Polynomial":
        """Set the fields from terms that are valid by construction; returns self.

        ``terms`` maps distinct exponent tuples of length ``nvars`` (non-negative
        ints) to rational coefficients; they are converted to ``Fraction``,
        zeros are dropped and the exponents sorted.  Nothing is re-checked:
        the constructor validates first, and the notation parser builds only
        valid terms, so it calls ``object.__new__(Polynomial)._fill`` directly.
        This is the only code that sets the fields.
        """
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", {
            e: c if type(c) is Fraction else Fraction(c) for e, c in sorted(terms.items()) if c
        })
        object.__setattr__(self, "_weighed", None)
        return self

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


class CyclicQuotientType(Record):
    """The quotient of affine n-space by a cyclic group of order m acting
    diagonally with the given weights, written 1/m(a_1,...,a_n).

    Weights are canonically reduced into [0, m) at construction, so the
    negative spellings like 1/3(1,-1,1) compare equal to 1/3(1,2,1).
    """

    def __init__(self, m: int, weights: tuple):
        if not isinstance(m, int) or type(m) is bool or m < 1:
            raise InvalidWeightsError(f"group order must be a positive integer, got {m!r}")
        ws = tuple(weights)
        if not ws:
            raise InvalidWeightsError("at least one weight is required")
        for w in ws:
            if not isinstance(w, int) or isinstance(w, bool):
                raise InvalidWeightsError(f"weights must be integers, got {w!r}")
        set_field(self, "m", m)
        set_field(self, "weights", tuple(w % m for w in ws))

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


class HyperquotientType(Record):
    """A hypersurface (g = 0) inside a cyclic quotient, type 1/m(a_0,...,a_n; e).

    ``g`` must be semi-invariant of class ``e`` under the ambient action; the
    constructor verifies this instead of trusting the caller.  ``g == 0`` is
    allowed and means "no equation" (the type is then a plain cyclic
    quotient); its class is taken to be 0 by convention.
    """

    def __init__(self, ambient: CyclicQuotientType, g: Polynomial, e: int):
        if g.nvars != ambient.n:
            raise DimensionError(f"equation has {g.nvars} variables, ambient type has {ambient.n}")
        found, declared = (0, 0) if g.is_zero else (semi_invariant_class(g, ambient), e % ambient.m)
        if declared != found:
            raise NotSemiInvariantError(
                f"equation is semi-invariant of class {found} mod {ambient.m},"
                f" not the declared class {declared}",
                monomials=g.support()[:1],
            )
        set_field(self, "ambient", ambient)
        set_field(self, "g", g)
        set_field(self, "e", found)

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


class MonoidBasis(Record):
    """Hilbert basis of the invariant-exponent monoid, up to a degree bound.

    ``degree_bound`` echoes the bound asked for; ``complete`` is True when
    bound >= n*m (x_i^m is invariant, so no basis entry exceeds m).  The
    Davenport bound makes any bound >= m complete, but the golden reports and
    the benchmark's basis check pin the n*m rule, so flipping it waits for a
    change that updates them together.
    """

    def __init__(self, generators: tuple, complete: bool, degree_bound: int):
        set_field(self, "generators", generators)
        set_field(self, "complete", complete)
        set_field(self, "degree_bound", degree_bound)


def invariant_monoid_basis(q: CyclicQuotientType, degree_bound: int) -> MonoidBasis:
    """Minimal additive generators of {s in N^n : sum(s_i a_i) = 0 mod m}.

    A basis element is a minimal zero-sum sequence over Z/m, so its degree
    is at most the Davenport constant D(Z/m) = m (Olson, *J. Number Theory*
    1 (1969)); enumeration stops at min(degree_bound, m).  The basis is the
    divisibility-minimal nonzero invariants, because the difference of two
    invariants is invariant.  The budget charges C(min(degree_bound, m) + n, n)
    candidates; the walk visits the first n - 1 entries (a head) and solves for
    the last.  Heads come from an odometer in lexicographic order, which keeps
    the head's degree and its weight mod m in place and needs no recursion, so
    n is not bounded by the interpreter's depth.  Lexicographic order extends
    divisibility, so each basis element dividing an invariant v is found
    before v; under one head only the least last entry can be minimal, and it
    is tested against the basis found so far.  A proper divisor has a smaller
    degree, so a v no heavier than every basis element found so far skips the
    test.
    """
    if type(degree_bound) is bool or degree_bound < 1:
        raise InvalidInstanceError("degree bound must be at least 1")
    n, m, top = q.n, q.m, min(degree_bound, q.m)
    check_enum_budget(math.comb(top + n, n), "invariant monoid enumeration")
    *lead, last = q.weights
    # s * last = -r (mod m) iff g | r and s lies in one class mod m/g; the zero vector is skipped
    g = math.gcd(last, m)
    step = m // g
    inverse = pow(last // g, -1, step)
    basis = []
    least = top  # the least degree in the basis, once it is not empty
    head, r, d = [0] * (n - 1), 0, 0  # the head entries, their weight mod m, their degree
    while True:
        if r % g == 0:
            first = -(r // g) * inverse % step or (step if d == 0 else 0)
            if first <= top - d:
                v = (*head, first)
                if d + first <= least or not any(all(map(le, u, v)) for u in reversed(basis)):
                    basis.append(v)  # newest first above: a divisor is most often a recent element
                    least = min(least, d + first)
        # the next head: raise the last entry, or else clear the last nonzero one and raise its neighbour
        if d < top and head:
            head[-1] += 1
            d += 1
            r = (r + lead[-1]) % m
            continue
        j = len(head) - 1
        while j >= 0 and not head[j]:
            j -= 1
        if j <= 0:
            break
        d -= head[j] - 1
        r = (r - head[j] * lead[j] + lead[j - 1]) % m
        head[j] = 0
        head[j - 1] += 1
    basis.sort(key=lambda e: (sum(e), e))
    return MonoidBasis(tuple(basis), degree_bound >= n * m, degree_bound)


class BinomialRelation(Record):
    """The single relation alpha*u + beta*v = gamma*w among a 3-element basis.

    ``basis`` is ordered (u, v, w) with w the generator expressible through
    the other two; exponents are positive and primitive.
    """

    def __init__(self, basis: tuple, exponents: tuple):
        set_field(self, "basis", basis)
        set_field(self, "exponents", exponents)

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


class ActionLiftReport(Record):
    """Outcome of lifting a residual quotient action through the invariant cover.

    For the degree-rm cover (x, y, z) = (xi^rm, eta^rm, xi*eta) of the
    2-variable order-rm quotient, the candidate order-r^2*m action on
    (xi, eta) with weights (a, rm-a) induces weights on (x, y, z) that must
    be (rm*a, -rm*a, rm) mod r^2*m, i.e. the residual order-r action pushed
    through the rm-th power of the group generator.
    """

    def __init__(self, ok: bool, group_order: int, induced: tuple, expected: tuple):
        set_field(self, "ok", ok)
        set_field(self, "group_order", group_order)
        set_field(self, "induced", induced)
        set_field(self, "expected", expected)


def action_lift_check(r: int, m: int, a: int) -> ActionLiftReport:
    """Verify the modular weight bookkeeping for the lifted action.

    Purely exponent arithmetic: x = xi^rm picks up rm*a, y = eta^rm picks up
    rm*(rm - a), z = xi*eta picks up a + (rm - a) = rm, everything mod r^2*m.
    """
    for name, v in (("r", r), ("m", m), ("a", a)):
        if not isinstance(v, int) or type(v) is bool or v < 1:
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
