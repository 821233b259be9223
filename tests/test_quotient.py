import copy
import itertools
import math
import pickle
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from helpers import brute_monoid_basis, sum_of_two_monoid_basis
from wblow.errors import (
    DimensionError,
    InvalidInstanceError,
    InvalidWeightsError,
    NotSemiInvariantError,
    UndefinedWeightError,
    UnsupportedShapeError,
)
from wblow.notation import parse_singularity
from wblow.quotient import (
    CyclicQuotientType,
    HyperquotientType,
    Polynomial,
    action_lift_check,
    binomial_relation_2d,
    invariant_monoid_basis,
    lift_type,
    section_type,
    semi_invariant_class,
)


def poly(nvars, terms):
    return Polynomial(nvars, {k: Fraction(v) for k, v in terms.items()})


@st.composite
def quotient_and_bound(draw):
    """A type 1/m(a_1..a_n), n 1-3, m 1-12, residues 0..m-1, and a bound around m or n*m."""
    m = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
    n = len(weights)
    bound = draw(st.sampled_from([1, max(1, m - 1), m, m + 1, n * m, 2 * m]))
    return CyclicQuotientType(m, tuple(weights)), bound


class TestCyclicQuotientType:
    def test_reduces_mod_m(self):
        assert CyclicQuotientType(3, (1, -1, 1, 0)).weights == (1, 2, 1, 0)
        assert CyclicQuotientType(5, (7, 3)).weights == (2, 3)

    def test_trivial_group(self):
        q = CyclicQuotientType(1, (4, 5))
        assert q.weights == (0, 0) and q.is_trivial

    def test_notation(self):
        assert str(CyclicQuotientType(5, (1, 2, 3))) == "1/5(1,2,3)"

    def test_equality_of_spellings(self):
        assert CyclicQuotientType(3, (1, -1, 1)) == CyclicQuotientType(3, (1, 2, 1))

    def test_weight_refusals(self):
        with pytest.raises(InvalidWeightsError, match=r"^at least one weight is required$"):
            CyclicQuotientType(3, ())
        with pytest.raises(InvalidWeightsError, match=r"^weights must be integers, got 1\.5$"):
            CyclicQuotientType(3, (1.5,))

    @pytest.mark.parametrize("m", [True, False, 0, 1.0])
    def test_group_order_refusals(self, m):
        # a bool is an int, but 1/True(0,0) is no notation
        with pytest.raises(
            InvalidWeightsError, match=rf"^group order must be a positive integer, got {m!r}$"
        ):
            CyclicQuotientType(m, (1, 2))


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = poly(2, {(1, 0): 1, (0, 1): -1}) + poly(2, {(0, 1): 1})
        assert p.support() == ((1, 0),)

    def test_product_adds_exponents(self):
        x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        assert (x * y).support() == ((1, 1),)
        assert (x + y) * (x - y) == x * x - y * y

    def test_zero(self):
        z = Polynomial.zero(3)
        assert z.is_zero and z.nvars == 3
        assert z.text() == "0"

    def test_hashable(self):
        assert hash(poly(2, {(1, 1): 2})) == hash(poly(2, {(1, 1): 2}))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            poly(2, {(1, 0): 1}) + poly(3, {(1, 0, 0): 1})
        with pytest.raises(DimensionError, match="^cannot multiply polynomials in different variable counts$"):
            poly(2, {(1, 0): 1}) * poly(3, {(1, 0, 0): 1})

    def test_immutable(self):
        p = poly(2, {(1, 0): 1})
        with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
            p.nvars = 3
        assert p.nvars == 2

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "copier", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_rebuild_without_the_kept_weights(self, copier, warm):
        p = poly(2, {(2, 0): 3, (0, 1): Fraction(-1, 2)})
        if warm:
            assert p.weighed((1, 2), 3)[0] == (2, 2)
        q = copier(p)
        assert q == p and hash(q) == hash(p) and q.terms == p.terms and q.nvars == 2
        assert q._weighed is None
        assert q.weighed((3, 1), 2) == p.weighed((3, 1), 2) == ((1, 6), Fraction(1, 2), (0, Fraction(5, 2)))
        with pytest.raises(AttributeError, match="^Polynomial is immutable$"):
            q.nvars = 3

    def test_records_holding_a_polynomial_copy_and_pickle(self):
        hq = parse_singularity("1/5(1,4;0){g=x1*x2}")
        for copier in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            assert copier(hq) == hq and copier(hq).g.text() == "x1*x2"

    def test_weighed_keeps_the_last_weights_and_order(self):
        p = poly(3, {(1, 0, 2): 1, (0, 3, 0): -2})  # support order: (0, 3, 0), (1, 0, 2)
        assert p._weighed is None
        first = p.weighed((1, 2, 3), 4)
        assert first == ((6, 7), Fraction(3, 2), (0, Fraction(1, 4)))
        assert type(first[2][0]) is int and type(first[2][1]) is Fraction
        assert p.weighed((1, 2, 3), 4) is first
        assert p.weighed((1, 2, 3), 1) == ((6, 7), 6, (0, 1))  # another m: weighed again
        assert p.weighed([2, 1, 1], 1) == ((3, 4), 3, (0, 1)) and p._weighed[:2] == ((2, 1, 1), 1)

    def test_str_is_the_text(self):
        p = poly(3, {(1, 1, 0): 1, (0, 0, 3): 1})
        assert str(p) == p.text() == "x3^3+x1*x2"

    def test_repeated_exponent_sums(self):
        p = Polynomial(2, [((1, 0), 2), ((0, 1), 1), ((1, 0), Fraction(1, 2))])
        assert p.terms == {(0, 1): Fraction(1), (1, 0): Fraction(5, 2)}

    def test_repeated_exponent_cancels(self):
        p = Polynomial(2, [((1, 1), 3), ((1, 1), -3)])
        assert p.is_zero and p.terms == {} and p == Polynomial.zero(2)
        assert Polynomial(1, {(2,): 0}).is_zero

    def test_int_and_fraction_coefficients_agree(self):
        by_int = Polynomial(2, {(2, 0): 3, (0, 1): -1})
        by_fraction = Polynomial(2, {(2, 0): Fraction(3), (0, 1): Fraction(-1)})
        assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
        assert all(type(c) is Fraction for _, c in by_int.items())
        assert Polynomial.monomial((1, 2), 4) == Polynomial(2, {(1, 2): Fraction(4)})

    def test_terms_in_lexicographic_order(self):
        p = Polynomial(3, {(0, 0, 5): 1, (2, 0, 0): 1, (0, 3, 0): 1, (2, 0, 1): 1})
        assert p.support() == ((0, 0, 5), (0, 3, 0), (2, 0, 0), (2, 0, 1))
        assert list(p.terms) == list(p.support())

    def test_constructor_messages(self):
        with pytest.raises(DimensionError, match=r"^nvars must be a positive integer, got 0$"):
            Polynomial(0, {})
        with pytest.raises(DimensionError, match=r"^exponent \(1, 0\) has length 2, expected 3$"):
            Polynomial(3, {(1, 0): 1})
        with pytest.raises(
            InvalidWeightsError, match=r"^exponent entries must be non-negative integers, got -1$"
        ):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(
            InvalidWeightsError, match=r"^exponent entries must be non-negative integers, got True$"
        ):
            Polynomial.monomial((True, 0))
        with pytest.raises(DimensionError, match=r"^variable index 3 out of range 1\.\.2$"):
            Polynomial.variable(2, 3)


class TestSemiInvariantClass:
    def test_surface_equation(self):
        # xy + z^3 + t^2 under the order-3 action with weights (1,-1,1,0)
        q = CyclicQuotientType(3, (1, -1, 1, 0))
        g = poly(4, {(1, 1, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 2): 1})
        assert semi_invariant_class(g, q) == 0

    def test_single_monomial(self):
        q = CyclicQuotientType(7, (3, 5, 2))
        assert semi_invariant_class(Polynomial.variable(3, 1), q) == 3

    def test_mixed_classes_names_offenders(self):
        q = CyclicQuotientType(2, (1, 0))
        g = poly(2, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(NotSemiInvariantError) as exc:
            semi_invariant_class(g, q)
        assert set(exc.value.monomials) == {(1, 0), (0, 1)}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(UndefinedWeightError):
            semi_invariant_class(Polynomial.zero(2), CyclicQuotientType(2, (1, 1)))

    def test_variable_count_mismatch(self):
        with pytest.raises(DimensionError, match=r"^polynomial has 3 variables, type has 2$"):
            semi_invariant_class(Polynomial.variable(3, 1), CyclicQuotientType(3, (1, 2)))

    def test_coordinates_recover_weights(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(1, 9)
            q = CyclicQuotientType(m, tuple(rng.randint(-10, 10) for _ in range(n)))
            for i in range(1, n + 1):
                assert semi_invariant_class(Polynomial.variable(n, i), q) == q.weights[i - 1]


class TestInvariantMonoidBasis:
    def test_order_two_surface(self):
        basis = invariant_monoid_basis(CyclicQuotientType(2, (1, 1)), 4)
        assert set(basis.generators) == {(2, 0), (0, 2), (1, 1)}
        assert basis.complete

    def test_trivial_group_gives_unit_vectors(self):
        basis = invariant_monoid_basis(CyclicQuotientType(1, (0, 0, 0)), 3)
        assert set(basis.generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert basis.complete

    def test_order_four(self):
        # brute-force: s1 + 3*s2 = 0 mod 4, degree <= 8, minimal under addition
        basis = invariant_monoid_basis(CyclicQuotientType(4, (1, 3)), 8)
        assert set(basis.generators) == {(4, 0), (0, 4), (1, 1)}
        assert basis.complete

    def test_incomplete_bound_flagged(self):
        basis = invariant_monoid_basis(CyclicQuotientType(2, (1, 1)), 1)
        assert not basis.complete
        assert basis.generators == ()
        # the basis of 1/3(1,1,1) is whole from bound m = 3, yet complete waits for n*m = 9
        q = CyclicQuotientType(3, (1, 1, 1))
        at_6, at_9 = invariant_monoid_basis(q, 6), invariant_monoid_basis(q, 9)
        assert at_6.generators == at_9.generators
        assert (at_6.complete, at_9.complete) == (False, True)

    def test_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(12):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            q = CyclicQuotientType(m, tuple(rng.randint(0, m - 1) for _ in range(n)))
            bound = n * m
            expected = brute_monoid_basis(q.m, q.weights, bound)
            assert set(invariant_monoid_basis(q, bound).generators) == expected

    def test_elements_are_invariant_and_minimal(self):
        q = CyclicQuotientType(6, (1, 5))
        basis = invariant_monoid_basis(q, 12)
        gen_set = set(basis.generators)
        for s in gen_set:
            assert sum(si * ai for si, ai in zip(s, q.weights)) % q.m == 0
            for u in gen_set:
                if u != s and all(ui <= si for ui, si in zip(u, s)):
                    v = tuple(si - ui for si, ui in zip(s, u))
                    assert not (any(v) and v in gen_set)

    def test_antidiagonal_family(self):
        for rm in range(2, 13):
            q = CyclicQuotientType(rm, (1, -1))
            basis = invariant_monoid_basis(q, 2 * rm)
            assert set(basis.generators) == {(rm, 0), (0, rm), (1, 1)}

    @settings(max_examples=200, deadline=None)
    @given(quotient_and_bound())
    def test_whole_basis_matches_sum_of_two_oracle(self, case):
        q, bound = case
        basis = invariant_monoid_basis(q, bound)
        assert basis == sum_of_two_monoid_basis(q, bound)
        assert all(sum(g) <= q.m for g in basis.generators)  # the Davenport bound


class TestBinomialRelation:
    def test_order_two(self):
        rel = binomial_relation_2d(CyclicQuotientType(2, (1, -1)))
        assert rel.basis[2] == (1, 1)
        assert rel.exponents == (1, 1, 2)
        assert rel.holds()

    def test_order_six(self):
        rel = binomial_relation_2d(CyclicQuotientType(6, (1, 5)))
        assert rel.basis == ((0, 6), (6, 0), (1, 1))
        assert rel.exponents == (1, 1, 6)

    def test_every_three_generator_type_up_to_order_40(self):
        cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
        cases = 0
        for m in range(1, 41):
            for weights in itertools.product(range(m), repeat=2):
                q = CyclicQuotientType(m, weights)
                basis = invariant_monoid_basis(q, 2 * m).generators
                if len(basis) != 3:
                    continue
                rel = binomial_relation_2d(q)
                u, v, w = rel.basis
                assert sorted(rel.basis) == sorted(basis)
                assert rel.holds()
                assert min(rel.exponents) > 0 and math.gcd(*rel.exponents) == 1
                assert cross(u, w) * cross(w, v) > 0  # w lies strictly between u and v
                cases += 1
        assert cases == 3340

    def test_smooth_case_unsupported(self):
        with pytest.raises(UnsupportedShapeError):
            binomial_relation_2d(CyclicQuotientType(1, (1, 1)))

    def test_wrong_dimension(self):
        with pytest.raises(UnsupportedShapeError):
            binomial_relation_2d(CyclicQuotientType(2, (1, 1, 1)))


class TestActionLiftCheck:
    def test_order_two(self):
        rep = action_lift_check(2, 1, 1)
        assert rep.ok and rep.group_order == 4
        assert rep.induced == (2, 2, 2)

    def test_order_three(self):
        rep = action_lift_check(3, 1, 1)
        assert rep.ok and rep.group_order == 9
        assert rep.induced == (3, 6, 3)  # 6 = -3 mod 9

    def test_order_three_with_m(self):
        # r*m = 6, group order r^2*m = 18; induced y-weight 30 = 12 = -6 mod 18
        rep = action_lift_check(3, 2, 1)
        assert rep.ok and rep.group_order == 18
        assert rep.induced == (6, 12, 6)

    def test_requires_coprime(self):
        with pytest.raises(InvalidInstanceError):
            action_lift_check(4, 1, 2)

    def test_requires_positive_integers(self):
        with pytest.raises(InvalidInstanceError, match=r"^r must be a positive integer, got 0$"):
            action_lift_check(0, 1, 1)

    def test_sweep(self):
        for r in range(1, 7):
            for m in range(1, 5):
                for a in range(1, r + 1):
                    if math.gcd(a, r) == 1:
                        assert action_lift_check(r, m, a).ok


class TestSectionAndLift:
    def test_drop_last(self):
        q = CyclicQuotientType(5, (1, 2, 3))
        assert section_type(q, 3) == CyclicQuotientType(5, (1, 2))

    def test_drop_middle(self):
        assert section_type(CyclicQuotientType(5, (1, 2, 3)), 2) == CyclicQuotientType(5, (1, 3))

    def test_smooth(self):
        assert section_type(CyclicQuotientType(1, (1, 1)), 1) == CyclicQuotientType(1, (1,))

    def test_lift_examples(self):
        assert lift_type(CyclicQuotientType(1, (1,)), 1) == CyclicQuotientType(1, (1, 1))
        assert lift_type(CyclicQuotientType(5, (1, 2)), 7) == CyclicQuotientType(5, (1, 2, 2))

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = rng.randint(1, 9)
            q = CyclicQuotientType(m, tuple(rng.randint(0, m - 1) for _ in range(n)))
            i = rng.randint(1, n)
            dropped = q.weights[i - 1]
            restored_weights = list(section_type(q, i).weights)
            restored_weights.insert(i - 1, dropped)
            assert CyclicQuotientType(m, tuple(restored_weights)) == q

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            section_type(CyclicQuotientType(2, (1, 1)), 3)

    def test_one_variable_type_has_no_section(self):
        with pytest.raises(DimensionError, match=r"^cannot take a section of a 1-variable type$"):
            section_type(CyclicQuotientType(3, (1,)), 1)


class TestHyperquotientType:
    def test_valid_surface(self):
        ambient = CyclicQuotientType(3, (1, -1, 1, 0))
        g = poly(4, {(1, 1, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 2): 1})
        hq = HyperquotientType(ambient, g, 0)
        assert hq.e == 0 and hq.dimension == 3
        assert hq.notation() == "1/3(1,2,1,0;0){g=x3^3+x1*x2+x4^2}"
        assert str(hq) == hq.notation()

    def test_declared_class_must_match(self):
        ambient = CyclicQuotientType(4, (1, 1))
        with pytest.raises(NotSemiInvariantError):
            HyperquotientType(ambient, poly(2, {(1, 0): 1}), 3)

    def test_zero_equation_allowed(self):
        ambient = CyclicQuotientType(2, (1, 1, 1))
        hq = HyperquotientType(ambient, Polynomial.zero(3), 1)
        assert hq.e == 0  # convention: no equation means class 0
        assert hq.dimension == 3

    def test_mixed_equation_rejected(self):
        ambient = CyclicQuotientType(2, (1, 0))
        with pytest.raises(NotSemiInvariantError):
            HyperquotientType(ambient, poly(2, {(1, 0): 1, (0, 1): 1}), 0)

    def test_variable_count_mismatch(self):
        ambient = CyclicQuotientType(3, (1, 2))
        with pytest.raises(DimensionError, match=r"^equation has 3 variables, ambient type has 2$"):
            HyperquotientType(ambient, Polynomial.variable(3, 1), 1)
