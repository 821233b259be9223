import dataclasses
import itertools
import math
import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ceil_div,
    fraction_chart_rows,
    fraction_cone_index,
    fraction_exceptional_valuation,
    fraction_fan_is_subdivision,
    fraction_strict_transform,
    invert_transform,
    random_semi_invariant,
    random_weight_system,
)
from wblow.blowup import (
    Fan,
    build_fan,
    chart,
    cone_index,
    exceptional_info,
    exceptional_valuation,
    fan_is_subdivision,
    pushforward_decomposition,
    strict_transform_in_chart,
)
from wblow.errors import (
    DimensionError,
    InvalidInstanceError,
    NotSemiInvariantError,
    OutOfDomainError,
    UndefinedWeightError,
)
from wblow.quotient import CyclicQuotientType, Polynomial
from wblow.wideal import WeightSystem, ideal_generators, monomial_weight, polynomial_weight


def poly(nvars, terms):
    return Polynomial(nvars, {k: Fraction(v) for k, v in terms.items()})


def star_record(center, m):
    """A hand-built star layout at center/m: unit rays m*e_j, cone i drops e_i and adds the center."""
    n = len(center)
    unit = tuple(tuple(m * (k == j) for k in range(n)) for j in range(n))
    cones = tuple(tuple(k for k in range(n + 1) if k != i) for i in range(n))
    return Fan(n, m, unit + (tuple(center),), cones)


REFUSED = r"^the fan record is not the star subdivision of the orthant$"


class TestBuildFan:
    def test_ordinary_plane_blowup(self):
        fan = build_fan(WeightSystem((1, 1), 1))
        assert fan.rays == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
        # cone i omits unit ray i and includes the center (index n)
        assert fan.cones == ((1, 2), (0, 2))

    def test_center_ray(self):
        fan = build_fan(WeightSystem((1, 2, 3), 1))
        assert fan.rays[-1] == (Fraction(1), Fraction(2), Fraction(3))
        assert len(fan.cones) == 3

    def test_fractional_center(self):
        fan = build_fan(WeightSystem((1, 1), 2))
        assert fan.rays[-1] == (Fraction(1, 2), Fraction(1, 2))
        assert (fan.m, fan.numerators) == (2, ((2, 0), (0, 2), (1, 1)))


class TestSubdivisionCheck:
    @pytest.mark.parametrize("weights,m", [((1, 1), 1), ((1, 2, 3), 1), ((2, 3, 5), 7), ((3, 4), 5)])
    def test_valid_fans(self, weights, m):
        assert fan_is_subdivision(build_fan(WeightSystem(weights, m)))

    def test_corrupted_center_detected(self):
        fan = build_fan(WeightSystem((1, 2), 1))
        bad_rays = fan.numerators[:-1] + (tuple(-v for v in fan.numerators[-1]),)
        corrupted = Fan(fan.n, fan.m, bad_rays, fan.cones)
        assert not fan_is_subdivision(corrupted)

    def test_degenerate_cone_detected(self):
        fan = build_fan(WeightSystem((1, 2), 1))
        # make the center equal to a unit ray: cone 1 becomes degenerate
        bad_rays = fan.numerators[:-1] + (fan.numerators[0],)
        corrupted = Fan(fan.n, fan.m, bad_rays, fan.cones)
        assert not fan_is_subdivision(corrupted)

    def test_non_star_records_refused(self):
        fan = build_fan(WeightSystem((1, 2, 3), 2))
        for corrupted in (
            Fan(fan.n, fan.m, fan.numerators, fan.cones[::-1]),  # a subdivision, cones permuted
            Fan(fan.n, fan.m, ((1, 0, 0),) + fan.numerators[1:], fan.cones),  # e_1/2 for e_1
            Fan(fan.n, 0, ((0, 0, 0),) * 3 + (fan.numerators[-1],), fan.cones),  # m = 0, rays to match
            Fan(0, fan.m, ((),), ()),  # no variables
            Fan(fan.n, fan.m, fan.numerators[:-1] + ((1, 2),), fan.cones),  # center too short
            Fan(fan.n, fan.m, fan.numerators[:-1] + ((1, 2, 3, 4),), fan.cones),  # center too long
        ):
            assert not fan_is_subdivision(corrupted)
            for i in range(1, corrupted.n + 1):
                with pytest.raises(InvalidInstanceError, match=REFUSED):
                    cone_index(corrupted, i)
            # the index range is checked before the record
            for i in (0, corrupted.n + 1):
                with pytest.raises(DimensionError, match=rf"^chart index {i} out of range 1\.\.{corrupted.n}$"):
                    cone_index(corrupted, i)


#: Largest sample grid per dimension for the oracle comparison: the Fraction
#: route solves a linear system per grid point and cone, so the grid stays
#: small enough (at most 243 points) for a hypothesis run.
ORACLE_GRID = {1: 12, 2: 6, 3: 4, 4: 2, 5: 2}


class TestAgainstFractionFanRoute:
    """The exact subdivision check against the sampled Fraction route, and the cone indices."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_route(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        weights = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n), label="weights")
        m = data.draw(st.integers(1, 6), label="m")
        if data.draw(st.booleans(), label="hand-built with a factor shared with m"):
            factor = data.draw(st.integers(2, 4), label="factor")
            fan = star_record([factor * w for w in weights], factor * m)
        else:
            fan = build_fan(WeightSystem.normalized(weights, m)[0])
        center = fan.numerators[-1]
        corruption = data.draw(st.sampled_from(["none", "negated", "unit", "zero"]), label="corruption")
        if corruption == "negated":
            center = tuple(-v for v in center)
        elif corruption == "unit":
            center = fan.numerators[data.draw(st.integers(0, n - 1), label="unit ray")]
        elif corruption == "zero":
            j = data.draw(st.integers(0, n - 1), label="zero entry")
            center = center[:j] + (0,) + center[j + 1 :]
        fan = Fan(n, fan.m, fan.numerators[:-1] + (center,), fan.cones)
        grid = data.draw(st.integers(1, ORACLE_GRID[n]), label="grid")
        assert fan_is_subdivision(fan) == fraction_fan_is_subdivision(fan, grid)
        for i in range(1, n + 1):
            if fan_is_subdivision(fan):  # a corruption can leave the record intact when n = 1
                assert cone_index(fan, i) == fraction_cone_index(fan, i)
            else:
                with pytest.raises(InvalidInstanceError, match=REFUSED):
                    cone_index(fan, i)


class TestConeIndex:
    def test_matches_chart_order(self):
        rng = random.Random(101)
        for _ in range(40):
            system = random_weight_system(rng)
            fan = build_fan(system)
            for i in range(1, system.n + 1):
                assert cone_index(fan, i) == system.weights[i - 1]

    @pytest.mark.parametrize(
        "center,m,indices",
        [((2, 6), 4, (1, 3)), ((6, 9), 2, (6, 9)), ((6, 4, 10), 6, (3, 2, 5)), ((3,), 9, (1,))],
    )
    def test_center_order_takes_the_gcd_with_m(self, center, m, indices):
        # the center has order m / gcd(m, center) modulo the unit lattice; (6, 9) over 2
        # has entries sharing 3, which m does not share
        fan = star_record(center, m)
        assert fan_is_subdivision(fan)
        got = tuple(cone_index(fan, i) for i in range(1, len(center) + 1))
        assert got == indices == tuple(fraction_cone_index(fan, i) for i in range(1, len(center) + 1))

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError, match=r"^chart index 0 out of range 1\.\.2$"):
            cone_index(build_fan(WeightSystem((1, 2), 1)), 0)

    def test_non_lattice_ray_in_a_hand_built_fan(self):
        # the first ray is e_1/2, not a lattice point: not the star layout, so refused
        fan = Fan(2, 2, ((1, 0), (0, 2), (1, 1)), ((1, 2), (0, 2)))
        for i in (1, 2):
            with pytest.raises(InvalidInstanceError, match=REFUSED):
                cone_index(fan, i)


class TestChart:
    def test_ordinary_blowup_chart(self):
        ch = chart(WeightSystem((1, 1, 1), 1), 1)
        assert ch.quotient_type.is_trivial
        assert ch.substitution == (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(1)),
        )

    def test_quotient_weights_reduced(self):
        ch = chart(WeightSystem((1, 2, 3), 1), 2)
        assert ch.quotient_type == CyclicQuotientType(2, (1, 1, 1))

    def test_group_order_with_m(self):
        ch = chart(WeightSystem((2, 3), 5), 1)
        assert ch.quotient_type == CyclicQuotientType(2, (1, 1))
        assert ch.substitution[0][0] == Fraction(2, 5)
        assert ch.substitution[1][0] == Fraction(3, 5)
        assert (ch.m, ch.numerators) == (5, ((2, 0), (3, 5)))

    def test_index_range(self):
        with pytest.raises(DimensionError):
            chart(WeightSystem((1, 1), 1), 3)


class TestChartCache:
    def test_repeated_call_returns_the_same_record(self):
        system = WeightSystem((2, 3, 5), 4)
        assert chart(system, 2) is chart(system, 2)
        assert chart(WeightSystem((2, 3, 5), 4), 2) is chart(system, 2)

    def test_group_order_is_part_of_the_key(self):
        one = chart(WeightSystem((2, 3), 1), 1)
        five = chart(WeightSystem((2, 3), 5), 1)
        assert one != five
        assert one.substitution[1][0] == 3
        assert five.substitution[1][0] == Fraction(3, 5)

    def test_bad_index_raises_on_every_call(self):
        system = WeightSystem((1, 1), 1)
        for _ in range(3):
            with pytest.raises(DimensionError):
                chart(system, 3)

    def test_cached_chart_is_frozen(self):
        system = WeightSystem((2, 3), 5)
        ch = chart(system, 1)
        assert chart(system, 1) is ch
        for name, value in (("index", 2), ("m", 1), ("numerators", ((0, 0), (0, 0)))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ch, name, value)
        assert ch.numerators == ((2, 0), (3, 5))


_SYSTEM = WeightSystem((2, 3), 1)
_F = Polynomial.variable(2, 1)


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [
        lambda i: chart(_SYSTEM, i),
        lambda i: cone_index(build_fan(_SYSTEM), i),
        lambda i: exceptional_valuation(_F, _SYSTEM, i),
        lambda i: strict_transform_in_chart(_F, _SYSTEM, i),
    ],
    ids=["chart", "cone_index", "exceptional_valuation", "strict_transform_in_chart"],
)
def test_chart_index_must_be_an_int(call, index):
    for _ in range(2):  # a refused chart index is not cached either
        with pytest.raises(InvalidInstanceError) as exc:
            call(index)
        assert str(exc.value) == f"chart index must be an integer, got {index!r}"


@st.composite
def chart_cases(draw):
    """A weight system (n 1..4, weights 1..12 with gcd 1, m 1..6), a chart and a support of 1..11 terms."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    g = math.gcd(*raw)
    system = WeightSystem(tuple(w // g for w in raw), draw(st.integers(1, 6)))
    support = draw(
        st.lists(st.tuples(*[st.integers(0, 12)] * n), min_size=1, max_size=11, unique=True)
    )
    coeffs = draw(
        st.lists(st.integers(-9, 9).filter(bool), min_size=len(support), max_size=len(support))
    )
    return system, draw(st.integers(1, n)), Polynomial(n, dict(zip(support, coeffs)))


def _typed(exponents):
    return tuple((type(v), v) for v in exponents)


class TestAgainstFractionRoute:
    """The integer-numerator chart layer against the Fraction route it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(chart_cases())
    @example((WeightSystem((1, 4, 6), 2), 1, poly(3, {(1, 2, 0): 3, (0, 1, 1): -1, (5, 0, 0): 2})))
    @example((WeightSystem((3, 6, 2), 3), 2, poly(3, {(1, 0, 4): 1, (2, 1, 0): 7})))
    @example((WeightSystem((1,), 6), 1, poly(1, {(7,): 1, (12,): -2})))
    @example((WeightSystem((5, 7, 11, 12), 6), 4, poly(4, {(1, 1, 1, 1): 1, (0, 3, 0, 2): 4})))
    def test_matches_fraction_route(self, case):
        system, i, f = case
        assert chart(system, i).substitution == fraction_chart_rows(system, i)
        assert all(
            type(v) is Fraction for row in chart(system, i).substitution for v in row
        )

        v = exceptional_valuation(f, system, i)
        assert type(v) is Fraction
        assert v == fraction_exceptional_valuation(f, system, i)

        fast = strict_transform_in_chart(f, system, i)
        slow = fraction_strict_transform(f, system, i)
        assert fast.chart_index == slow.chart_index
        assert _typed([fast.factored_exponent]) == _typed([slow.factored_exponent])
        assert [(_typed(e), c) for e, c in fast.terms] == [(_typed(e), c) for e, c in slow.terms]

    @settings(max_examples=150, deadline=None)
    @given(chart_cases(), st.data())
    @example((WeightSystem((1, 4, 6), 2), 1, poly(3, {(1, 2, 0): 3, (5, 0, 0): 2})), None)
    def test_one_polynomial_under_two_systems_in_turn(self, case, data):
        """The kept weighing follows the weight system asked for, m included."""
        first, _, f = case
        n = first.n
        if data is None:  # the explicit example: same weights over another m, then others
            others = [WeightSystem(first.weights, 5), WeightSystem((2, 1, 1), 2)]
        else:
            raw = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
            g = math.gcd(*raw)
            others = [
                WeightSystem(first.weights, data.draw(st.integers(1, 6))),
                WeightSystem(tuple(w // g for w in raw), data.draw(st.integers(1, 6))),
            ]
        same, digest = Polynomial(n, f.terms), hash(f)
        for system in [first, *others, first]:
            for i in range(1, n + 1):
                assert exceptional_valuation(f, system, i) == fraction_exceptional_valuation(
                    f, system, i
                )
                fast = strict_transform_in_chart(f, system, i)
                slow = fraction_strict_transform(f, system, i)
                assert fast.factored_exponent == slow.factored_exponent
                assert [(_typed(e), c) for e, c in fast.terms] == [
                    (_typed(e), c) for e, c in slow.terms
                ]
            assert f._weighed[:2] == (system.weights, system.m)
            assert f == same and hash(f) == digest and f.terms == same.terms

    def test_dimension_mismatch_rejected_like_the_fraction_route(self):
        system = WeightSystem((1, 2), 3)
        f = poly(3, {(1, 0, 2): 1})
        for fn in (exceptional_valuation, strict_transform_in_chart):
            with pytest.raises(DimensionError):
                fn(f, system, 1)
        with pytest.raises(DimensionError):
            fraction_exceptional_valuation(f, system, 1)


class TestExceptionalValuation:
    def test_coordinates(self):
        system = WeightSystem((2, 3, 5), 4)
        for j in range(1, 4):
            f = Polynomial.variable(3, j)
            for i in range(1, 4):
                assert exceptional_valuation(f, system, i) == Fraction(system.weights[j - 1], 4)

    def test_weighted_monomial(self):
        f = poly(2, {(2, 1): 1})
        for i in (1, 2):
            assert exceptional_valuation(f, WeightSystem((2, 3), 1), i) == 7

    def test_surface_equation(self):
        f = poly(3, {(1, 1, 0): 1, (0, 0, 3): 1})
        system = WeightSystem((1, 2, 1), 3)
        assert all(exceptional_valuation(f, system, i) == 1 for i in (1, 2, 3))

    def test_zero_rejected(self):
        with pytest.raises(UndefinedWeightError):
            exceptional_valuation(Polynomial.zero(2), WeightSystem((1, 1), 1), 1)

    def test_chart_index_checked_after_the_weight(self):
        system = WeightSystem((2, 3), 1)
        for i in (0, 3):
            with pytest.raises(DimensionError, match=rf"^chart index {i} out of range 1\.\.2$"):
                exceptional_valuation(Polynomial.variable(2, 1), system, i)
        with pytest.raises(UndefinedWeightError):
            exceptional_valuation(Polynomial.zero(2), system, 3)

    def test_agrees_with_weight_on_random_suite(self):
        rng = random.Random(55)
        for _ in range(40):
            system = random_weight_system(rng, n_choices=(2, 3), max_a=8, max_m=6)
            f = random_semi_invariant(rng, system)
            expected = polynomial_weight(f, system)
            for i in range(1, system.n + 1):
                assert exceptional_valuation(f, system, i) == expected


class TestPushforward:
    def test_coordinate_hyperplane(self):
        system = WeightSystem((3, 5), 2)
        report = pushforward_decomposition(Polynomial.variable(2, 1), system)
        assert report.multiplicity == Fraction(3, 2)

    def test_unit_weight_form(self):
        system = WeightSystem((1, 1, 1), 1)
        f = poly(3, {(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 7})
        assert pushforward_decomposition(f, system).multiplicity == 1

    def test_surface_equation(self):
        system = WeightSystem((1, 2, 1), 3)
        f = poly(3, {(1, 1, 0): 1, (0, 0, 3): 1})
        report = pushforward_decomposition(f, system)
        assert report.multiplicity == 1
        assert report.eigenvalue_class == 0

    def test_levels_attach_ideals(self):
        system = WeightSystem((1, 2), 1)
        report = pushforward_decomposition(Polynomial.variable(2, 2), system, a_max=3)
        assert [rec.a for rec in report.records] == [0, 1, 2, 3]
        for rec in report.records:
            assert rec.ideal == ideal_generators(system, Fraction(rec.a))

    def test_rejects_mixed_classes(self):
        system = WeightSystem((1, 2), 2)
        with pytest.raises(NotSemiInvariantError):
            pushforward_decomposition(poly(2, {(1, 0): 1, (0, 1): 1}), system)


class TestStrictTransform:
    def test_node_in_ordinary_blowup(self):
        g = poly(2, {(2, 0): 1, (0, 2): 1})
        teq = strict_transform_in_chart(g, WeightSystem((1, 1), 1), 1)
        assert teq.factored_exponent == 2
        assert teq.term_dict() == {(0, 0): Fraction(1), (0, 2): Fraction(1)}
        # restriction to the divisor keeps both terms of the residual
        assert dict(teq.divisor_restriction()) == teq.term_dict()

    def test_refusals_in_order(self):
        # a zero equation first, then the chart index, then the variable count
        system = WeightSystem((2, 3), 1)
        with pytest.raises(UndefinedWeightError):
            strict_transform_in_chart(Polynomial.zero(3), system, 3)
        for i in (0, 3):
            with pytest.raises(DimensionError, match=rf"^chart index {i} out of range 1\.\.2$"):
                strict_transform_in_chart(Polynomial.variable(3, 1), system, i)
        with pytest.raises(DimensionError, match=r"^exponent length 3 does not match chart dimension 2$"):
            strict_transform_in_chart(Polynomial.variable(3, 1), system, 1)

    def test_monomial_becomes_unit_times_barred(self):
        g = poly(2, {(1, 2): 5})
        teq = strict_transform_in_chart(g, WeightSystem((2, 3), 1), 1)
        assert teq.factored_exponent == 8
        assert teq.term_dict() == {(0, 2): Fraction(5)}

    def test_weight_one_surface(self):
        # 4-variable equation with weights arranged so the equation has weight 1
        g = poly(4, {(1, 1, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 2): 1})
        system = WeightSystem((1, 2, 1, 2), 3)
        assert polynomial_weight(g, system) == 1
        teq = strict_transform_in_chart(g, system, 1)
        assert teq.factored_exponent == 1
        restriction = teq.divisor_restriction()
        assert len(restriction) >= 1

    def test_residual_minimum_is_zero_and_inverts(self):
        rng = random.Random(77)
        for _ in range(30):
            system = random_weight_system(rng, n_choices=(2, 3), max_a=6, max_m=5)
            f = random_semi_invariant(rng, system)
            i = rng.randint(1, system.n)
            teq = strict_transform_in_chart(f, system, i)
            i0 = i - 1
            assert min(Fraction(e[i0]) for e, _ in teq.terms) == 0
            assert invert_transform(teq, system) == f

    def test_fractional_exponent_only_in_the_chart_coordinate(self):
        g = poly(3, {(1, 0, 1): 1, (0, 2, 0): -1})
        teq = strict_transform_in_chart(g, WeightSystem((1, 1, 2), 3), 2)
        assert teq.factored_exponent == Fraction(2, 3)
        types = [tuple(map(type, e)) for e, _ in teq.terms]
        assert types == [(int, int, int), (int, Fraction, int)]
        assert teq.terms == (((0, 0, 0), Fraction(-1)), ((1, Fraction(1, 3), 1), Fraction(1)))


class TestExceptionalInfo:
    def test_basic(self):
        info = exceptional_info(WeightSystem((1, 2, 3), 1))
        assert info.lcm == 6
        assert info.cartier_generator == "H = -6E"
        assert info.projective_space == "P(1,2,3)"
        assert info.restriction(6) == "O_P(6)"

    def test_smooth(self):
        info = exceptional_info(WeightSystem((1, 1), 1))
        assert info.lcm == 1 and info.cartier_generator == "H = -1E"

    def test_restriction_scales_with_group_order(self):
        info = exceptional_info(WeightSystem((2, 3), 5))
        assert info.restriction(6) == "O_P(30)"

    def test_restriction_domain(self):
        info = exceptional_info(WeightSystem((2, 3), 5))
        with pytest.raises(OutOfDomainError):
            info.restriction(4)

    def test_vanishing_is_recorded_not_computed(self):
        info = exceptional_info(WeightSystem((1, 2), 1))
        assert "recorded fact" in info.vanishing_fact


class TestPushforwardMonomialIdentity:
    def test_small_system(self):
        # order >= a along the divisor (chart route) vs membership in the
        # level-a ideal (divisibility route), on the whole generator box
        system = WeightSystem((1, 2), 2)
        M = system.lcm
        for a in range(0, 3 * M + 1):
            ideal = ideal_generators(system, Fraction(a))
            caps = [ceil_div(a * system.m, w) + 1 for w in system.weights]
            for s in itertools.product(*[range(c + 1) for c in caps]):
                by_ideal = ideal.contains_monomial(s)
                by_weight = monomial_weight(s, system) >= a
                assert by_ideal == by_weight
                if any(s):
                    mono = Polynomial.monomial(s)
                    orders = {
                        exceptional_valuation(mono, system, i)
                        for i in range(1, system.n + 1)
                    }
                    assert len(orders) == 1
                    assert (orders.pop() >= a) == by_ideal
