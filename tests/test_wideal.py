import itertools
import json
import math
import operator
import random
import re
import tracemalloc

import jsonschema
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

import wblow.wideal as wideal_mod
from helpers import (
    brute_min_gens,
    brute_upset_in_box,
    ceil_div,
    staircase_min_gens,
    sums_power_vs_truncation,
    sums_stable_b,
)
from wblow.cli import REPORT_SCHEMA, main
from wblow.errors import (
    DimensionError,
    EnumerationLimitError,
    InternalConsistencyError,
    InvalidInstanceError,
    InvalidWeightsError,
    UndefinedWeightError,
)
from wblow.quotient import Polynomial
from wblow.wideal import (
    WeightSystem,
    _compare_power_vs_truncation,
    _power_split,
    contains,
    count_below,
    find_stable_b,
    ideal_generators,
    minimal_generators_numerator,
    monomial_weight,
    polynomial_weight,
    product_vs_truncation,
)


def poly(nvars, terms):
    return Polynomial(nvars, {k: Fraction(v) for k, v in terms.items()})


class TestWeightSystem:
    def test_rejects_common_factor(self):
        with pytest.raises(InvalidWeightsError):
            WeightSystem((2, 4), 1)

    @pytest.mark.parametrize("m", [True, False, 0, 2.0])
    def test_group_order_refusals(self, m):
        # a bool is an int, but 1/True(1,2) does not parse back
        with pytest.raises(
            InvalidWeightsError, match=rf"^group order must be a positive integer, got {m!r}$"
        ):
            WeightSystem((1, 2), m)

    def test_normalized_reports_factor(self):
        system, factor = WeightSystem.normalized((2, 4), 3)
        assert system == WeightSystem((1, 2), 3) and factor == 2

    def test_lcm(self):
        assert WeightSystem((2, 3), 5).lcm == 6

    def test_str_is_the_notation(self):
        system = WeightSystem((2, 3), 5)
        assert str(system) == system.notation() == "1/5(2,3)"


class TestMonomialWeight:
    def test_single_variable(self):
        system = WeightSystem((3, 5, 7), 4)
        assert monomial_weight((0, 1, 0), system) == Fraction(5, 4)

    def test_total_degree_when_unit_weights(self):
        system = WeightSystem((1, 1, 1), 1)
        assert monomial_weight((2, 0, 5), system) == 7

    def test_mixed(self):
        assert monomial_weight((1, 1, 0), WeightSystem((1, 2, 3), 5)) == Fraction(3, 5)

    def test_dimension_check(self):
        from wblow.errors import DimensionError

        with pytest.raises(DimensionError):
            monomial_weight((1, 1), WeightSystem((1, 2, 3), 1))


class TestPolynomialWeight:
    def test_minimum_over_support(self):
        f = poly(2, {(2, 0): 1, (0, 1): 1})
        assert polynomial_weight(f, WeightSystem((1, 1), 2)) == Fraction(1, 2)

    def test_single_monomial(self):
        f = poly(2, {(3, 1): -2})
        assert polynomial_weight(f, WeightSystem((2, 3), 1)) == 9

    def test_surface_equation(self):
        f = poly(3, {(1, 1, 0): 1, (0, 0, 3): 1})
        assert polynomial_weight(f, WeightSystem((1, 2, 1), 3)) == 1

    def test_zero_rejected(self):
        with pytest.raises(UndefinedWeightError):
            polynomial_weight(Polynomial.zero(2), WeightSystem((1, 1), 1))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_superadditive(self, data):
        n = data.draw(st.integers(1, 3))
        weights = data.draw(
            st.tuples(*[st.integers(1, 8) for _ in range(n)]).filter(
                lambda w: math.gcd(*w) == 1
            )
        )
        m = data.draw(st.integers(1, 6))
        system = WeightSystem(weights, m)
        exps = st.tuples(*[st.integers(0, 5) for _ in range(n)])
        coeffs = st.integers(-4, 4).filter(lambda c: c != 0)
        make = st.dictionaries(exps, coeffs, min_size=1, max_size=3)
        f = Polynomial(n, {k: Fraction(v) for k, v in data.draw(make).items()})
        g = Polynomial(n, {k: Fraction(v) for k, v in data.draw(make).items()})
        if (f * g).is_zero:
            return
        assert polynomial_weight(f * g, system) >= polynomial_weight(f, system) + polynomial_weight(g, system)
        if len(f.support()) == 1 and len(g.support()) == 1:
            assert polynomial_weight(f * g, system) == polynomial_weight(
                f, system
            ) + polynomial_weight(g, system)


@st.composite
def staircase_case(draw):
    # t up to 200, capped so the first n - 1 entries span at most 5,000
    # points: that box bounds the staircase both walks visit
    n = draw(st.integers(1, 5))
    weights = tuple(draw(st.integers(1, 12)) for _ in range(n))
    t_max = 200
    while t_max > 0 and math.prod(t_max // a + 1 for a in weights[:-1]) > 5000:
        t_max -= 1
    return weights, draw(st.integers(-2, t_max))


@st.composite
def deep_staircase_case(draw):
    # n 6-9 puts 4-7 levels on the walk's stack; t is capped by a 20,000-point box
    n = draw(st.integers(6, 9))
    weights = tuple(draw(st.integers(1, 12)) for _ in range(n))
    t_max = 80
    while t_max > 0 and math.prod(t_max // a + 1 for a in weights[:-1]) > 20000:
        t_max -= 1
    return weights, draw(st.integers(-2, t_max))


class TestIdealGenerators:
    def test_square_of_maximal_ideal(self):
        ideal = ideal_generators(WeightSystem((1, 1), 1), 2)
        assert set(ideal.gens) == {(2, 0), (1, 1), (0, 2)}

    def test_heavier_variable_alone(self):
        ideal = ideal_generators(WeightSystem((1, 2), 1), 2)
        assert set(ideal.gens) == {(2, 0), (0, 1)}

    def test_two_three(self):
        ideal = ideal_generators(WeightSystem((2, 3), 1), 6)
        assert set(ideal.gens) == {(3, 0), (2, 1), (0, 2)}

    def test_nonpositive_threshold_is_unit(self):
        assert ideal_generators(WeightSystem((1, 2), 1), 0).gens == ((0, 0),)
        assert ideal_generators(WeightSystem((1, 2), 1), Fraction(-3, 2)).gens == ((0, 0),)

    def test_fractional_threshold_exact(self):
        # k = 5/2 with m = 2: numerator cutoff is exactly 5
        ideal = ideal_generators(WeightSystem((1, 2), 2), Fraction(5, 2))
        assert ideal.threshold_numerator == 5
        assert set(ideal.gens) == set(minimal_generators_numerator((1, 2), 5))

    def test_ordering_by_weight_then_lex(self):
        ideal = ideal_generators(WeightSystem((2, 3), 1), 6)
        assert ideal.gens == ((0, 2), (3, 0), (2, 1))

    def test_against_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 3)
            while True:
                weights = tuple(rng.randint(1, 7) for _ in range(n))
                if math.gcd(*weights) == 1:
                    break
            t = rng.randint(1, 18)
            assert set(minimal_generators_numerator(weights, t)) == brute_min_gens(weights, t)

    @settings(max_examples=300, deadline=None)
    @given(staircase_case())
    def test_flat_walk_matches_recursive_oracle(self, case):
        weights, t = case
        assert minimal_generators_numerator(weights, t) == staircase_min_gens(weights, t)

    @settings(max_examples=150, deadline=None)
    @given(deep_staircase_case())
    def test_deep_walk_matches_recursive_oracle(self, case):
        weights, t = case
        assert minimal_generators_numerator(weights, t) == staircase_min_gens(weights, t)

    def test_eleven_hundred_variables(self, monkeypatch):
        # 1,098 levels on the walk's stack, past the interpreter's recursion limit;
        # the nominal box 2^1100 needs a raised cap
        monkeypatch.setenv("WBLOW_MAX_ENUM", str(10**400))
        n = 1100
        ideal = ideal_generators(WeightSystem((1,) * n, 1), 1)
        assert ideal.gens == tuple(tuple(int(i == j) for i in range(n)) for j in reversed(range(n)))

    @pytest.mark.parametrize(
        "weights, t, gens",
        [
            ((3,), 7, ((3,),)),  # n = 1: the one crossing
            ((5,), 10, ((2,),)),
            ((2, 3, 5), 0, ((0, 0, 0),)),  # t <= 0: the unit ideal
            ((2, 3, 5), -2, ((0, 0, 0),)),
            ((4, 6, 9), 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),  # t below every weight
            ((1, 3), 5, ((2, 1), (5, 0), (0, 2))),  # a weight 1, and lex order at equal weight
            ((1, 1, 2), 2, ((0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))),
        ],
    )
    def test_explicit_cases(self, weights, t, gens):
        assert minimal_generators_numerator(weights, t) == gens
        assert gens == staircase_min_gens(weights, t)
        assert set(gens) == brute_min_gens(weights, t)

    def test_storage_follows_the_generators_not_the_largest_weight(self):
        # the box (1 + 1) * (1 + 1) is tiny, so the walk must not allocate per unit of 10^6
        tracemalloc.start()
        try:
            gens = minimal_generators_numerator((1, 10**6), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gens == ((1, 0), (0, 1))
        assert peak < 100_000

    def test_generated_set_matches_definition(self):
        system = WeightSystem((2, 5), 3)
        k = Fraction(7, 3)
        ideal = ideal_generators(system, k)
        caps = [ceil_div(7, w) + 1 for w in system.weights]
        for s in itertools.product(*[range(c + 1) for c in caps]):
            in_ideal = monomial_weight(s, system) >= k
            assert ideal.contains_monomial(s) == in_ideal

    @pytest.mark.parametrize("s", [(1, 2), (1, 2, 3, 4)])
    def test_membership_query_of_wrong_length(self, s):
        ideal = ideal_generators(WeightSystem((1, 2, 3), 1), 4)
        with pytest.raises(DimensionError, match=f"lengths 3 and {len(s)}"):
            ideal.contains_monomial(s)

    def test_minimality_removal_loses_monomials(self):
        ideal = ideal_generators(WeightSystem((2, 3), 1), 6)
        for g in ideal.gens:
            others = [h for h in ideal.gens if h != g]
            assert not any(all(hi <= gi for hi, gi in zip(h, g)) for h in others)


class TestContains:
    def test_threshold_and_divisibility_agree(self):
        system = WeightSystem((2, 3), 1)
        ideal = ideal_generators(system, 6)
        assert contains(ideal, poly(2, {(2, 1): 1, (0, 2): -1}))
        assert not contains(ideal, poly(2, {(1, 0): 1}))

    def test_zero_contained(self):
        ideal = ideal_generators(WeightSystem((1, 1), 1), 3)
        assert contains(ideal, Polynomial.zero(2))

    def test_variable_count_mismatch(self):
        ideal = ideal_generators(WeightSystem((1, 2), 1), 1)
        with pytest.raises(DimensionError, match=r"^polynomial has 3 variables, ideal lives in 2$"):
            contains(ideal, Polynomial.variable(3, 1))

    def test_single_light_variable(self):
        ideal = ideal_generators(WeightSystem((1, 4), 2), Fraction(3, 2))
        assert not contains(ideal, Polynomial.variable(2, 1))

    def test_routes_that_disagree_raise(self, monkeypatch):
        ideal = ideal_generators(WeightSystem((2, 3), 1), 6)
        monkeypatch.setattr(wideal_mod, "polynomial_weight", lambda f, system: Fraction(0))
        with pytest.raises(InternalConsistencyError, match="^membership routes disagree for x1\\^3"):
            contains(ideal, poly(2, {(3, 0): 1}))

    def test_fuzz_routes_agree(self):
        # contains() raises InternalConsistencyError itself if routes split;
        # this fuzz drives it across random systems and polynomials.
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 4)
            while True:
                weights = tuple(rng.randint(1, 10) for _ in range(n))
                if math.gcd(*weights) == 1:
                    break
            system = WeightSystem(weights, rng.randint(1, 8))
            # keep the numerator cutoff small so generator boxes stay tiny
            ideal = ideal_generators(system, Fraction(rng.randint(0, 18), system.m))
            f = Polynomial(
                n,
                {
                    tuple(rng.randint(0, 5) for _ in range(n)): Fraction(rng.choice([-2, 1, 3]))
                    for _ in range(rng.randint(1, 4))
                },
            )
            if f.is_zero:
                continue
            contains(ideal, f)

    def test_nesting(self):
        system = WeightSystem((3, 4), 2)
        small = ideal_generators(system, Fraction(5, 2))
        large = ideal_generators(system, Fraction(9, 2))
        for g in large.gens:
            assert small.contains_monomial(g)


class TestProductVsTruncation:
    def test_maximal_ideal_powers(self):
        system = WeightSystem((1, 1, 1), 1)
        for d in (2, 3):
            report = product_vs_truncation(system, 1, d)
            assert report.equal and report.containment_ok and report.witness is None

    def test_two_three_level_six(self):
        report = product_vs_truncation(WeightSystem((2, 3), 1), 6, 2)
        assert report.equal
        assert set(report.truncation.gens) == {(6, 0), (5, 1), (3, 2), (2, 3), (0, 4)}

    def test_b_must_be_step_multiple(self):
        with pytest.raises(InvalidInstanceError):
            product_vs_truncation(WeightSystem((2, 3), 1), 5, 2)
        with pytest.raises(InvalidInstanceError):
            product_vs_truncation(WeightSystem((2, 3), 1), Fraction(-6), 2)
        with pytest.raises(InvalidInstanceError):
            product_vs_truncation(WeightSystem((2, 3), 1), 0, 2)

    def test_d_lower_bound(self):
        with pytest.raises(InvalidInstanceError):
            product_vs_truncation(WeightSystem((1, 1), 1), 1, 1)

    def test_sweep_small_systems_equal_and_contained(self):
        # Search swept in development: for 2-variable systems with entries
        # up to 7 and b in {M, 2M} (in weight units, any m), d in {2, 3},
        # the two ideals always coincide; containment must never fail.
        for a1 in range(1, 8):
            for a2 in range(1, 8):
                if math.gcd(a1, a2) != 1:
                    continue
                for m in (1, 3):
                    system = WeightSystem((a1, a2), m)
                    step = Fraction(system.lcm, m)
                    for c in (1, 2):
                        for d in (2, 3):
                            report = product_vs_truncation(system, c * step, d)
                            assert report.containment_ok
                            assert report.equal, (a1, a2, m, c, d)

    def test_witness_machinery_on_non_step_threshold(self):
        # The comparison core accepts arbitrary integer thresholds; away from
        # multiples of the lcm strictness does occur and must be witnessed.
        system = WeightSystem((2, 3), 1)
        trunc, power, equal, witness, ok = _compare_power_vs_truncation(system, 1, 2)
        assert ok and not equal
        assert witness == (1, 0)  # first truncation generator in (weight, lex) order
        assert witness in trunc
        assert not any(all(pi <= wi for pi, wi in zip(p, witness)) for p in power)


#: I_30^d != I_{30d} for these weights (m = 1); the ideals first agree from b = 60 on.
UNEQUAL = WeightSystem((6, 10, 15, 1), 1)


def assert_exit_3(capsys, message):
    """`truncation` on UNEQUAL at b = 30, d = 2 gives the internal-consistency report, exit 3."""
    argv = ["truncation", "1/1(6,10,15,1)", "--b", "30", "--d", "2", "--format", "json"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["error"] == {"kind": "internal-consistency", "message": message}


def report_tuple(report):
    return (report.truncation.gens, report.power_gens, report.equal, report.witness, report.containment_ok)


def sums_over(weights, t_b, d, cap=20_000):
    return math.comb(len(staircase_min_gens(weights, t_b)) + d - 1, d) > cap


class TestPowerByMembership:
    """The membership sweep against the d-fold-sum oracle, order of generators included."""

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        m=st.integers(1, 3),
        c=st.integers(1, 2),
        d=st.integers(2, 3),
    )
    def test_matches_the_sums_oracle(self, weights, m, c, d):
        assume(math.gcd(*weights) == 1)
        system = WeightSystem(weights, m)
        t_b = c * system.lcm
        assume(not sums_over(weights, t_b, d))
        report = product_vs_truncation(system, Fraction(t_b, m), d)
        assert report_tuple(report) == sums_power_vs_truncation(weights, t_b, d)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        t_b=st.integers(1, 40),
        d=st.integers(2, 3),
    )
    def test_any_threshold_matches_the_sums_oracle(self, weights, t_b, d):
        # away from multiples of the lcm the ideals often differ, at d or below
        assume(math.gcd(*weights) == 1 and not sums_over(weights, t_b, d))
        got = _compare_power_vs_truncation(WeightSystem(weights, 1), t_b, d)
        assert got == sums_power_vs_truncation(weights, t_b, d)

    @pytest.mark.parametrize("d, witness", [(2, (4, 2, 1, 1)), (3, (4, 2, 3, 1))])
    def test_unequal_system_keeps_its_witness(self, d, witness):
        report = product_vs_truncation(UNEQUAL, 30, d)
        assert not report.equal and report.containment_ok
        assert report.witness == witness
        assert report_tuple(report) == sums_power_vs_truncation(UNEQUAL.weights, 30, d)

    def test_equal_ideals_never_walk_level_b(self, monkeypatch):
        walked = []
        real = wideal_mod.minimal_generators_numerator
        monkeypatch.setattr(
            wideal_mod, "minimal_generators_numerator", lambda w, t: walked.append(t) or real(w, t)
        )
        assert product_vs_truncation(WeightSystem((2, 3), 1), 6, 3).equal
        assert walked == [18, 12]
        walked.clear()
        assert not product_vs_truncation(UNEQUAL, 30, 2).equal
        assert walked == [60, 30]

    def test_a_refusal_names_the_level_db_box(self, monkeypatch):
        # the level-2b box, 601 * 401 points, is charged first; level b (60,501) is never walked
        monkeypatch.setenv("WBLOW_MAX_ENUM", "1000")
        with pytest.raises(EnumerationLimitError, match="needs 241001 enumeration steps"):
            product_vs_truncation(WeightSystem((2, 3), 1), 600, 2)

    def test_dropped_truncation_generator_is_caught(self, monkeypatch, capsys):
        # a minimal generator of I_60 that the power also holds, left out of the level-60
        # walk: the power then holds a monomial that weighs 60 but no generator divides
        trunc, power = sums_power_vs_truncation(UNEQUAL.weights, 30, 2)[:2]
        dropped = next(g for g in trunc if g in power)
        real = wideal_mod.minimal_generators_numerator
        monkeypatch.setattr(
            wideal_mod, "minimal_generators_numerator",
            lambda w, t: tuple(g for g in real(w, t) if t != 60 or g != dropped),
        )
        with pytest.raises(InternalConsistencyError, match="^containment routes disagree"):
            product_vs_truncation(UNEQUAL, 30, 2)
        assert_exit_3(capsys, "containment routes disagree in power-vs-truncation")

    def test_witnesses_that_disagree_raise(self, monkeypatch, capsys):
        # the membership sweep made to name the first truncation generator instead
        monkeypatch.setattr(wideal_mod, "_first_power_gap", lambda weights, t, d, top=None: (d, top[0]))
        message = (
            "the d-fold sums give the witness (4, 2, 1, 1), the membership sweep (0, 0, 0, 60)"
            " at level 2"
        )
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
            product_vs_truncation(UNEQUAL, 30, 2)
        assert_exit_3(capsys, message)

    def test_unequal_system_is_stable_from_60(self):
        assert find_stable_b(UNEQUAL, 3, 8) == 60
        assert find_stable_b(UNEQUAL, 2, 8) == 60 == sums_stable_b(UNEQUAL, 2, 8)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
        m=st.integers(1, 3),
        d_max=st.integers(2, 3),
        limit=st.integers(1, 3),
    )
    def test_find_stable_b_matches_a_per_d_loop(self, weights, m, d_max, limit):
        assume(math.gcd(*weights) == 1)
        assume(not sums_over(weights, limit * math.lcm(*weights), d_max))
        system = WeightSystem(weights, m)
        assert find_stable_b(system, d_max, limit) == sums_stable_b(system, d_max, limit)

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 7)), min_size=1, max_size=4),
        lo=st.integers(0, 40),
        width=st.integers(-2, 8),
    )
    def test_split_against_every_h(self, pairs, lo, width):
        g, weights = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        hi = lo + width
        h = _power_split(g, weights, lo, hi)
        every_h = itertools.product(*(range(gi + 1) for gi in g))
        exists = any(lo <= sum(map(operator.mul, x, weights)) <= hi for x in every_h)
        assert (h is not None) == exists
        if h is not None:
            assert len(h) == len(g) and all(map(operator.le, h, g))
            assert lo <= sum(map(operator.mul, h, weights)) <= hi

    @pytest.mark.parametrize(
        "bad_split",
        [
            lambda g: (0,) * len(g),  # weight below t
            lambda g: g,  # leaves a rest of weight 0
            lambda g: (g[0] + 1,) + g[1:],  # does not divide g
            lambda g: g[:-1],  # wrong length
        ],
        ids=["light", "whole", "not-below-g", "short"],
    )
    def test_a_bad_split_is_caught(self, monkeypatch, bad_split):
        monkeypatch.setattr(wideal_mod, "_power_split", lambda g, weights, lo, hi: bad_split(g))
        with pytest.raises(InternalConsistencyError, match="split"):
            product_vs_truncation(WeightSystem((2, 3), 1), 6, 2)
        with pytest.raises(InternalConsistencyError, match="split"):
            find_stable_b(WeightSystem((2, 3), 1), 2, 8)


class TestFindStableB:
    def test_unit_weights(self):
        assert find_stable_b(WeightSystem((1, 1, 1), 1), 2, 8) == 1

    def test_one_two(self):
        assert find_stable_b(WeightSystem((1, 2), 1), 3, 8) == 2

    def test_two_three(self):
        assert find_stable_b(WeightSystem((2, 3), 1), 2, 8) == 6

    def test_scaled_by_group_order(self):
        assert find_stable_b(WeightSystem((2, 3), 2), 2, 8) == 3


class TestCountBelow:
    def test_plane(self):
        assert count_below(WeightSystem((1, 1), 1), 2) == 3

    def test_zero_threshold(self):
        assert count_below(WeightSystem((1, 1), 1), 0) == 0

    def test_three_variables(self):
        assert count_below(WeightSystem((1, 2, 3), 1), 3) == 4

    def test_invariant_only(self):
        system = WeightSystem((1, 1), 2)
        # weights below 2 means numerator < 4: (0,0),(1,0),(0,1),(2,0),(1,1),
        # (0,2),(3,0),(2,1),(1,2),(0,3); invariants have even sum
        assert count_below(system, 2) == 10
        assert count_below(system, 2, invariant_only=True) == 4

    def test_matches_box_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 3)
            while True:
                weights = tuple(rng.randint(1, 6) for _ in range(n))
                if math.gcd(*weights) == 1:
                    break
            system = WeightSystem(weights, rng.randint(1, 6))
            k = Fraction(rng.randint(1, 10), rng.randint(1, 3))
            caps = [math.ceil(k * system.m / w) + 1 for w in weights]
            below = [
                s
                for s in itertools.product(*[range(c + 1) for c in caps])
                if monomial_weight(s, system) < k
            ]
            invariant = [
                s for s in below if sum(map(operator.mul, s, weights)) % system.m == 0
            ]
            assert count_below(system, k) == len(below)
            assert count_below(system, k, invariant_only=True) == len(invariant)

    def test_beyond_the_nominal_box(self):
        # weight numerators below 26*5 = 130; the box of (131)^2 * (66)^2 =
        # 74,753,316 points is over the default cap, the count is not.  With
        # 2(s3 + s4) = 2j < 130, the unit-weight pair has r(r+1)/2 choices
        # for r = 130 - 2j, and j + 1 pairs (s3, s4) have s3 + s4 = j.
        expected = sum((j + 1) * (130 - 2 * j) * (131 - 2 * j) // 2 for j in range(65))
        assert count_below(WeightSystem((1, 1, 2, 2), 5), 26) == expected
