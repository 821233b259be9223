import itertools
import operator

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from helpers import prefix_for_weight
from wblow.arith import (
    add_multiples,
    divides,
    expvec,
    lcm_of,
    lex_least,
    normalize_weights,
    vec_add,
)
from wblow.errors import DimensionError, InternalConsistencyError, InvalidWeightsError


class TestNormalizeWeights:
    def test_extracts_gcd(self):
        assert normalize_weights((2, 4, 6)) == ((1, 2, 3), 2)

    def test_already_normalized(self):
        assert normalize_weights((1, 2, 3)) == ((1, 2, 3), 1)

    def test_two_entries(self):
        assert normalize_weights((10, 15)) == ((2, 3), 5)

    @pytest.mark.parametrize("bad", [(), (0, 1), (-2, 4), (1, "x")])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(InvalidWeightsError):
            normalize_weights(bad)

    @given(st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6))
    def test_idempotent(self, weights):
        reduced, factor = normalize_weights(weights)
        again, factor2 = normalize_weights(reduced)
        assert again == reduced and factor2 == 1
        assert tuple(w * factor for w in reduced) == tuple(weights)


class TestLcm:
    def test_basic(self):
        assert lcm_of((1, 2, 3)) == 6
        assert lcm_of((4, 6)) == 12

    def test_identical_entries(self):
        assert lcm_of((7, 7, 7)) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeightsError):
            lcm_of((3, 0))


class TestDivides:
    def test_examples(self):
        assert divides((1, 0), (2, 1))
        assert not divides((2, 0), (1, 5))
        assert divides((0, 0, 0), (4, 1, 9))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            divides((1, 0), (1, 0, 0))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=3))
    def test_partial_order(self, triple):
        s, t, u = triple
        assert divides(s, s)
        if divides(s, t) and divides(t, s):
            assert s == t
        if divides(s, t) and divides(t, u):
            assert divides(s, u)


entries = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 6)), min_size=1, max_size=4)


class TestAddMultiples:
    """The shift-and-or bitset against brute-force representability."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=entries, hi=st.integers(0, 80))
    @example(pairs=[(1, 0)], hi=5)  # a zero cap adds nothing
    @example(pairs=[(3, 6), (2, 6)], hi=5)  # caps above hi // w
    @example(pairs=[(7, 3)], hi=6)  # a weight above hi
    @example(pairs=[(6, 12), (10, 12), (12, 12)], hi=80)  # no sum is odd
    def test_matches_brute_force(self, pairs, hi):
        reach = 1
        for w, c in pairs:
            reach = add_multiples(reach, w, c, hi)
        box = itertools.product(*(range(c + 1) for _, c in pairs))
        sums = {sum(t * w for t, (w, _) in zip(h, pairs)) for h in box}
        assert {v for v in range(hi + 1) if reach >> v & 1} == {v for v in sums if v <= hi}
        assert reach >> (hi + 1) == 0


class TestLexLeast:
    """The bounded subset sum against the whole box h <= caps and the former witness builder."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=entries, lo=st.integers(-5, 60), width=st.integers(-3, 20))
    @example(pairs=[(2, 3), (3, 3)], lo=7, width=-1)  # hi < lo
    @example(pairs=[(2, 3), (3, 3)], lo=-4, width=6)  # lo <= 0: the zero vector
    @example(pairs=[(2, 3), (3, 3)], lo=-4, width=2)  # hi < 0
    @example(pairs=[(1, 0), (5, 2)], lo=3, width=0)  # a zero cap
    @example(pairs=[(4, 6)], lo=9, width=3)  # a single entry
    @example(pairs=[(3, 6), (2, 6)], lo=5, width=0)  # caps above hi // w
    def test_matches_the_box(self, pairs, lo, width):
        weights, caps = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        hi = lo + width
        box = itertools.product(*(range(c + 1) for c in caps))  # in lexicographic order
        fits = (h for h in box if lo <= sum(map(operator.mul, h, weights)) <= hi)
        assert lex_least(weights, caps, lo, hi) == next(fits, None)

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple),
           target=st.integers(0, 60))
    @example(weights=(5,), target=10)
    @example(weights=(4, 6), target=7)  # not a sum of the weights
    def test_matches_the_former_witness_builder(self, weights, target):
        got = lex_least(weights, [target // w for w in weights], target, target)
        if got is None:
            with pytest.raises(InternalConsistencyError):
                prefix_for_weight(weights, target)
        else:
            assert got == prefix_for_weight(weights, target)


class TestExpVec:
    def test_validates(self):
        assert expvec([1, 0, 2]) == (1, 0, 2)
        with pytest.raises(DimensionError):
            expvec([])
        with pytest.raises(InvalidWeightsError):
            expvec([1, -1])

    def test_vec_add_checks_length(self):
        assert vec_add((1, 2), (3, 4)) == (4, 6)
        with pytest.raises(DimensionError):
            vec_add((1,), (1, 2))


class TestExactRationals:
    """The rational type must be exact: no rounding, group laws hold."""

    rat = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)

    @given(rat, rat, rat)
    def test_addition_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(rat)
    def test_multiplicative_inverse(self, p):
        if p != 0:
            assert p * (1 / p) == 1

    @given(rat, rat)
    def test_no_rounding(self, p, q):
        assert (p + q) - q == p
        assert Fraction(p).denominator > 0
