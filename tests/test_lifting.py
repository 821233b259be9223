import dataclasses
import itertools
import json
import math
import random
import re
import tracemalloc
from operator import mul
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    box_first_violation,
    box_verify_decomposition,
    class_minima,
    prefix_for_weight,
    scan_first_violation,
    verify_generator_lift,
)
from wblow.arith import lex_least
from wblow.cli import REPORT_SCHEMA, main
from wblow.errors import (
    EnumerationLimitError,
    InternalConsistencyError,
    InvalidInstanceError,
    InvalidWeightsError,
)
from wblow.lifting import (
    CheckReport,
    LiftInstance,
    MutationOutcome,
    chain_report,
    make_lift_instance,
    mutated_instance,
    mutation_study,
    verify_decomposition,
    verify_decomposition_range,
)
from wblow.quotient import CyclicQuotientType, HyperquotientType, Polynomial, section_type
from wblow.wideal import minimal_generators_numerator


def brute_decomposition_check(inst, d):
    """Oracle: re-check the decomposition by walking the whole box directly.

    Returns None when the identity holds at every box point, else a violating
    exponent vector.  Uses only plain arithmetic on the definition.
    """

    def ceil_div(p, q):
        return -(-p // q)

    db = d * inst.step
    lower = (d - inst.multiplier) * inst.step
    unit_lower = (d - inst.multiplier) <= 0
    caps = [ceil_div(db, w) + 1 for w in inst.base_weights]
    cap_n = ceil_div(db, inst.lifted_weight) + 1
    for prefix in itertools.product(*[range(c + 1) for c in caps]):
        w_prefix = sum(p * w for p, w in zip(prefix, inst.base_weights))
        # last exponent zero: membership via the full weights must agree with
        # membership of the prefix in the section ideal
        w_sigma = sum(p * w for p, w in zip(prefix + (0,), inst.weights))
        if (w_sigma >= db) != (w_prefix >= db):
            return prefix + (0,)
        for s_n in range(1, cap_n + 1):
            total = w_prefix + s_n * inst.lifted_weight
            in_top = total >= db
            in_lower = unit_lower or (total - inst.lifted_weight) >= lower
            if in_top != in_lower:
                return prefix + (s_n,)
    return None


class TestMakeLiftInstance:
    def test_unit(self):
        inst = make_lift_instance((1, 1), 1, 1)
        assert inst.weights == (1, 1, 1) and inst.step == 1 and inst.lifted_weight == 1

    def test_lcm_two(self):
        inst = make_lift_instance((1, 2), 1, 1)
        assert inst.base_lcm == 2 and inst.lifted_weight == 2
        assert inst.weights == (1, 2, 2) and inst.step == 2

    def test_multiplier(self):
        inst = make_lift_instance((2, 3), 1, 2)
        assert inst.base_lcm == 6 and inst.lifted_weight == 12
        assert inst.weights == (2, 3, 12) and inst.step == 6

    def test_normalization_reported(self):
        inst = make_lift_instance((2, 4), 3, 1)
        assert inst.base_weights == (1, 2) and inst.normalization_factor == 2

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeightsError):
            make_lift_instance((0, 1), 1, 1)

    def test_invalid_multiplier(self):
        with pytest.raises(InvalidInstanceError):
            make_lift_instance((1, 1), 1, 0)

    def test_is_derived_flag(self):
        inst = make_lift_instance((1, 2), 1, 1)
        assert inst.is_derived
        assert not mutated_instance(inst, 1).is_derived


class TestVerifyDecomposition:
    def test_ordinary_blowup(self):
        inst = make_lift_instance((1, 1), 1, 1)
        assert verify_decomposition(inst, 3).passed

    def test_sweep_small(self):
        inst = make_lift_instance((1, 2), 1, 1)
        for d in range(1, 6):
            assert verify_decomposition(inst, d).passed

    def test_corrupted_weight_fails_with_witness(self):
        inst = mutated_instance(make_lift_instance((1, 2), 1, 1), +1)
        report = verify_decomposition_range(inst, 6)
        assert not report.passed
        v = report.counterexample
        assert v is not None and v.monomial[-1] >= 1
        # the witness must genuinely violate the identity
        db = v.d * inst.step
        lower = (v.d - inst.multiplier) * inst.step
        total = sum(s * w for s, w in zip(v.monomial, inst.weights))
        in_top = total >= db
        in_lower = (v.d - inst.multiplier) <= 0 or (total - inst.lifted_weight) >= lower
        assert in_top != in_lower

    def test_degree_below_one_refused(self):
        with pytest.raises(InvalidInstanceError, match=r"^d must be >= 1, got 0$"):
            verify_decomposition(make_lift_instance((1, 2), 1, 1), 0)

    def test_unit_lower_levels(self):
        inst = make_lift_instance((1, 2), 1, 2)
        for d in (1, 2):  # d <= multiplier: lower level is the unit ideal
            assert verify_decomposition(inst, d).passed

    def test_engine_matches_box_oracle(self):
        rng = random.Random(71)
        cases = []
        for _ in range(25):
            n = rng.randint(2, 3)
            base = tuple(rng.randint(1, 4) for _ in range(n))
            cases.append((base, rng.randint(1, 3), rng.randint(1, 4), 0))
        for _ in range(25):
            n = rng.randint(2, 3)
            base = tuple(rng.randint(1, 4) for _ in range(n))
            cases.append((base, rng.randint(1, 2), rng.randint(1, 4), rng.choice([-2, -1, 1, 2])))
        for base, a, d, delta in cases:
            inst = make_lift_instance(base, 1, a)
            if delta:
                if inst.multiplier * inst.base_lcm + delta < 1:
                    continue
                inst = mutated_instance(inst, delta)
            report = verify_decomposition(inst, d)
            oracle_witness = brute_decomposition_check(inst, d)
            assert report.passed == (oracle_witness is None), (base, a, d, delta)
            if not report.passed:
                v = report.counterexample.monomial
                total = sum(s * w for s, w in zip(v, inst.weights))
                db = d * inst.step
                lower = (d - inst.multiplier) * inst.step
                in_top = total >= db
                in_lower = (d - inst.multiplier) <= 0 or (total - inst.lifted_weight) >= lower
                assert in_top != in_lower

    def test_passes_where_the_nominal_box_was_refused(self, monkeypatch):
        # the box at d = 9 held 58,064,573 points, over the default cap
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        inst = make_lift_instance((3, 5, 7), 1, 2)
        for d in (9, 10, 11, 12, 1000):
            assert verify_decomposition(inst, d).passed
        assert verify_decomposition_range(inst, 12).passed

    def test_sweep_charged_before_it_starts(self, monkeypatch):
        monkeypatch.setenv("WBLOW_MAX_ENUM", "1000")
        inst = make_lift_instance((1, 2), 1, 1)  # appended weight 2
        assert verify_decomposition_range(inst, 498).passed  # (2 + 498) * 2 steps
        with pytest.raises(EnumerationLimitError, match="1002 enumeration steps"):
            verify_decomposition_range(inst, 499)
        with pytest.raises(EnumerationLimitError):
            verify_decomposition_range(inst, 10**12)

    def test_sweep_past_sys_maxsize_is_refused(self, monkeypatch):
        # the degree count comes from the range's bounds; len() would overflow
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        with pytest.raises(EnumerationLimitError):
            verify_decomposition_range(make_lift_instance((1, 2), 1, 1), 2**70)


@st.composite
def lift_cases(draw):
    """(instance, d_max, d): section length 1-3, weights 1-12, multiplier 1-3,
    the appended weight offset by delta in 1 - a*b .. 3 (so the appended
    weight runs from 1 to a*b + 3), sweeps from d = 1, so d <= a is covered."""
    base = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    a = draw(st.integers(1, 3))
    inst = make_lift_instance(base, draw(st.integers(1, 5)), a)
    delta = draw(st.integers(1 - a * inst.base_lcm, 3))
    if delta:
        inst = mutated_instance(inst, delta)
    d_max = draw(st.integers(1, a + 3))
    return inst, d_max, draw(st.integers(1, d_max))


def lift_case(base, a, delta, d_max, d):
    inst = make_lift_instance(base, 1, a)
    return (mutated_instance(inst, delta) if delta else inst), d_max, d


class TestAgainstBoxEngine:
    """The residue lookup against the bitmask box engine it replaced."""

    @settings(max_examples=250, deadline=None)
    @given(lift_cases())
    @example(lift_case((2, 3), 1, 3, 4, 2))
    @example(lift_case((2, 3), 2, -11, 4, 1))  # appended weight 1, |delta| > A
    @example(lift_case((3, 5, 7), 2, 0, 12, 9))
    @example(lift_case((1, 2), 1, 1, 6, 2))
    def test_matches_box_engine(self, case):
        inst, d_max, d = case
        sweep = verify_decomposition_range(inst, d_max)
        oracle = box_first_violation(inst, d_max)
        assert sweep.status == ("pass" if oracle is None else "fail")
        assert tuple(sweep.d_range) == tuple(range(1, d_max + 1))
        assert sweep.counterexample == oracle  # failing d, witness monomial, explanation
        assert verify_decomposition(inst, d) == box_verify_decomposition(inst, d)
        if inst.is_derived:
            assert sweep.passed


#: the largest section lcm the scan oracle is given; the table has up to 4 * 4 * LCM_CAP entries
LCM_CAP = 420


@st.composite
def sections(draw):
    """Section weights: 1-4 of them, in 1-60.  A weight that would push the
    section lcm past LCM_CAP is replaced by its gcd with the lcm so far,
    which keeps the weight in 1-60 and the scan oracle's table small."""
    base, lcm = [], 1
    for w in draw(st.lists(st.integers(1, 60), min_size=1, max_size=4)):
        if math.lcm(lcm, w) > LCM_CAP:
            w = math.gcd(lcm, w)
        base.append(w)
        lcm = math.lcm(lcm, w)
    return base


@st.composite
def scan_cases(draw):
    """(instance, d_max, d): ``sections``, multiplier 1-4, the appended weight
    offset by delta in 1 - a*b .. 3*a*b (so the appended weight runs from 1
    to 4*a*b), sweeps to d_max <= 40."""
    base = draw(sections())
    a = draw(st.integers(1, 4))
    inst = make_lift_instance(base, 1, a)
    ab = a * inst.base_lcm
    delta = draw(st.integers(1 - ab, 3 * ab))
    if delta:
        inst = mutated_instance(inst, delta)
    d_max = draw(st.integers(1, 40))
    return inst, d_max, draw(st.integers(1, d_max))


class TestAgainstSortedScan:
    """The residue lookup against the sorted scan of every class minimum it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    @example(lift_case((5,), 1, 0, 40, 40))  # appended weight 1, derived
    @example(lift_case((2, 3), 2, -11, 40, 7))  # appended weight 1, |delta| > A
    @example(lift_case((4, 6), 3, -15, 40, 5))  # |delta| = 5 A: every class fails
    @example(lift_case((3, 4), 2, 24, 40, 9))  # delta = a*b: A = 2 a*b
    @example(lift_case((3, 4), 2, 72, 40, 9))  # delta = 3 a*b
    @example(lift_case((7, 11, 13), 1, 1, 40, 40))
    @example(lift_case((7, 11, 13), 1, -1, 40, 40))
    @example(lift_case((12, 20, 30), 4, -1, 40, 33))
    # L set by the sweep's top threshold d*b - min(a*b, A)
    @example(lift_case((37, 41), 1, -3, 1, 1))  # L = 3
    @example(lift_case((37, 41), 1, -700, 1, 1))  # A = 817, L = 700
    @example(lift_case((194, 202, 9797), 1, -3, 1, 1))  # A = 19,591, L = 3
    @example(lift_case((194, 202, 9797), 1, 1, 3, 3))  # A = 19,595, L = 2 b = 39,188
    # L set by Brauer's bound F + 1 + A on the class minima
    @example(lift_case((3, 5), 1, 1, 40, 40))  # A = 16, L = 24
    @example(lift_case((6, 10, 15), 1, 1, 40, 40))  # A = 31, L = 61
    @example(lift_case((6, 10, 15), 1, -14, 40, 40))  # A = 16, L = 46
    @example(lift_case((6, 10, 15), 2, -29, 40, 40))  # A = 31, L = 61
    @example(lift_case((194, 202, 9797), 1, 1, 120, 3))  # A = 19,595, L = 48,591
    @example(lift_case((194, 202, 9797), 1, -9796, 120, 3))  # A = 9,798, L = 38,794
    # |delta| >= A: every class fails, so L = 1 and only the minimum 0 is read
    @example(lift_case((59, 60), 1, -3530, 40, 7))  # A = 10, and 3,432 by Brauer
    @example(lift_case((59, 60), 1, -3535, 40, 40))  # A = 5, |delta| > A
    def test_matches_sorted_scan(self, case):
        inst, d_max, d = case
        sweep = verify_decomposition_range(inst, d_max)
        oracle = scan_first_violation(inst, d_max)
        assert sweep.status == ("pass" if oracle is None else "fail")
        assert sweep.counterexample == oracle  # failing d, witness monomial, explanation
        assert verify_decomposition(inst, d).counterexample == scan_first_violation(inst, d, d)
        if inst.is_derived:
            assert sweep.passed


class TestSemigroupBitset:
    """Each window's least set bit against the least entry of the round-robin table."""

    @settings(max_examples=150, deadline=None)
    @given(scan_cases(), st.data())
    @example(lift_case((6, 10, 15), 1, 1, 40, 1), None)  # A = 31, L = 61: one doubling
    def test_least_set_bit_is_the_least_class_minimum(self, case, data):
        import wblow.lifting as lifting_mod

        inst, d_max, _ = case
        a_n, ab = inst.lifted_weight, inst.multiplier * inst.base_lcm
        if inst.is_derived:
            return
        limit = lifting_mod._sum_limit(inst, d_max, (a_n,))
        bits = lifting_mod._semigroup_bits(inst.base_weights, limit)[-1]
        top = d_max * inst.base_lcm - min(ab, a_n)
        table = class_minima(inst.base_weights, a_n)
        windows = [(start, count) for start in range(a_n) for count in (1, a_n // 2 + 1, a_n)]
        if abs(a_n - ab) >= a_n:  # every class fails, so only whole windows are looked up
            windows = [(start, a_n) for start in range(a_n)]
        if data is not None:
            windows = data.draw(st.lists(st.sampled_from(windows), min_size=1, max_size=20))
        for start, count in windows:
            for below in (1, min(a_n, top), top):  # no minimum past top is looked up
                want = min(table[(start + j) % a_n] for j in range(count))
                got = lifting_mod._least_set_bit(bits, a_n, start, count)
                assert min(got, below) == min(want, below), (start, count, below)


class TestResidueCrossCheck:
    """A class minimum read wrong is caught by the re-check against the definition."""

    @pytest.fixture
    def lying_lookup(self, monkeypatch):
        import wblow.lifting as lifting_mod

        real = lifting_mod._least_set_bit

        def altered(bits, modulus, start, count):
            # sections (1, 2), a = 1, A = 3 (delta = +1): at d = 2 the failing
            # class is 4 mod 3 = 1, whose least element 1 is read as 0,
            # a value that satisfies the decomposition
            if (1 - start) % modulus < count:
                return 0
            return real(bits, modulus, start, count)

        monkeypatch.setattr(lifting_mod, "_least_set_bit", altered)
        return mutated_instance(make_lift_instance((1, 2), 1, 1), +1)

    def test_unaltered_table_fails_at_degree_two(self):
        inst = mutated_instance(make_lift_instance((1, 2), 1, 1), +1)
        assert verify_decomposition_range(inst, 6).counterexample.d == 2

    def test_sweep_raises(self, lying_lookup):
        with pytest.raises(InternalConsistencyError, match="class minimum 0"):
            verify_decomposition_range(lying_lookup, 6)
        with pytest.raises(InternalConsistencyError):
            verify_decomposition(lying_lookup, 2)

    def test_unrealizable_weight_is_caught(self, monkeypatch, capsys):
        import wblow.lifting as lifting_mod

        # sections (1, 2), a = 1, A = 3: at d = 2 the bitset marks the minimum 1,
        # which a witness walk that finds nothing fails to realize
        monkeypatch.setattr(lifting_mod, "lex_walk", lambda weights, caps, suffixes, lo, hi: None)
        inst = mutated_instance(make_lift_instance((1, 2), 1, 1), +1)
        with pytest.raises(InternalConsistencyError, match="^weight 1 marked achievable but not realizable$"):
            verify_decomposition_range(inst, 6)
        argv = ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--mutate", "1"]
        assert main(argv + ["--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["error"] == {
            "kind": "internal-consistency",
            "message": "weight 1 marked achievable but not realizable",
        }

    def test_lift_check_exits_3_with_a_typed_report(self, lying_lookup, capsys):
        argv = ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--mutate", "1"]
        assert main(argv + ["--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["exit_code"] == 3 and payload["status"] == "error"
        assert payload["error"]["kind"] == "internal-consistency"


def traced(run):
    """(memory still held after run(), peak during it), in bytes, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak - before


class TestMemory:
    """A sweep keeps nothing once it returns, and holds its degrees as a range."""

    def test_semigroup_bitset_is_dropped(self, monkeypatch):
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        inst = mutated_instance(make_lift_instance((211, 223), 1, 1), 1)  # A = 47,054
        # a table of A class minima would take over 1,000,000 B; at d_max = 1 no
        # threshold is above 0, so L = 1 and only masks of A bits are made, and
        # at 3 L = 93,674 (Brauer's bound), so the bitset and each mask copied
        # across it take about 12,000 B
        for d_max, most in ((1, 20_000), (3, 200_000)):
            kept, peak = traced(lambda: verify_decomposition_range(inst, d_max))
            assert peak < most
            assert kept < 500_000

    def test_mutation_study_drops_its_chain(self, monkeypatch):
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        inst = make_lift_instance((211, 223), 1, 1)  # offsets give A = 47,050 .. 47,056
        # the one chain of suffix bitsets below the offsets' largest L, about
        # 93,680 (Brauer's bound), holds the empty sum 1 and two bitsets of about 12,000 B
        kept, peak = traced(lambda: mutation_study(inst, 3))
        assert peak < 200_000
        assert kept < 500_000

    def test_long_sweep_holds_no_list_of_degrees(self, monkeypatch):
        monkeypatch.delenv("WBLOW_MAX_ENUM", raising=False)
        inst = make_lift_instance((1,), 1, 1)
        reports = []
        _, peak = traced(lambda: reports.append(verify_decomposition_range(inst, 10**6)))
        assert peak < 1_000_000
        assert reports[0].passed and reports[0].d_range == range(1, 10**6 + 1)


class TestVerifyGeneratorLift:
    def test_unit_degree_two(self):
        inst = make_lift_instance((1, 1), 1, 1)
        report = verify_generator_lift(inst, 2)
        assert report.passed
        assert set(minimal_generators_numerator(inst.weights, 2)) == {
            (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
        }

    def test_one_two(self):
        assert verify_generator_lift(make_lift_instance((1, 2), 1, 1), 1).passed

    def test_unit_lower_case(self):
        inst = make_lift_instance((1, 2), 1, 2)
        report = verify_generator_lift(inst, 1)  # d - a <= 0: unit ideal shifted
        assert report.passed
        gens = minimal_generators_numerator(inst.weights, inst.step)
        assert (0, 0, 1) in gens

    def test_agrees_with_decomposition(self):
        for base in [(1, 1), (1, 2), (2, 3), (1, 3), (3, 4), (1, 1, 2)]:
            for a in (1, 2):
                inst = make_lift_instance(base, 1, a)
                for d in range(1, 5):
                    assert (
                        verify_generator_lift(inst, d).passed
                        == verify_decomposition(inst, d).passed
                    )

    def test_disagrees_symmetrically_on_mutations(self):
        rng = random.Random(990)
        for _ in range(12):
            base = tuple(rng.randint(1, 4) for _ in range(2))
            inst = make_lift_instance(base, 1, rng.randint(1, 2))
            delta = rng.choice([-1, 1, 2])
            if inst.multiplier * inst.base_lcm + delta < 1:
                continue
            mut = mutated_instance(inst, delta)
            for d in range(1, 6):
                assert (
                    verify_generator_lift(mut, d).passed
                    == verify_decomposition(mut, d).passed
                ), (base, inst.multiplier, delta, d)


class TestMutationStudy:
    def test_all_caught_quickly(self):
        for base, a in [((1, 2), 1), ((2, 3), 1), ((1, 1), 1), ((1, 2), 2)]:
            inst = make_lift_instance(base, 1, a)
            study = mutation_study(inst, d_max=a + 2)
            assert study.applicable > 0
            assert study.caught == study.applicable
            for outcome in study.outcomes:
                assert outcome.first_failing_d is not None
                assert outcome.first_failing_d <= a + 2

    def test_skips_nonpositive_mutations(self):
        inst = make_lift_instance((1, 1), 1, 1)  # lifted weight 1
        study = mutation_study(inst, d_max=3)
        assert all(o.lifted_weight >= 1 for o in study.outcomes)
        assert {o.delta for o in study.outcomes} == {1, 2, 3}

    def test_every_offset_is_charged_before_the_chain_is_built(self, monkeypatch):
        import wblow.arith as arith_mod

        inst = make_lift_instance((3, 5), 1, 1)  # a*b = 15: offsets +3 charge (2 + 4) * 18 = 108
        monkeypatch.setenv("WBLOW_MAX_ENUM", "107")
        built = []
        monkeypatch.setattr(arith_mod, "add_multiples", lambda *args: built.append(args))
        message = (
            "decomposition sweep to degree 4 needs 108 enumeration steps, over the limit of 107;"
            " raise WBLOW_MAX_ENUM to allow it"
        )
        with pytest.raises(EnumerationLimitError, match=f"^{re.escape(message)}$"):
            mutation_study(inst, 4)
        assert built == []
        with pytest.raises(InvalidInstanceError, match="^d_max must be >= 1, got 0$"):
            mutation_study(inst, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.builds(make_lift_instance, sections(), st.just(1), st.integers(1, 3)),
           st.integers(1, 12))
    @example(make_lift_instance((1,), 1, 1), 4)  # a*b = 1: only +1, +2, +3 apply
    @example(make_lift_instance((1, 2), 1, 1), 4)  # a*b = 2: -1 gives A = 1 = |delta|
    @example(make_lift_instance((1, 3), 1, 1), 5)  # a*b = 3: -2 gives A = 1 < |delta|
    @example(make_lift_instance((1,), 1, 3), 3)
    @example(make_lift_instance((194, 202, 9797), 1, 1), 3)
    def test_shared_chain_matches_independent_sweeps(self, inst, d_max):
        import wblow.lifting as lifting_mod

        ab = inst.multiplier * inst.base_lcm
        reports, chains = [], []
        real_sweep, real_semigroup_bits = lifting_mod._sweep, lifting_mod._semigroup_bits

        def sweep(*args):
            reports.append(real_sweep(*args))
            return reports[-1]

        def semigroup_bits(*args):
            chains.append(real_semigroup_bits(*args))
            return chains[-1]

        with mock.patch.multiple(lifting_mod, _sweep=sweep, _semigroup_bits=semigroup_bits):
            study = mutation_study(inst, d_max)
        assert len(chains) == 1  # one chain for every offset
        assert [o.delta for o in study.outcomes] == [
            delta for delta in (-3, -2, -1, 1, 2, 3) if ab + delta >= 1
        ]
        base = inst.base_weights
        for outcome, report in zip(study.outcomes, reports, strict=True):
            mut = mutated_instance(inst, outcome.delta)
            assert report == verify_decomposition_range(mut, d_max)
            assert report.counterexample == scan_first_violation(mut, d_max)
            first_fail = None if report.passed else report.counterexample.d
            assert outcome == MutationOutcome(outcome.delta, mut.lifted_weight, first_fail)
            if not report.passed:
                prefix = report.counterexample.monomial[:-1]
                mu = sum(map(mul, prefix, base))
                assert prefix == lex_least(base, [mu // w for w in base], mu, mu)
                assert prefix == prefix_for_weight(base, mu)


class TestChainReport:
    def test_smooth_chain(self):
        start = HyperquotientType(CyclicQuotientType(1, (1, 1, 1)), Polynomial.zero(3), 0)
        report = chain_report(start, (1, 1), d_max=3)
        assert report.status == "pass"
        types = [st.lifted_type for st in report.stages]
        assert types[0] == CyclicQuotientType(1, (1, 1, 1, 1))
        assert types[1] == CyclicQuotientType(1, (1, 1, 1, 1, 1))

    def test_order_two(self):
        start = HyperquotientType(CyclicQuotientType(2, (1, 1, 1)), Polynomial.zero(3), 0)
        report = chain_report(start, (1,), d_max=3)
        stage = report.stages[0]
        assert stage.instance.base_lcm == 1
        assert stage.lifted_type == CyclicQuotientType(2, (1, 1, 1, 1))

    def test_growing_weights(self):
        start = HyperquotientType(CyclicQuotientType(3, (1, 1, 2)), Polynomial.zero(3), 0)
        report = chain_report(start, (2, 1), d_max=3)
        first, second = report.stages
        assert first.instance.base_lcm == 2 and first.instance.lifted_weight == 4
        assert first.lifted_type == CyclicQuotientType(3, (1, 1, 2, 1))
        assert second.instance.base_weights == (1, 1, 2, 4)
        assert second.instance.base_lcm == 4 and second.instance.lifted_weight == 4
        assert second.lifted_type == CyclicQuotientType(3, (1, 1, 2, 1, 1))

    def test_section_recovers_previous_type(self):
        start = HyperquotientType(CyclicQuotientType(5, (1, 2, 3)), Polynomial.zero(3), 0)
        report = chain_report(start, (1, 2, 1), d_max=2)
        previous = start.ambient
        for stage in report.stages:
            lifted = stage.lifted_type
            assert section_type(lifted, lifted.n) == previous
            previous = lifted

    def test_equation_limitation_noted(self):
        from wblow.notation import parse_singularity

        start = parse_singularity("1/3(1,-1,1,0;0){g=x1*x2+x3^3+x4^2}")
        report = chain_report(start, (1,), d_max=2)
        assert any("ambient" in note for note in report.notes)
        assert report.status == "pass"

    def test_dimension_enforced(self):
        start = HyperquotientType(CyclicQuotientType(2, (1, 1)), Polynomial.zero(2), 0)
        with pytest.raises(InvalidInstanceError):
            chain_report(start, (1,))

    def test_empty_sequence_rejected(self):
        start = HyperquotientType(CyclicQuotientType(1, (1, 1, 1)), Polynomial.zero(3), 0)
        with pytest.raises(InvalidInstanceError):
            chain_report(start, ())

    def test_halts_on_failing_stage(self, monkeypatch):
        import wblow.lifting as lifting_mod

        start = HyperquotientType(CyclicQuotientType(1, (1, 1, 1)), Polynomial.zero(3), 0)
        real = lifting_mod.verify_decomposition_range
        calls = {"n": 0}

        def failing(inst, d_max):
            calls["n"] += 1
            if calls["n"] == 2:
                from wblow.lifting import Violation

                return CheckReport(inst, (1,), Violation(1, (0,) * inst.n, "injected"))
            return real(inst, d_max)

        monkeypatch.setattr(lifting_mod, "verify_decomposition_range", failing)
        report = lifting_mod.chain_report(start, (1, 1, 1), d_max=2)
        assert report.status == "fail"
        assert report.halted_at == 2
        assert len(report.stages) == 2


class TestInstanceChecks:
    """The constructor is the one check of the group order, the multiplier and the lifted weight."""

    @pytest.mark.parametrize(
        "m, multiplier, lifted, message",
        [
            (0, 1, 2, "group order must be a positive integer, got 0"),
            (True, 1, 2, "group order must be a positive integer, got True"),
            (1, 0, 2, "multiplier must be a positive integer, got 0"),
            (1, True, 2, "multiplier must be a positive integer, got True"),
            (1, 1, 0, "mutated lifted weight 0 is not a positive weight"),
            (1, 1, -3, "mutated lifted weight -3 is not a positive weight"),
        ],
    )
    def test_direct_construction(self, m, multiplier, lifted, message):
        with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
            LiftInstance((1, 2), m, multiplier, 1, 2, lifted)

    def test_weights_argument_is_checked(self):
        inst = make_lift_instance((1, 2), 1, 1)
        assert dataclasses.replace(inst, weights=(1, 2, 2)) == inst
        with pytest.raises(
            InternalConsistencyError, match="^weights must be base_weights plus the lifted weight$"
        ):
            dataclasses.replace(inst, weights=(1, 2, 5))

    def test_builders_raise_the_constructor_messages(self):
        inst = make_lift_instance((1, 2), 1, 1)
        for build, message in [
            (lambda: make_lift_instance((1, 2), 0, 1),
             "group order must be a positive integer, got 0"),
            (lambda: make_lift_instance((1, 2), 1, -1),
             "multiplier must be a positive integer, got -1"),
            (lambda: make_lift_instance((1, 2), True, 1),
             "group order must be a positive integer, got True"),
            (lambda: make_lift_instance((1, 2), 1, True),
             "multiplier must be a positive integer, got True"),
            (lambda: mutated_instance(inst, -2),
             "mutated lifted weight 0 is not a positive weight"),
            (lambda: mutated_instance(inst, 0), "delta 0 is not a mutation"),
        ]:
            with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
                build()

    def test_mutation_study_applies_the_fixed_offsets(self):
        assert [o.delta for o in mutation_study(make_lift_instance((1, 2), 1, 2), 3).outcomes] == [
            -3, -2, -1, 1, 2, 3
        ]
        # the forced weight is 2: only offsets that keep it positive apply
        assert [o.delta for o in mutation_study(make_lift_instance((1, 2), 1, 1), 3).outcomes] == [
            -1, 1, 2, 3
        ]
