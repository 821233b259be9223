import random

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from helpers import scanner_parse_polynomial
from wblow.errors import InvalidWeightsError, NotationError, NotSemiInvariantError
from wblow.notation import (
    format_rational,
    parse_polynomial,
    parse_rational,
    parse_singularity,
    parse_weight_system,
)
from wblow.quotient import CyclicQuotientType, HyperquotientType, Polynomial
from wblow.wideal import WeightSystem


class TestParseSingularity:
    def test_cyclic(self):
        assert parse_singularity("1/5(1,2,3)") == CyclicQuotientType(5, (1, 2, 3))

    def test_negative_weights_reduce(self):
        assert parse_singularity("1/3(1,-1,1)") == CyclicQuotientType(3, (1, 2, 1))

    def test_whitespace_insensitive(self):
        assert parse_singularity(" 1 / 5 ( 1 , 2 , 3 ) ") == CyclicQuotientType(5, (1, 2, 3))

    def test_hyperquotient(self):
        hq = parse_singularity("1/3(1,-1,1,0;0){g=x1*x2+x3^3+x4^2}")
        assert isinstance(hq, HyperquotientType)
        assert hq.ambient == CyclicQuotientType(3, (1, 2, 1, 0))
        assert hq.e == 0
        assert hq.g.coefficient((1, 1, 0, 0)) == 1
        assert hq.g.coefficient((0, 0, 3, 0)) == 1
        assert hq.g.coefficient((0, 0, 0, 2)) == 1

    def test_unbalanced_reports_position(self):
        with pytest.raises(NotationError) as exc:
            parse_singularity("1/2(1")
        assert exc.value.position == 6

    def test_trailing_garbage(self):
        with pytest.raises(NotationError):
            parse_singularity("1/2(1,1)x")

    def test_semi_invariance_failure_propagates(self):
        with pytest.raises(NotSemiInvariantError):
            parse_singularity("1/2(1,0;0){g=x1+x2}")

    def test_not_one_over(self):
        with pytest.raises(NotationError):
            parse_singularity("2/3(1,1)")


class TestParseWeightSystem:
    def test_basic(self):
        ws = parse_weight_system("1/1(1,2,3)")
        assert ws == WeightSystem((1, 2, 3), 1)

    def test_entries_not_reduced(self):
        assert parse_weight_system("1/5(2,3)").weights == (2, 3)
        assert parse_weight_system("1/2(2,3)").weights == (2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeightsError):
            parse_weight_system("1/1(1,-2)")

    def test_rejects_common_factor(self):
        with pytest.raises(InvalidWeightsError):
            parse_weight_system("1/1(2,4)")


class TestParsePolynomial:
    def test_products_and_powers(self):
        p = parse_polynomial("2*x1^2*x2-x2^3+5", nvars=2)
        assert p.coefficient((2, 1)) == 2
        assert p.coefficient((0, 3)) == -1
        assert p.coefficient((0, 0)) == 5

    def test_juxtaposition(self):
        assert parse_polynomial("3x1x2^2", nvars=2) == parse_polynomial("3*x1*x2^2", nvars=2)

    def test_zero(self):
        assert parse_polynomial("0", nvars=3).is_zero

    def test_braced_variable_indices(self):
        p = parse_polynomial("x{10}^2+x1", nvars=10)
        assert p.coefficient((0,) * 9 + (2,)) == 1

    def test_text_braces_indices_from_ten(self):
        for n, text in ((9, "x9"), (10, "x{10}")):
            p = Polynomial.variable(n, n)
            assert p.text() == text
            assert parse_polynomial(text, nvars=n) == p

    def test_variable_out_of_range(self):
        with pytest.raises(NotationError):
            parse_polynomial("x5", nvars=4)

    def test_missing_operand(self):
        with pytest.raises(NotationError):
            parse_polynomial("x1+", nvars=2)

    def test_leading_sign(self):
        p = parse_polynomial("-x1+x2", nvars=2)
        assert p.coefficient((1, 0)) == -1

    def test_cancellation(self):
        assert parse_polynomial("x1-x1", nvars=1).is_zero


# Tokens of the ASCII grammar and some near misses, so that drawn bodies are
# often valid and otherwise fail at every kind of place.
_TOKENS = ["x", "x1", "x2", "x9", "x0", "x{", "x{12}", "{", "}", "^", "^2", "^0", "*",
           "+", "-", "3", "10", "0", " ", "\t"]
_ALPHABET = "x0123456789{}^*+- \t"


def _outcome(parse, text, nvars, offset):
    try:
        return parse(text, nvars, offset)
    except NotationError as exc:
        return str(exc), exc.position


class TestAgainstScannerParser:
    """The term-at-a-time parser against the character scanner it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(
            st.text(_ALPHABET, max_size=24),
            st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
        ),
        st.integers(1, 12),
        st.integers(1, 40),
    )
    @example("2*x1^2*x2-x2^3+5", 2, 7)
    @example("x1^ x2", 2, 3)  # a power without digits
    @example("x1*^2", 2, 3)  # '^' after '*' is no power
    @example("x1^2^3", 2, 3)
    @example("x{ 1 0 }", 12, 3)
    @example("3 x 1 ^ 2 - * x2", 2, 1)
    @example("- 2 x1 +\t10", 2, 5)  # whitespace after a sign
    @example("x5^0x", 4, 2)  # the range check comes first
    def test_same_polynomial_or_same_error(self, text, nvars, offset):
        expected = _outcome(scanner_parse_polynomial, text, nvars, offset)
        assert _outcome(parse_polynomial, text, nvars, offset) == expected


class TestAsciiDigits:
    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x\u00b2", "expected a variable index after 'x'", 2),
            ("x\u0663", "expected a variable index after 'x'", 2),  # Arabic-Indic 3
            ("\u0663x1", "expected a coefficient or a variable", 1),
            ("x1^\u00b2", "expected an integer, found '\u00b2'", 4),
            ("x{\u0661}", "expected an integer, found '\u0661'", 3),
        ],
    )
    def test_polynomial_numbers_are_ascii(self, text, message, position):
        with pytest.raises(NotationError) as exc:
            parse_polynomial(text, nvars=2)
        assert str(exc.value) == f"{message} (position {position})"

    @pytest.mark.parametrize(
        "text, position", [("1/\u00b2(1,2)", 3), ("1/1(1,\u0663)", 7), ("1/\uff11(1,2)", 3)]
    )
    def test_head_numbers_are_ascii(self, text, position):
        with pytest.raises(NotationError) as exc:
            parse_weight_system(text)
        found = repr(text[position - 1])
        assert str(exc.value) == f"expected an integer, found {found} (position {position})"

    def test_rational_numbers_are_ascii(self):
        with pytest.raises(NotationError):
            parse_rational("\u0663/4")


class TestOverLongNumbers:
    """A number past the interpreter's int-to-str digit limit is a parse error at its start."""

    LONG = "1" * 5000

    @pytest.mark.parametrize(
        "text, position",
        [
            (LONG + "x1", 1),  # coefficient
            ("x2 - " + LONG, 6),
            ("x{" + LONG + "}", 3),  # braced index
            ("x1^" + LONG, 4),  # power
        ],
        ids=["coefficient", "later-coefficient", "index", "power"],
    )
    def test_polynomial(self, text, position):
        with pytest.raises(NotationError) as exc:
            parse_polynomial(text, nvars=2)
        assert str(exc.value) == f"integer of 5000 digits is too long (position {position})"

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_weight_system, "1/" + LONG + "(1,2)", 3),
            (parse_weight_system, "1/1(1, " + LONG + ")", 8),
            (parse_singularity, "1/2(1,1;" + LONG + "){g=x1}", 9),
            (parse_rational, "-" + LONG, 2),
        ],
        ids=["order", "weight", "eigenvalue", "rational"],
    )
    def test_scanner(self, parse, text, position):
        with pytest.raises(NotationError) as exc:
            parse(text)
        assert exc.value.position == position

    def test_just_under_the_limit_parses(self):
        assert parse_rational("1" * 4300) == int("1" * 4300)


class TestRationals:
    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(NotationError):
            parse_rational("1/0")

    def test_format_always_keeps_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"


class TestRoundTrip:
    def test_cyclic_fuzz(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, 12)
            q = CyclicQuotientType(m, tuple(rng.randint(-12, 12) for _ in range(n)))
            assert parse_singularity(q.notation()) == q

    def test_hyperquotient_fuzz(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = rng.randint(1, 6)
            ambient = CyclicQuotientType(m, tuple(rng.randint(0, m - 1) for _ in range(n)))
            # build a semi-invariant polynomial: all monomials in one class
            # (a class may have very few monomials in the box, so bound tries)
            target = None
            terms = {}
            for _attempt in range(120):
                if len(terms) >= 3:
                    break
                s = tuple(rng.randint(0, 4) for _ in range(n))
                cls = sum(si * ai for si, ai in zip(s, ambient.weights)) % m
                if target is None:
                    target = cls
                if cls == target:
                    terms[s] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            hq = HyperquotientType(ambient, Polynomial(n, terms), target)
            assert parse_singularity(hq.notation()) == hq

    @pytest.mark.parametrize("n", [10, 12])
    def test_hyperquotient_with_braced_variable_indices(self, n):
        # x{10} and up carry their own braces inside the equation's braces
        hq = HyperquotientType(
            CyclicQuotientType(2, (1,) * n), Polynomial.monomial((0,) * (n - 1) + (2,)), 0
        )
        assert hq.notation().endswith(f"{{g=x{{{n}}}^2}}")
        assert parse_singularity(hq.notation()) == hq

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1/2(1,1;0){g=x1^2}}", "trailing input after the hyperquotient", 19),
            ("1/2(1,1;0){g=x1^2", "missing closing '}' after the equation", 18),
            ("1/2(1,1;0){g=x{1^2}", "missing closing '}' after the equation", 20),
            ("1/2(1,1;0){g=x{1}^2}x", "trailing input after the hyperquotient", 21),
        ],
    )
    def test_equation_braces_errors(self, text, message, position):
        with pytest.raises(NotationError) as exc:
            parse_singularity(text)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} (position {position})"

    def test_weight_system_fuzz(self):
        rng = random.Random(13)
        import math

        for _ in range(40):
            n = rng.randint(1, 4)
            while True:
                ws = tuple(rng.randint(1, 12) for _ in range(n))
                if math.gcd(*ws) == 1:
                    break
            system = WeightSystem(ws, rng.randint(1, 10))
            assert parse_weight_system(system.notation()) == system
