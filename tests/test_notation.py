import random
import sys
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

import wblow.notation as notation_mod
from helpers import scanner_parse_polynomial, scanner_parse_prefix
from wblow.errors import (
    DimensionError,
    InvalidWeightsError,
    NotationError,
    NotSemiInvariantError,
    WblowError,
)
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


class TestWeightSystemMemo:
    def test_repeated_text_is_the_same_record(self):
        first = parse_weight_system("1/4(1,2,3)")
        assert parse_weight_system("1/4(1,2,3)") is first
        assert first == WeightSystem((1, 2, 3), 4)

    @pytest.mark.parametrize(
        "text, error",
        [("1/1(2,4)", InvalidWeightsError), ("1/1(2,,4)", NotationError)],
        ids=["gcd-2", "parse-error"],
    )
    def test_refused_text_raises_on_every_call(self, text, error):
        outcomes = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                parse_weight_system(text)
            outcomes.append((str(exc.value), getattr(exc.value, "position", None)))
        assert outcomes[0] == outcomes[1]

    def test_cache_holds_at_most_64_records(self):
        for k in range(70):
            parse_weight_system(f"1/{k + 1}(1,{k + 2})")
        assert parse_weight_system.cache_info().currsize == 64


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

    @pytest.mark.parametrize("text", ["5", "x1", ""])
    @pytest.mark.parametrize("nvars", [0, -1, True, 2.0, "2"])
    def test_nvars_is_checked_before_the_text(self, text, nvars):
        with pytest.raises(DimensionError) as exc:
            parse_polynomial(text, nvars)
        assert str(exc.value) == f"nvars must be a positive integer, got {nvars!r}"


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
        got = _outcome(parse_polynomial, text, nvars, offset)
        assert got == expected
        if isinstance(got, Polynomial):
            # == cannot see an int coefficient (Fraction(3) == 3) or an unsorted term map
            items = list(got.items())
            assert items == list(expected.items()) and items == sorted(items)
            assert all(type(c) is Fraction and c != 0 for _, c in items)


# Head tokens: the grammar's own, every kind of whitespace the scanner skips
# (``\x1c`` and the no-break space are ``str.isspace``), leading zeros, a
# non-ASCII digit, and numbers at and one past int()'s digit limit.
_LIMIT = sys.get_int_max_str_digits()
_HEAD_TOKENS = ["1", "/", "(", ")", ",", ";", "+", "-", "0", "05", "3", "12", "x", " ", "\t",
                "\x1c", "\u00a0", "\u00b2", "{g=x1*x2}", "1" * _LIMIT, "2" * (_LIMIT + 1)]
_SPACE = st.sampled_from(["", "", " ", "\t", "\x1c", "\u00a0 "])


@st.composite
def _heads(draw):
    """'1/m(w1,...' with whitespace drawn between every two tokens, then a drawn tail."""
    numbers = st.one_of(st.integers(0, 30).map(str), st.sampled_from(["007", "1" * _LIMIT,
                                                                      "3" * (_LIMIT + 1)]))
    weights = draw(st.lists(st.tuples(st.sampled_from(["", "+", "-"]), numbers), min_size=1,
                            max_size=4))
    tokens = ["1", "/", draw(numbers), "("]
    for k, (sign, digits) in enumerate(weights):
        tokens += ([","] if k else []) + [sign, digits]
    tokens.append(draw(st.sampled_from([")", ");", ";0){g=x1*x2}", ";1)", ",", ",)", "", ")x",
                                        "x", "5", ";"])))
    return "".join(draw(_SPACE) + token for token in tokens) + draw(_SPACE)


def _parsed(parse, text):
    try:
        return parse(text)
    except WblowError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


class TestHeadAgainstScanner:
    """The head pattern against the scanner reading it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_heads(), st.lists(st.sampled_from(_HEAD_TOKENS), max_size=14).map("".join)))
    @example(" 1 / 5 ( 3 , 7 ) ")
    @example("\x1c1\x1c/\x1c05\x1c(\x1c-\x1c3\x1c,+7)")
    @example("1/5(3,,7)")
    @example("1/5(3,7 ,x)")  # a ',' after the head: the scanner reads on and fails there
    @example("1/5(12,x)")
    @example("1/" + "1" * _LIMIT + "(1,2)")
    @example("1/1(1," + "1" * (_LIMIT + 1) + ")")
    @example("1/5(1,4;0){g=x1*x2}")
    def test_same_object_or_same_error(self, text):
        # the weight system is parsed past its memo, which would answer the second call
        for parse in (parse_weight_system.__wrapped__, parse_singularity):
            pattern_route = _parsed(parse, text)
            with mock.patch.object(notation_mod, "_parse_prefix", scanner_parse_prefix):
                assert _parsed(parse, text) == pattern_route
        # the scanner accepts nothing the pattern refuses
        if notation_mod._HEAD.match(text) is None:
            with pytest.raises(NotationError):
                scanner_parse_prefix(notation_mod._Scanner(text))


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
