"""Parsing and formatting of the singularity and polynomial notation.

Grammar (whitespace-insensitive):

    cyclic quotient   1/m(a1,...,an)
    hyperquotient     1/m(a0,...,an;e){g=<polynomial>}
    weight system     1/m(a1,...,an)      (positive entries, never reduced)
    polynomial        integer coefficients; variables x1..x9, or x{10} and up
                      with the brace delimiter; ^ for powers; + and - between
                      terms; * between factors is optional
    rational          p/q or a bare integer

Every number in the grammar (orders, weights, coefficients, indices, powers)
is spelled with the ASCII digits 0-9; any other character is a parse error.
Parse errors carry a 1-based character position.  Weights may be negative in
quotient notation and are reduced mod m by the type constructors.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import NotationError
from .quotient import CyclicQuotientType, HyperquotientType, Polynomial, check_nvars
from .wideal import WeightSystem

_DIGITS = re.compile(r"[0-9]+")
_BRACES = re.compile(r"[{}]")
# One factor: an optional '*', then 'x', its index token (group 1: a digit
# 1-9 in group 2, or braced digits in group 3) and an optional power (group 4).
_FACTOR = re.compile(r"\s*\*?\s*x\s*(([1-9])|\{\s*([0-9]+)\s*\})(?:\s*\^\s*([0-9]+))?")
# One term from its first non-space character: sign (group 1), coefficient
# (group 2), the span of its factors (group 3), then one optional '*' and the
# whitespace before the next term.
_TERM = re.compile(r"([+-]?)\s*([0-9]*)((?:%s)*)(?:\s*\*)?\s*" % _FACTOR.pattern)
# The '1/m(w1,...,wk' head with the whitespace after it: m in group 1, the
# weights' span in group 2.  The scanner reads the head greedily and reads on
# at a ',', so the lookahead refuses a head followed by ',' and every
# backtracked match (whitespace next, or a digit right after a digit): what
# the pattern refuses, the scanner refuses too.
_HEAD = re.compile(
    r"\s*1\s*/\s*([0-9]+)\s*\(\s*([+-]?\s*[0-9]+(?:\s*,\s*[+-]?\s*[0-9]+)*)\s*"
    r"(?![\s,]|(?<=[0-9])[0-9])"
)
_WEIGHT = re.compile(r"([+-]?)\s*([0-9]+)")


class _Scanner:
    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = 0
        self.offset = offset  # for error positions inside embedded fragments

    def error(self, message: str, at: int | None = None):
        position = self.offset + (self.pos if at is None else at) + 1
        raise NotationError(message, position)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        ch = self.peek()
        if ch != literal:
            found = repr(ch) if ch else "end of input"
            self.error(f"expected {literal!r}, found {found}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def take_unsigned(self) -> int:
        self.skip_ws()
        digits = _DIGITS.match(self.text, self.pos)
        if digits is None:
            found = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
            self.error(f"expected an integer, found {found}")
        self.pos = digits.end()
        return self.integer(digits.group(), digits.start())

    def integer(self, digits: str, at: int) -> int:
        try:  # int() refuses more digits than sys.get_int_max_str_digits(), a process-wide limit
            return int(digits)
        except ValueError:
            self.error(f"integer of {len(digits)} digits is too long", at)

    def take_signed(self) -> int:
        sign = 1
        ch = self.peek()
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        return sign * self.take_unsigned()


def _parse_prefix(sc: _Scanner) -> tuple[int, list]:
    """The shared '1/m(w1,...,wk' head; leaves the scanner after the whitespace that follows it.

    One pattern match reads a well-formed head.  Otherwise, or when a number
    is past int()'s digit limit, the scanner reads the head again: it raises
    at the fault, at the latest at a weight after a ','.
    """
    head = _HEAD.match(sc.text)
    if head:
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            m = int(head[1])
            weights = [int(sign + digits) for sign, digits in _WEIGHT.findall(head[2])]
        except ValueError:
            pass
        else:
            sc.pos = head.end()
            return m, weights
    sc.expect("1")
    sc.expect("/")
    sc.take_unsigned()
    sc.expect("(")
    sc.take_signed()
    while True:
        sc.expect(",")
        sc.take_signed()


def parse_singularity(text: str):
    """Parse quotient notation into a cyclic quotient or hyperquotient type."""
    sc = _Scanner(text)
    m, weights = _parse_prefix(sc)
    if sc.peek() == ";":
        sc.pos += 1
        e = sc.take_signed()
        sc.expect(")")
        sc.expect("{")
        sc.expect("g")
        sc.expect("=")
        sc.skip_ws()
        depth = 1  # the body ends at the '}' that balances '{g=': an index x{10} is its own pair
        for close in _BRACES.finditer(text, sc.pos):
            depth += 1 if close.group() == "{" else -1
            if not depth:
                break
        else:
            sc.error("missing closing '}' after the equation", at=len(text))
        body = text[sc.pos : close.start()]
        g = parse_polynomial(body, nvars=len(weights), offset=sc.pos)
        sc.pos = close.end()
        if not sc.at_end():
            sc.error("trailing input after the hyperquotient")
        return HyperquotientType(CyclicQuotientType(m, tuple(weights)), g, e)
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after the quotient type")
    return CyclicQuotientType(m, tuple(weights))


@functools.lru_cache(maxsize=64)
def parse_weight_system(text: str) -> WeightSystem:
    """Parse '1/m(a1,...,an)' as blow-up weights: positive, gcd 1, unreduced.

    The head is one match of the head pattern; only a text it refuses is
    read again by the scanner, which raises with the fault's position.
    Memoised by the text, as ``blowup.chart`` is: a repeated text returns
    the one frozen ``WeightSystem``, and a refused text raises on every
    call, since exceptions are not cached.  The cache is kept small because
    callers work through a few weight systems at a time.
    """
    sc = _Scanner(text)
    m, weights = _parse_prefix(sc)
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after the weight system")
    return WeightSystem(tuple(weights), m)


def _refuse_factors(sc: _Scanner, text: str, span: tuple, nvars: int) -> None:
    """Raise at the first factor of the span that fails a check.

    The checks run in order: the index is in range, then the power is positive.
    """
    for factor in _FACTOR.finditer(text, *span):
        _, digit, braced, power = factor.groups()
        idx = int(digit) if digit else sc.integer(braced, factor.start(3))
        if not 1 <= idx <= nvars:
            sc.error(f"variable x{idx} is out of range for {nvars} variables", factor.end(1))
        power = 1 if power is None else sc.integer(power, factor.start(4))
        if power < 1:
            sc.error("exponents must be positive", factor.end(4))


def parse_polynomial(text: str, nvars: int, offset: int = 0) -> Polynomial:
    """Parse a polynomial in variables x1..x{nvars} with integer coefficients.

    ``nvars`` is checked before the text is read.  The body is read one
    term at a time: a term match gives the sign, the coefficient and the
    span of the factors, and one ``findall`` gives the factors, each
    checked (index in range, then a positive power).  Only a term whose
    factors fail a check, or hit int()'s digit limit, is read again factor
    by factor to name the first fault and its position.  Where a term stops
    short of '+', '-' or the end, the scanner names what it expected there.
    The terms are valid by construction, so the polynomial is built by
    ``Polynomial._fill`` without the constructor's checks.
    """
    check_nvars(nvars)
    sc = _Scanner(text, offset=offset)
    if sc.at_end():
        sc.error("empty polynomial")
    terms: dict = {}
    pos, end = sc.pos, len(text)
    while pos < end:
        term = _TERM.match(text, pos)
        sign, digits = term.group(1, 2)
        exponents = [0] * nvars
        factors = _FACTOR.findall(text, *term.span(3))
        try:  # a failed check takes the way of int()'s digit limit
            for _, digit, braced, power in factors:
                idx, power = int(digit or braced), int(power or 1)
                if not (1 <= idx <= nvars and power):
                    raise ValueError
                exponents[idx - 1] += power
        except ValueError:
            _refuse_factors(sc, text, term.span(3), nvars)
        pos = sc.pos = term.end()
        ch = text[pos] if pos < end else ""  # "" at the end, which `in "+-"` accepts
        if ch not in "+-" or not (digits or factors):
            if ch == "x":  # no valid index follows: take_unsigned or expect raises
                sc.pos += 1
                if sc.peek() == "{":
                    sc.pos += 1
                    sc.take_unsigned()
                    sc.expect("}")
                sc.error("expected a variable index after 'x'")
            if ch == "^" and factors and not factors[-1][3] and "*" not in text[term.end(3) : pos]:
                sc.pos += 1
                sc.take_unsigned()  # raises: the power after this factor is missing
            if not (digits or factors):
                sc.error("expected a coefficient or a variable")
            sc.error(f"expected '+' or '-' between terms, found {ch!r}")
        coeff = sc.integer(digits, term.start(2)) if digits else 1
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
    return object.__new__(Polynomial)._fill(nvars, terms)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a bare integer as an exact rational."""
    sc = _Scanner(text)
    num = sc.take_signed()
    if sc.peek() == "/":
        sc.pos += 1
        den = sc.take_signed()
        if den == 0:
            sc.error("zero denominator")
        value = Fraction(num, den)
    else:
        value = Fraction(num)
    if not sc.at_end():
        sc.error("trailing input after the rational")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical 'p/q' spelling (the denominator is kept even when it is 1)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"
