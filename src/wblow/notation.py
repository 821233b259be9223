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

import re
from fractions import Fraction

from .errors import NotationError
from .quotient import CyclicQuotientType, HyperquotientType, Polynomial
from .wideal import WeightSystem

_DIGITS = re.compile(r"[0-9]+")
# One factor: an optional '*', then 'x', its index token (group 1: a digit
# 1-9 in group 2, or braced digits in group 3) and an optional power (group 4).
_FACTOR = re.compile(r"\s*\*?\s*x\s*(([1-9])|\{\s*([0-9]+)\s*\})(?:\s*\^\s*([0-9]+))?")
# One term from its first non-space character: sign (group 1), coefficient
# (group 2), the span of its factors (group 3), then one optional '*' and the
# whitespace before the next term.
_TERM = re.compile(r"([+-]?)\s*([0-9]*)((?:%s)*)(?:\s*\*)?\s*" % _FACTOR.pattern)


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
    """The shared '1/m(w1,...,wk' head; leaves the scanner on ';' or ')'."""
    sc.expect("1")
    sc.expect("/")
    m = sc.take_unsigned()
    sc.expect("(")
    weights = [sc.take_signed()]
    while sc.peek() == ",":
        sc.pos += 1
        weights.append(sc.take_signed())
    return m, weights


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
        brace = text.find("}", sc.pos)
        if brace < 0:
            sc.error("missing closing '}' after the equation", at=len(text))
        body = text[sc.pos : brace]
        g = parse_polynomial(body, nvars=len(weights), offset=sc.pos)
        sc.pos = brace + 1
        if not sc.at_end():
            sc.error("trailing input after the hyperquotient")
        return HyperquotientType(CyclicQuotientType(m, tuple(weights)), g, e)
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after the quotient type")
    return CyclicQuotientType(m, tuple(weights))


def parse_weight_system(text: str) -> WeightSystem:
    """Parse '1/m(a1,...,an)' as blow-up weights: positive, gcd 1, unreduced."""
    sc = _Scanner(text)
    m, weights = _parse_prefix(sc)
    sc.expect(")")
    if not sc.at_end():
        sc.error("trailing input after the weight system")
    return WeightSystem(tuple(weights), m)


def parse_polynomial(text: str, nvars: int, offset: int = 0) -> Polynomial:
    """Parse a polynomial in variables x1..x{nvars} with integer coefficients.

    The body is read one term at a time: a term match gives the sign, the
    coefficient and the span of the factors, and each factor is checked
    (index in range, then a positive power) in order.  Where a term stops
    short of '+', '-' or the end, the scanner names what it expected there.
    """
    sc = _Scanner(text, offset=offset)
    if sc.at_end():
        sc.error("empty polynomial")
    terms: dict = {}
    pos, end = sc.pos, len(text)
    while pos < end:
        term = _TERM.match(text, pos)
        sign, digits = term.group(1, 2)
        exponents = [0] * nvars
        factor = None
        for factor in _FACTOR.finditer(text, *term.span(3)):
            _, digit, braced, power = factor.groups()
            idx = int(digit) if digit else sc.integer(braced, factor.start(3))
            if not 1 <= idx <= nvars:
                sc.error(f"variable x{idx} is out of range for {nvars} variables", factor.end(1))
            power = 1 if power is None else sc.integer(power, factor.start(4))
            if power < 1:
                sc.error("exponents must be positive", factor.end(4))
            exponents[idx - 1] += power
        pos = sc.pos = term.end()
        ch = text[pos] if pos < end else ""  # "" at the end, which `in "+-"` accepts
        if ch not in "+-" or not (digits or factor):
            if ch == "x":  # no valid index follows: take_unsigned or expect raises
                sc.pos += 1
                if sc.peek() == "{":
                    sc.pos += 1
                    sc.take_unsigned()
                    sc.expect("}")
                sc.error("expected a variable index after 'x'")
            if ch == "^" and factor and factor[4] is None and "*" not in text[factor.end() : pos]:
                sc.pos += 1
                sc.take_unsigned()  # raises: the power after this factor is missing
            if not (digits or factor):
                sc.error("expected a coefficient or a variable")
            sc.error(f"expected '+' or '-' between terms, found {ch!r}")
        coeff = sc.integer(digits, term.start(2)) if digits else 1
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
    return Polynomial(nvars, terms)


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
