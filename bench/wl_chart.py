"""chart-route: parse a weight system and a semi-invariant polynomial, then read
every chart: chart data, the exceptional valuation and the strict transform.

Make-up of one pass: 4 weight systems (n = 2..4, weights 1..12 with gcd 1,
m = 1..6), each followed by 8 distinct semi-invariant polynomials, so 7 of
every 8 operations reuse a weight system already seen in the run.  The
support size shrinks as n grows (11, 5, 3 terms for n = 2, 3, 4) so that
one operation costs about the same whatever n.  No (system, polynomial) pair repeats in a run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracles
from common import expect

NAME = "chart-route"
SYSTEMS_PER_PASS = 4
POLYS_PER_SYSTEM = 8
SUPPORT = {2: 11, 3: 5, 4: 3}
MAX_EXPONENT = {2: 11, 3: 6, 4: 5}
PASSES_PER_SECOND = 14.0


def _system(rng, seen):
    while True:
        n = rng.randint(2, 4)
        weights = tuple(rng.randint(1, 12) for _ in range(n))
        m = rng.randint(1, 6)
        if math.gcd(*weights) == 1 and (weights, m) not in seen:
            seen.add((weights, m))
            return weights, m


def poly(rng, weights, m, size, top):
    """Random polynomial of `size` terms in [0, top]^n, all of one weight class mod m.

    The last exponent of each further term is drawn among those that put it
    in the class of the first.  Callers keep (top + 1)^n >= m * size, so
    some class is large enough; a class that proves too small is given up.
    """
    n = len(weights)
    exps = range(top + 1)
    head, last = weights[:-1], weights[-1]
    while True:
        first = tuple(rng.choices(exps, k=n))
        cls = oracles.weight(first, weights) % m
        terms = {first: rng.choice((-1, 1)) * rng.randint(1, 9)}
        for _ in range(50 * size):
            if len(terms) == size:
                return terms
            s = tuple(rng.choices(exps, k=n - 1))
            need = (cls - oracles.weight(s, head)) % m
            options = [x for x in exps if (x * last - need) % m == 0]
            if options:
                s += (rng.choice(options),)
                if s not in terms:
                    terms[s] = rng.choice((-1, 1)) * rng.randint(1, 9)
        if len(terms) == size:
            return terms


def poly_text(terms) -> str:
    """Notation text of an integer polynomial, written independently of the program."""
    out = []
    for s, c in terms.items():
        factors = [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(s) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text.startswith("+") else text


def build(rng, passes: int, seen: set) -> list:
    out = []
    for _ in range(passes):
        ops = []
        for _ in range(SYSTEMS_PER_PASS):
            weights, m = _system(rng, seen)
            text = f"1/{m}({','.join(map(str, weights))})"
            for _ in range(POLYS_PER_SYSTEM):
                while True:
                    terms = poly(rng, weights, m, SUPPORT[len(weights)], MAX_EXPONENT[len(weights)])
                    ptext = poly_text(terms)
                    if (text, ptext) not in seen:
                        break
                seen.add((text, ptext))
                ops.append(("chart-route", False, (text, ptext, weights, m, terms)))
        out.append(ops)
    return out


def run(op, wb, tr):
    text, ptext, weights, m, _ = op[2]
    call = tr.call
    system = call("notation.parse", wb.parse_weight_system, text)
    f = call("notation.parse", wb.parse_polynomial, ptext, system.n)
    w = call("wideal.polynomial_weight", wb.polynomial_weight, f, system)
    per_chart = []
    for i in range(1, system.n + 1):
        ch = call("blowup.chart", wb.chart, system, i)
        v = call("blowup.exceptional_valuation", wb.exceptional_valuation, f, system, i)
        st = call("blowup.strict_transform_in_chart", wb.strict_transform_in_chart, f, system, i)
        per_chart.append((ch, v, st))
    return system, f, w, per_chart


def check(op, out):
    text, _, weights, m, terms = op[2]
    system, f, w, per_chart = out
    expect(system.weights == weights and system.m == m, f"{text}: parsed as {system}")
    expect(dict(f.items()) == terms, f"{text}: polynomial parsed to {f.text()}")
    val = Fraction(min(oracles.weight(s, weights) for s in terms), m)
    expect(w == val, f"{text}: polynomial weight {w}, expected {val}")
    expect(len(per_chart) == len(weights), f"{text}: {len(per_chart)} charts")
    for i, (ch, v, st) in enumerate(per_chart, start=1):
        order, qw = oracles.chart_quotient(weights, m, i)
        expect(ch.index == i, f"{text}: chart {i} reports index {ch.index}")
        expect(
            ch.quotient_type.m == order and tuple(ch.quotient_type.weights) == qw,
            f"{text}: chart {i} has type {ch.quotient_type}",
        )
        rows = oracles.chart_rows(weights, m, i)
        expect(
            [list(map(Fraction, r)) for r in ch.substitution] == rows,
            f"{text}: chart {i} substitution rows differ",
        )
        expect(v == val, f"{text}: chart {i} valuation {v}, expected {val}")
        expect(st.chart_index == i, f"{text}: transform chart index {st.chart_index}")
        expect(st.factored_exponent == val, f"{text}: chart {i} factored {st.factored_exponent}")
        expect(
            min(Fraction(e[i - 1]) for e, _ in st.terms) == 0,
            f"{text}: chart {i} residual does not reach exponent 0",
        )
        back = {}
        for e, c in st.terms:
            back[oracles.invert_chart_term(e, st.factored_exponent, weights, m, i)] = c
        expect(back == terms, f"{text}: chart {i} strict transform does not map back to f")


def layer_counts(op, out, tr):
    terms = op[2][4]
    tr.count("blowup.substitutions", len(terms) * len(op[2][2]))
