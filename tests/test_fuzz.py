"""Every input ends in a typed report: a fuzz property over the command table.

A command is drawn from ``COMMANDS``; its target comes from the notation's
grammar with near misses (a character dropped, doubled or swapped for
another), huge numbers and non-ASCII digits; its parameters are drawn for
every ``Param`` type, sometimes of the wrong type or under an unknown name.
Each spec is run under a small enumeration cap and rendered as JSON and as
text, the way ``main`` renders it, and as ``run_batch`` renders a result.
"""

from __future__ import annotations

import json

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wblow.cli import COMMANDS, REPORT_SCHEMA, Report, RunSpec, run

#: superscript two, Arabic-Indic one, fullwidth five, Devanagari three
NON_ASCII_DIGITS = "²١５३"

#: checked once here, so each example pays only for validating its report
jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)

#: the exit code the report's status documents, when it is not an error
EXIT_CODES = {"ok": 0, "verification-failed": 2}

def mostly(usual, *unusual):
    """``usual`` about three times in four, else one of ``unusual``."""
    return st.integers(0, 3).flatmap(lambda i: st.one_of(*unusual) if i == 2 else usual)


numbers = mostly(
    st.integers(0, 9).map(str),
    st.integers(-3, 10**12).map(str),
    st.integers(4295, 4305).map(lambda k: "9" * k),  # around the int-to-str limit
    st.text(alphabet="0123456789" + NON_ASCII_DIGITS, min_size=1, max_size=3),
)


@st.composite
def polynomials(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "-", "+"])) if terms else draw(st.sampled_from(["", "-"]))
        coef = draw(st.one_of(st.just(""), numbers))
        factors = "".join(
            draw(st.sampled_from(["x", "*x"]))
            + draw(st.one_of(st.integers(1, 5).map(str), numbers.map(lambda s: "{" + s + "}")))
            + draw(st.one_of(st.just(""), numbers.map(lambda s: "^" + s)))
            for _ in range(draw(st.integers(0, 2)))
        )
        terms.append(sign + coef + factors)
    return "".join(terms)


@st.composite
def near_miss(draw, text: str) -> str:
    """The text itself, or one character of it dropped, doubled or replaced."""
    if not text or draw(st.integers(0, 3)) != 2:
        return text
    i = draw(st.integers(0, len(text) - 1))
    op = draw(st.sampled_from(["drop", "double", "replace"]))
    if op == "drop":
        return text[:i] + text[i + 1 :]
    if op == "double":
        return text[: i + 1] + text[i:]
    return text[:i] + draw(st.sampled_from("()/,;{}=x^+-*1 " + NON_ASCII_DIGITS)) + text[i + 1 :]


@st.composite
def targets(draw):
    """Weight-system, cyclic-quotient or hyperquotient notation."""
    m = draw(mostly(st.integers(1, 8).map(str), numbers))
    entries = draw(st.lists(mostly(st.integers(1, 9).map(str), numbers), min_size=1, max_size=4))
    text = f"1/{m}({','.join(entries)})"
    if draw(st.booleans()):
        e = draw(mostly(st.integers(0, 3).map(str), numbers))
        text = f"1/{m}({','.join(entries)};{e}){{g={draw(polynomials())}}}"
    return draw(near_miss(text))


def csv_of_ints():
    return st.lists(mostly(st.integers(1, 6).map(str), numbers), min_size=0, max_size=4).map(
        ",".join
    )


def rationals():
    return mostly(
        st.fractions(min_value=0, max_value=12, max_denominator=7).map(str),
        numbers,
        st.tuples(numbers, numbers).map("/".join),
    )


#: str parameters by name; any other str parameter gets free text
STR_VALUES = {
    "sigma_prime": csv_of_ints(),
    "a_sequence": csv_of_ints(),
    "k": rationals(),
    "b": rationals(),
    "poly": polynomials(),
    "g": polynomials(),
    "f": polynomials(),
}

#: values JSON has no type for, or none that reads back the same; floats include nan and inf
NON_JSON = st.one_of(
    st.sets(st.integers(0, 3), max_size=2),
    st.binary(max_size=4),
    st.floats(),
    st.tuples(st.integers(-3, 9), st.text(max_size=2)),
    st.dictionaries(st.text(max_size=2), st.dictionaries(st.integers(0, 2), st.floats(), max_size=2), max_size=2),
)

#: values of any type but the parameter's own
OTHER_TYPES = {
    int: st.one_of(st.text(max_size=4), st.booleans(), st.none(), NON_JSON),
    str: st.one_of(st.integers(-3, 9), st.booleans(), st.none(), NON_JSON),
    bool: st.one_of(st.integers(0, 1), st.text(max_size=4), st.none(), NON_JSON),
}

INT_VALUES = mostly(st.integers(1, 6), st.integers(-2, 12), st.integers(-(10**30), 10**30))


def value_for(param):
    if param.type is bool:
        return st.booleans()
    if param.type is int:
        return INT_VALUES
    return STR_VALUES.get(param.name, st.text(max_size=8)).flatmap(near_miss)


@st.composite
def specs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    target = draw(targets()) if command.target else None
    if draw(st.integers(0, 5)) == 2:  # a target where none is taken, or none where one is
        target = None if target else draw(targets())
    params = {
        param.name: draw(value_for(param))
        for param in command.params
        if param.required or draw(st.booleans())
    }
    if params and draw(st.integers(0, 3)) == 2:  # one value of another type
        param = draw(st.sampled_from([p for p in command.params if p.name in params]))
        params[param.name] = draw(OTHER_TYPES[param.type])
    if draw(st.integers(0, 19)) == 5:
        params["no_such_parameter"] = 1
    if draw(st.integers(0, 19)) == 6:  # a key that is not a string
        params[draw(st.one_of(st.integers(-3, 9), st.none(), st.tuples(st.integers(0, 2))))] = 1
    if draw(st.integers(0, 9)) == 3:  # a target that is not a string
        target = draw(st.one_of(st.integers(-3, 9), st.binary(max_size=8), NON_JSON))
    if draw(st.integers(0, 19)) == 7:  # parameters that are not an object
        params = draw(st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=2), st.text(max_size=3)))
    return RunSpec(name, target, params)


def reject_constant(name):
    raise AssertionError(f"the report holds {name}, which strict JSON has not")


def assert_typed_report(report: Report) -> None:
    payload = report.to_payload()
    VALIDATOR.validate(payload)
    if report.status == "error":
        assert report.result is None
        assert report.error["kind"] != "internal-consistency", report.error
        assert report.exit_code == 1, payload
    else:
        assert report.error is None and report.result is not None
        assert report.exit_code == EXIT_CODES[report.status], payload


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs())
@example(RunSpec("charts", "1/²(1,2)", {}))
@example(RunSpec("ideal", None, {"k": "1"}))
@example(RunSpec("example33", "1/1(1,2)", {"r": 2, "m": 3, "a": 1}))
@example(RunSpec("wt", "1/1(1,9)", {"poly": "x2^" + "9" * 4300}))
@example(RunSpec("lift-check", None, {"sigma_prime": "1,2", "m": 1, "a": 1, "dmax": 10**30}))
@example(RunSpec("chain", "1/5(1,2,3)", {"a_sequence": "9,9,9,9,9,9"}))
@example(RunSpec("truncation", "1/7(5,5,4,4,4)", {"find_stable": True, "limit": 10**30}))
@example(RunSpec("ideal", 5, {"k": "1"}))
@example(RunSpec("ideal", b"1/1(1,2)", {"k": "1"}))
@example(RunSpec("ideal", "1/1(1,2)", None))
@example(RunSpec("ideal", "1/1(1,2)", {"k": {1, 2}}))
@example(RunSpec("ideal", "1/1(1,2)", {"k": b"1"}))
@example(RunSpec("ideal", "1/1(1,2)", {"k": object()}))
@example(RunSpec("ideal", "1/1(1,2)", {"k": float("nan")}))
def test_every_spec_ends_in_a_typed_report(spec):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("WBLOW_MAX_ENUM", "20000")
        report = run(spec)
    assert_typed_report(report)
    # run refuses a result too long to write, so every report it returns renders, as strict JSON
    VALIDATOR.validate(json.loads(report.to_json(), parse_constant=reject_constant))
    report.to_text()
    json.dumps(report.result)
