"""Command-line front end.

Parses singularity/weight-system notation, dispatches to the library, and
emits reports as human-readable text or deterministic JSON (stable key
order, rationals as "p/q" strings, schema_version pinned).  Exit codes:
0 success, 1 domain error (bad input, argv usage error, enumeration cap),
2 verification failure (a checker reported fail), 3 internal-consistency
failure.  ``run`` encodes each result once before it returns: a result
holding an integer past the interpreter's int-to-str limit becomes an
out-of-domain report (exit 1) there, so ``main`` renders every report once
and a batch entry fails alike in text and JSON.

Every command is defined once, in ``COMMANDS``: its handler, its target
reader (None if it takes no target), its help line and its parameters with
their defaults.  The argparse subparsers, ``validate_spec``, target parsing,
defaults, dispatch and ``spec_from_args`` all come from that table, so argv,
batch entries and library ``RunSpec``s are validated by the same code.

The environment variable WBLOW_MAX_ENUM caps enumeration work (default 50
million; the budget paragraph of README.md lists what each enumeration is
charged); exceeding the cap exits 1 with an enumeration-limit report.  Batch
files are JSON lists of run specifications; batch results are emitted in
input order, a malformed entry yields an invalid-instance report for that
entry alone, and the aggregate exit code is the maximum of the individual
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable

from . import quotient, wideal  # blowup and lifting load only in the commands that use them
from .arith import check_enum_budget
from .errors import (
    BatchUnreadableError,
    InternalConsistencyError,
    InvalidInstanceError,
    NotationError,
    OutOfDomainError,
    WblowError,
)
from .notation import (
    format_rational,
    parse_polynomial,
    parse_rational,
    parse_singularity,
    parse_weight_system,
)
from .record import Record, set_field


def __getattr__(name):
    """``wblow.cli.blowup`` is the ``wblow.blowup`` module, loaded on first use (PEP 562)."""
    if name == "blowup":
        from . import blowup
        return blowup
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SCHEMA_VERSION = 1

#: The envelope of a JSON report: every key is required, in this order.
_ENVELOPE = {
    "schema_version": {"const": SCHEMA_VERSION},
    "command": {"type": "string"},
    "input": {"type": "object"},
    "status": {"enum": ["ok", "verification-failed", "error"]},
    "exit_code": {"type": "integer", "minimum": 0, "maximum": 3},
    "result": {"type": ["object", "null"]},
    "error": {
        "type": ["object", "null"],
        "properties": {
            "kind": {"type": "string"},
            "message": {"type": "string"},
            "position": {"type": "integer"},
        },
        "required": ["kind", "message"],
    },
    "provenance": {"type": "array", "items": {"type": "string"}},
}

#: Published envelope schema for JSON reports (validated in the test suite).
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": list(_ENVELOPE),
    "properties": _ENVELOPE,
    "additionalProperties": False,
}


class RunSpec(Record):
    """One validated command invocation."""

    def __init__(self, command: str, target: str | None, parameters: dict):
        set_field(self, "command", command)
        set_field(self, "target", target)
        set_field(self, "parameters", parameters)


class Report(Record):
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable

    def __init__(
        self, command: str, input: dict, status: str = "ok", exit_code: int = 0,
        result: dict | None = None, error: dict | None = None, provenance: list | None = None,
    ):
        self.command, self.input, self.status, self.exit_code = command, input, status, exit_code
        self.result, self.error = result, error
        self.provenance = [] if provenance is None else provenance

    def to_payload(self) -> dict:
        own = {"schema_version": SCHEMA_VERSION, "provenance": list(self.provenance)}
        return {key: own[key] if key in own else getattr(self, key) for key in _ENVELOPE}

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.input):
            lines.append(f"input.{key}: {self.input[key]}")
        lines.append(f"status: {self.status}")
        if self.error is not None:
            lines.append(f"error[{self.error['kind']}]: {self.error['message']}")
        if self.result is not None:
            lines.extend(_render_text(self.result, ""))
        for note in self.provenance:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _render_text(value, prefix: str):
    if isinstance(value, dict):
        out = []
        for key in sorted(value):
            out.extend(_render_text(value[key], f"{prefix}{key}."))
        return out
    if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        out = []
        for i, item in enumerate(value):
            out.extend(_render_text(item, f"{prefix}{i}."))
        return out
    return [f"{prefix[:-1]}: {value}"]


def _first_clause(message: str) -> str:
    return re.split("[:;]", message, maxsplit=1)[0]


def _is_digit_limit_error(exc: ValueError) -> bool:
    """Whether ``exc`` is the interpreter's int-to-str digit limit.

    The reference is the error the interpreter itself raises for an integer
    one digit past the limit, compared on its first clause (a later clause
    may name the digit count), so the check follows the interpreter's wording.
    With the limit off (0) the reference prints, so no error matches.
    """
    try:
        str(10 ** sys.get_int_max_str_digits())
    except ValueError as own:
        return _first_clause(str(exc)) == _first_clause(str(own))
    return False


def _error_report(command: str, input_echo: dict, exc: WblowError) -> Report:
    error = {"kind": exc.kind, "message": str(exc)}
    if isinstance(exc, NotationError):
        error["position"] = exc.position
    return Report(command, input_echo, "error", exc.exit_code, error=error)


# ---------------------------------------------------------------------------
# JSON-friendly conversions (deterministic, rationals as "p/q")


def _fracvec(values) -> list:
    return [format_rational(v) for v in values]


def _system_dict(system: wideal.WeightSystem) -> dict:
    return {
        "notation": system.notation(),
        "weights": list(system.weights),
        "m": system.m,
        "lcm": system.lcm,
    }


def _quotient_dict(q: quotient.CyclicQuotientType) -> dict:
    return {"notation": q.notation(), "m": q.m, "weights": list(q.weights)}


def _instance_dict(inst: lifting.LiftInstance) -> dict:
    return {
        "base_weights": list(inst.base_weights),
        "m": inst.m,
        "multiplier": inst.multiplier,
        "normalization_factor": inst.normalization_factor,
        "base_lcm": inst.base_lcm,
        "lifted_weight": inst.lifted_weight,
        "weights": list(inst.weights),
        "step": inst.step,
    }


def _check_dict(report: lifting.CheckReport) -> dict:
    v = report.counterexample
    witness = None if v is None else {
        "d": v.d, "monomial": list(v.monomial), "explanation": v.explanation
    }
    return {"d_range": list(report.d_range), "status": report.status, "counterexample": witness}


def integer(text: str) -> int:
    """An integer as the notation spells it, [+-]?[0-9]+, with spaces around allowed."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _csv_ints(text: str, what: str) -> tuple:
    try:
        return tuple(integer(part) for part in text.split(","))
    except ValueError:
        raise InvalidInstanceError(f"{what} must be comma-separated integers, got {text!r}")


def _relation_dict(rel: quotient.BinomialRelation) -> dict:
    return {"basis": [list(v) for v in rel.basis], "exponents": list(rel.exponents)}


# ---------------------------------------------------------------------------
# Command handlers: each takes the parsed target (None if the command has none) and
# the parameters over the table's defaults, and returns (result, provenance, verification_ok)


def _cmd_charts(system: wideal.WeightSystem, params: dict):
    from . import blowup
    indices = [params["chart"]] if params["chart"] is not None else range(1, system.n + 1)
    check_enum_budget(len(indices) * system.n**2, "chart substitution listing")
    cone_indices = blowup.cone_indices(blowup.build_fan(system))
    charts = []
    for i in indices:
        ch = blowup.chart(system, i)
        charts.append(
            {
                "index": ch.index,
                "order": ch.quotient_type.m,
                "quotient_type": _quotient_dict(ch.quotient_type),
                "substitution": [_fracvec(row) for row in ch.substitution],
                "cone_index": cone_indices[i - 1],
            }
        )
    result = {"system": _system_dict(system), "charts": charts}
    return result, ["charts and cone indices computed exactly from the weight data"], True


def _cmd_fan(system: wideal.WeightSystem, params: dict):
    from . import blowup
    # the exact check takes no grid; --grid is validated and echoed because the report shape is pinned
    grid = params["grid"]
    if grid < 1:
        raise InvalidInstanceError(f"the sample grid must be at least 1, got {grid}")
    fan = blowup.build_fan(system)
    try:
        cone_indices = blowup.cone_indices(fan)
    except InvalidInstanceError:
        raise InternalConsistencyError("the constructed fan failed its own subdivision check")
    result = {
        "system": _system_dict(system),
        "rays": [_fracvec(ray) for ray in fan.rays],
        "cones": [list(cone) for cone in fan.cones],
        "subdivision_check": {"grid": grid, "ok": True},
        "cone_indices": list(cone_indices),
    }
    return result, ["subdivision verified on the deterministic sample grid"], True


def _cmd_ideal(system: wideal.WeightSystem, params: dict):
    k = parse_rational(params["k"])
    ideal = wideal.ideal_generators(system, k)
    result = {
        "system": _system_dict(system),
        "k": format_rational(ideal.k),
        "threshold_numerator": format_rational(ideal.threshold_numerator),
        "generators": [list(g) for g in ideal.gens],
        "monomials_below": wideal.count_below(system, k),
    }
    return result, [], True


def _cmd_wt(system: wideal.WeightSystem, params: dict):
    f = parse_polynomial(params["poly"], nvars=system.n)
    weight = wideal.polynomial_weight(f, system)
    per_monomial = [
        {"exponents": list(s), "weight": format_rational(wideal.monomial_weight(s, system))}
        for s in f.support()
    ]
    result = {
        "system": _system_dict(system),
        "polynomial": f.text(),
        "weight": format_rational(weight),
        "per_monomial": per_monomial,
    }
    return result, [], True


def _cmd_pushforward(system: wideal.WeightSystem, params: dict):
    from . import blowup
    f = parse_polynomial(params["f"], nvars=system.n)
    report = blowup.pushforward_decomposition(f, system, params["a_max"])
    result = {
        "system": _system_dict(system),
        "polynomial": f.text(),
        "multiplicity": format_rational(report.multiplicity),
        "eigenvalue_class": report.eigenvalue_class,
        "levels": [
            {"a": rec.a, "generators": [list(g) for g in rec.ideal.gens]}
            for rec in report.records
        ],
    }
    notes = [
        "the pullback splits as strict transform plus multiplicity times the divisor"
        " (computed); level ideals computed by bounded enumeration",
        blowup.exceptional_info(system).vanishing_fact,
    ]
    return result, notes, True


def _cmd_transform(system: wideal.WeightSystem, params: dict):
    from . import blowup
    g = parse_polynomial(params["g"], nvars=system.n)
    teq = blowup.strict_transform_in_chart(g, system, params["chart"])
    def terms_payload(terms):
        return [{"exponents": _fracvec(e), "coefficient": format_rational(c)} for e, c in terms]
    result = {
        "system": _system_dict(system),
        "chart": teq.chart_index,
        "factored_exponent": format_rational(teq.factored_exponent),
        "residual": terms_payload(teq.terms),
        "divisor_restriction": terms_payload(teq.divisor_restriction()),
    }
    return result, ["exponents are exact rationals in the chart coordinate"], True


def _cmd_lift_check(_, params: dict):
    from . import lifting
    base = _csv_ints(params["sigma_prime"], "sigma-prime")
    inst = lifting.make_lift_instance(base, params["m"], params["a"])
    mutate = params["mutate"]
    if mutate is not None:
        inst = lifting.mutated_instance(inst, mutate)
    report = lifting.verify_decomposition_range(inst, params["dmax"])
    result = {
        "instance": _instance_dict(inst),
        "mutated": mutate is not None,
        "check": _check_dict(report),
    }
    notes = [] if mutate is None else [
        f"lifted weight deliberately offset by {mutate} from its forced value"
    ]
    return result, notes, report.passed


def _cmd_chain(start, params: dict):
    from . import lifting
    if isinstance(start, quotient.CyclicQuotientType):
        start = quotient.HyperquotientType(start, quotient.Polynomial.zero(start.n), 0)
    a_sequence = _csv_ints(params["a_sequence"], "a-sequence")
    report = lifting.chain_report(start, a_sequence, params["dmax"])
    result = {
        "start": start.notation(),
        "initial_type": _quotient_dict(report.initial_type),
        "initial_weights": list(report.initial_weights),
        "d_max": report.d_max,
        "status": report.status,
        "halted_at": report.halted_at,
        "stages": [
            {
                "index": st.index,
                "multiplier": st.multiplier,
                "instance": _instance_dict(st.instance),
                "lifted_type": _quotient_dict(st.lifted_type),
                "check": _check_dict(st.check),
            }
            for st in report.stages
        ],
    }
    return result, list(report.notes), report.status == "pass"


def _cmd_invariants(target, params: dict):
    if not isinstance(target, quotient.CyclicQuotientType):
        raise InvalidInstanceError("invariants takes a cyclic quotient type")
    bound = target.n * target.m if params["degree_bound"] is None else params["degree_bound"]
    basis = quotient.invariant_monoid_basis(target, bound)
    result = {
        "type": _quotient_dict(target),
        "degree_bound": basis.degree_bound,
        "complete": basis.complete,
        "basis": [list(g) for g in basis.generators],
        "relation": None,
    }
    notes = []
    if target.n == 2:
        try:
            result["relation"] = _relation_dict(quotient.binomial_relation_2d(target))
        except WblowError as exc:
            notes.append(f"no binomial relation: {exc}")
    return result, notes, True


def _cmd_example33(_, params: dict):
    r, m, a, exp_n = params["r"], params["m"], params["a"], params["exponent_n"]
    if exp_n < 2:
        raise InvalidInstanceError("the last-variable exponent must be at least 2")
    rm = r * m
    surface = quotient.CyclicQuotientType(rm, (1, rm - 1))
    basis = quotient.invariant_monoid_basis(surface, 2 * rm)
    expected_basis = sorted([(rm, 0), (0, rm), (1, 1)], key=lambda e: (sum(e), e))
    basis_ok = list(basis.generators) == expected_basis and basis.complete

    relation_ok, relation_payload = False, None
    try:
        rel = quotient.binomial_relation_2d(surface)
        relation_payload = _relation_dict(rel)
        relation_ok = rel.basis[2] == (1, 1) and rel.exponents == (1, 1, rm)
    except WblowError:
        pass

    action = quotient.action_lift_check(r, m, a)

    ambient = quotient.CyclicQuotientType(r, (a, -a, 1, 0))
    g = quotient.Polynomial(4, {(1, 1, 0, 0): 1, (0, 0, rm, 0): 1, (0, 0, 0, exp_n): 1})
    eig = quotient.semi_invariant_class(g, ambient)
    eig_ok = eig == 0

    ok = basis_ok and relation_ok and action.ok and eig_ok
    result = {
        "r": r,
        "m": m,
        "a": a,
        "surface_type": _quotient_dict(surface),
        "surface_basis": [list(g_) for g_ in basis.generators],
        "basis_ok": basis_ok,
        "relation": relation_payload,
        "relation_ok": relation_ok,
        "action_lift": {
            "ok": action.ok,
            "group_order": action.group_order,
            "induced_weights": list(action.induced),
            "expected_weights": list(action.expected),
        },
        "equation": g.text(),
        "eigenvalue_class": eig,
        "eigenvalue_ok": eig_ok,
        "checks_passed": ok,
    }
    notes = [
        "verifies exponent and weight bookkeeping only: invariant basis,"
        " binomial relation, lifted-action weights, eigenvalue class"
    ]
    return result, notes, ok


def _cmd_truncation(system: wideal.WeightSystem, params: dict):
    if params["find_stable"]:
        d_max, limit = params["dmax"], params["limit"]
        found = wideal.find_stable_b(system, d_max, limit)
        result = {
            "system": _system_dict(system),
            "mode": "find-stable",
            "d_max": d_max,
            "search_limit": limit,
            "stable_b": None if found is None else format_rational(found),
        }
        return result, [], True
    if params["b"] is None or params["d"] is None:
        raise InvalidInstanceError("truncation needs either --find-stable or both --b and --d")
    b = parse_rational(params["b"])
    report = wideal.product_vs_truncation(system, b, params["d"])
    result = {
        "system": _system_dict(system),
        "mode": "compare",
        "b": format_rational(report.b),
        "d": report.d,
        "equal": report.equal,
        "containment_ok": report.containment_ok,
        "witness": None if report.witness is None else list(report.witness),
        "truncation_generators": [list(g) for g in report.truncation.gens],
        "power_generators": [list(g) for g in report.power_gens],
    }
    return result, [], True


# ---------------------------------------------------------------------------
# The command table: argparse, validation, target parsing, parameter defaults
# and dispatch are generated from it.


class Param(Record):
    """A command parameter; its flag is ``--`` + name with ``_`` as ``-``."""

    def __init__(
        self, name: str, type: type, required: bool = False, help: str | None = None,
        default: object = None,
    ):
        set_field(self, "name", name)
        set_field(self, "type", type)  # int, str or bool (a bool is a flag that takes no value)
        set_field(self, "required", required)
        set_field(self, "help", help)
        set_field(self, "default", default)  # what the handler sees when it is not given


class Command(Record):
    def __init__(
        self, handler: Callable[[object, dict], tuple], target: Callable[[str], object] | None,
        help: str, params: tuple[Param, ...] = (),
    ):
        set_field(self, "handler", handler)
        set_field(self, "target", target)  # reads the target; None: the command takes none
        set_field(self, "help", help)
        set_field(self, "params", params)


COMMANDS = {
    "charts": Command(
        _cmd_charts, parse_weight_system, "chart types and substitutions", (Param("chart", int),)
    ),
    "fan": Command(
        _cmd_fan, parse_weight_system, "subdivision fan and its checks",
        (Param("grid", int, default=4),),
    ),
    "ideal": Command(
        _cmd_ideal, parse_weight_system, "minimal generators at a threshold",
        (Param("k", str, True, "threshold, as 'p/q' or an integer"),),
    ),
    "wt": Command(_cmd_wt, parse_weight_system, "weight of a polynomial", (Param("poly", str, True),)),
    "pushforward": Command(
        _cmd_pushforward, parse_weight_system, "divisor pullback decomposition",
        (Param("f", str, True, "semi-invariant equation"), Param("a_max", int)),
    ),
    "transform": Command(
        _cmd_transform, parse_weight_system, "strict transform in one chart",
        (Param("g", str, True), Param("chart", int, True)),
    ),
    "lift-check": Command(
        _cmd_lift_check, None, "decomposition identity sweep",
        (
            Param("sigma_prime", str, True), Param("m", int, True), Param("a", int, True),
            Param("dmax", int, default=6), Param("mutate", int),
        ),
    ),
    "chain": Command(
        _cmd_chain, parse_singularity, "iterated lifting chain",
        (Param("a_sequence", str, True), Param("dmax", int, default=4)),
    ),
    "invariants": Command(
        _cmd_invariants, parse_singularity, "invariant monomial basis",
        (Param("degree_bound", int, help="degree bound (default: n*m of the target)"),),
    ),
    "example33": Command(
        _cmd_example33, None, "bundled worked surface example",
        (
            Param("r", int, True), Param("m", int, True), Param("a", int, True),
            Param("exponent_n", int, default=2),
        ),
    ),
    "truncation": Command(
        _cmd_truncation, parse_weight_system, "power vs truncation ideals",
        (
            Param("b", str, help="threshold step multiple, as 'p/q'"), Param("d", int),
            Param("find_stable", bool, default=False), Param("dmax", int, default=3),
            Param("limit", int, default=8),
        ),
    ),
}


def _has_type(value, type_: type) -> bool:
    # bool is a subclass of int, but True is not an int parameter
    return isinstance(value, type_) and (type_ is bool or not isinstance(value, bool))


def validate_spec(spec: RunSpec) -> None:
    """Check the shape, then the command, target and parameter names, types and presence."""
    if not isinstance(spec.command, str):
        raise InvalidInstanceError(f"command must be a string, got {_echo(spec.command)!r}")
    if spec.target is not None and not isinstance(spec.target, str):
        raise InvalidInstanceError(f"target must be a string, got {_echo(spec.target)!r}")
    if not isinstance(spec.parameters, dict):
        raise InvalidInstanceError(f"parameters must be an object, got {_echo(spec.parameters)!r}")
    command = COMMANDS.get(spec.command)
    if command is None:
        raise InvalidInstanceError(f"unknown command {spec.command!r}")
    if command.target and not spec.target:
        raise InvalidInstanceError(f"command {spec.command!r} requires a target")
    if not command.target and spec.target:
        raise InvalidInstanceError(f"command {spec.command!r} takes no target")
    params = {p.name: p for p in command.params}
    for name, value in spec.parameters.items():
        param = params.get(name)
        if param is None:
            raise InvalidInstanceError(f"unknown parameter {_echo(name)!r} for {spec.command!r}")
        if not _has_type(value, param.type):
            raise InvalidInstanceError(
                f"parameter {name!r} of {spec.command!r} must be {param.type.__name__},"
                f" got {_echo(value)!r}"
            )
    for p in command.params:
        if p.required and p.name not in spec.parameters:
            raise InvalidInstanceError(f"missing parameter {p.name!r} for {spec.command!r}")


def _too_long(value) -> bool:
    """Whether ``value`` is an integer past the interpreter's int-to-str limit."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return True
    return False


def _digits() -> str:
    return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def _echo(value):
    """``value`` if JSON holds it exactly (it reads back equal), else a note string naming it."""
    if _too_long(value):
        return f"<{_digits()}>"
    try:
        if json.loads(json.dumps(value, allow_nan=False)) == value:
            return value
    except (TypeError, ValueError, RecursionError):  # no JSON type, or nan, inf or a cycle
        pass
    return f"<{type(value).__name__} value that JSON cannot hold>"


def run(spec: RunSpec) -> Report:
    """Validate, parse the target, fill in defaults, dispatch, and wrap the outcome.

    The input is echoed value by value, each one JSON cannot hold exactly
    as a note (``_echo``).  An integer past the interpreter's int-to-str
    limit makes the run an out-of-domain report: in a parameter, refused
    first, or met while the handler ran, or in the result, which is encoded
    once (``json.dumps``, the C encoder) before it is wrapped.  So every
    report returned renders, in text and in JSON.
    """
    name = spec.command if isinstance(spec.command, str) else str(_echo(spec.command))
    params, too_long = spec.parameters, []
    if isinstance(params, dict) and all(isinstance(key, str) for key in params):
        parameters = {key: _echo(params[key]) for key in sorted(params)}
        too_long = [key for key in parameters if _too_long(params[key])]
    else:  # not an object of named values: echoed whole
        parameters = _echo(params)
    input_echo = {"target": _echo(spec.target), "parameters": parameters}
    digits = _digits()
    try:
        if too_long:
            raise OutOfDomainError(
                f"parameter {too_long[0]!r} holds {digits}, too long to be written as text"
            )
        validate_spec(spec)
        command = COMMANDS[spec.command]
        target = command.target(spec.target) if command.target else None
        params = {p.name: p.default for p in command.params} | spec.parameters
        result, provenance, ok = command.handler(target, params)
        json.dumps(result)
    except WblowError as exc:
        return _error_report(name, input_echo, exc)
    except ValueError as exc:  # the result, a rational or a message spelled with a too-long integer
        if not _is_digit_limit_error(exc):
            raise
        refusal = OutOfDomainError(f"the result holds {digits}, too long to be written as text")
        return _error_report(name, input_echo, refusal)
    return Report(
        command=spec.command,
        input=input_echo,
        status="ok" if ok else "verification-failed",
        exit_code=0 if ok else 2,
        result=result,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Batch files


def _read_batch(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise BatchUnreadableError(str(exc)) from exc
    if not isinstance(entries, list):
        raise BatchUnreadableError("batch file must hold a JSON list")
    return entries


def _spec_of_entry(entry) -> RunSpec:
    """Check that a batch entry is an object of known keys; validate_spec checks the rest."""
    if not isinstance(entry, dict):
        raise InvalidInstanceError("each batch entry must be an object")
    unknown = set(entry) - {"command", "target", "parameters"}
    if unknown:
        raise InvalidInstanceError(f"unknown batch entry keys: {sorted(unknown)}")
    return RunSpec(entry.get("command", ""), entry.get("target"), entry.get("parameters", {}))


def run_batch(path: str) -> Report:
    """Run every spec in a JSON batch file; results in input order, exit = max code."""
    input_echo = {"path": path}
    try:
        entries = _read_batch(path)
    except BatchUnreadableError as exc:
        return _error_report("batch", input_echo, exc)
    reports = []
    for entry in entries:
        try:
            reports.append(run(_spec_of_entry(entry)))
        except InvalidInstanceError as exc:
            reports.append(_error_report("batch-entry", {"entry": repr(entry)}, exc))
    statuses = {r.status for r in reports}
    status = next((s for s in ("error", "verification-failed") if s in statuses), "ok")
    return Report(
        command="batch",
        input=input_echo,
        status=status,
        exit_code=max((r.exit_code for r in reports), default=0),
        result={"results": [r.to_payload() for r in reports]},
    )


def _batch_text(report: Report) -> str:
    lines = [f"batch: {report.input['path']}", f"status: {report.status}"]
    for i, rep in enumerate((report.result or {}).get("results", [])):
        lines.append(f"[{i}] {rep['command']}: {rep['status']} (exit {rep['exit_code']})")
    if report.error:
        lines.append(f"error: {report.error['message']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argparse wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors become invalid-instance reports (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InvalidInstanceError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wblow",
        description="Exact computations for weighted blow-ups of quotient singularities.",
        epilog=(
            "Notation: '1/m(a1,...,an)' for weight systems and cyclic quotients;"
            " '1/m(a0,...,an;e){g=<poly>}' for hyperquotients."
            " WBLOW_MAX_ENUM caps enumeration work (default 50 million); the README's"
            " budget paragraph lists what each enumeration is charged."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        if command.target:
            p.add_argument("target", nargs="?")
        for param in command.params:
            flag = "--" + param.name.replace("_", "-")
            help_ = param.help
            if param.required or param.default is not None:
                note = "required" if param.required else f"default: {param.default}"
                help_ = f"{help_ or ''} ({note})".lstrip()
            # default=None keeps a parameter that was not given out of the report's input echo
            if param.type is bool:
                p.add_argument(flag, dest=param.name, action="store_true", default=None, help=help_)
            else:
                type_ = integer if param.type is int else param.type
                p.add_argument(flag, dest=param.name, type=type_, help=help_)
    p = sub.add_parser("batch", parents=[common], help="run a JSON list of specs")
    p.add_argument("path")
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    given = ((p.name, getattr(args, p.name)) for p in COMMANDS[args.command].params)
    params = {name: value for name, value in given if value is not None}
    return RunSpec(args.command, getattr(args, "target", None), params)


def _wants_json(argv: list) -> bool:
    return "--format=json" in argv or any(
        a == "--format" and b == "json" for a, b in zip(argv, argv[1:])
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except InvalidInstanceError as exc:
        named = argv[0] if argv and argv[0] in (*COMMANDS, "batch") else "wblow"
        report = _error_report(named, {"argv": argv}, exc)
        rendered = report.to_json() if _wants_json(argv) else report.to_text()
    else:
        if args.command == "batch":
            report, to_text = run_batch(args.path), _batch_text
        else:
            report, to_text = run(spec_from_args(args)), Report.to_text
        rendered = report.to_json() if args.format == "json" else to_text(report)
    # a report with a result, a batch report included, is output; one without is an error
    stream = sys.stderr if report.result is None else sys.stdout
    try:
        print(rendered, file=stream, flush=True)
    except BrokenPipeError:  # the reader left early, as in `wblow ... | head`
        with open(os.devnull, "w") as devnull:  # so the flush at exit cannot fail again
            os.dup2(devnull.fileno(), stream.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
