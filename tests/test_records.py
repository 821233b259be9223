"""The frozen result records: value equality and hash, copies and pickles, frozen fields, repr."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from wblow.blowup import (
    build_fan,
    chart,
    exceptional_info,
    pushforward_decomposition,
    strict_transform_in_chart,
)
from wblow.cli import COMMANDS, Param, RunSpec
from wblow.notation import parse_polynomial, parse_singularity
from wblow.quotient import (
    CyclicQuotientType,
    action_lift_check,
    binomial_relation_2d,
    invariant_monoid_basis,
)
from wblow.wideal import WeightSystem, ideal_generators, product_vs_truncation

SYSTEM = WeightSystem((2, 3), 5)
SURFACE = CyclicQuotientType(5, (1, 4))
PUSHFORWARD = pushforward_decomposition(parse_polynomial("x1^3", nvars=2), WeightSystem((1, 2)), 2)

#: One record of every frozen record class, built the way the library builds it.
RECORDS = {
    "Fan": build_fan(SYSTEM),
    "Chart": chart(SYSTEM, 1),
    "PushforwardRecord": PUSHFORWARD.records[1],
    "PushforwardReport": PUSHFORWARD,
    "TransformedEquation": strict_transform_in_chart(parse_polynomial("x1^3+x2^2", nvars=2), SYSTEM, 2),
    "ExceptionalInfo": exceptional_info(SYSTEM),
    "CyclicQuotientType": SURFACE,
    "HyperquotientType": parse_singularity("1/5(1,4;0){g=x1*x2}"),
    "MonoidBasis": invariant_monoid_basis(SURFACE, 10),
    "BinomialRelation": binomial_relation_2d(SURFACE),
    "ActionLiftReport": action_lift_check(2, 1, 1),
    "WeightSystem": SYSTEM,
    "WeightedIdeal": ideal_generators(SYSTEM, Fraction(7, 5)),
    "TruncationReport": product_vs_truncation(WeightSystem((1, 2)), 2, 2),
    "RunSpec": RunSpec("ideal", "1/1(1,2)", {"k": "3"}),
    "Param": Param("k", str, True, "threshold"),
    "Command": COMMANDS["ideal"],
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    values = [getattr(record, field) for field in type(record).__slots__]
    for field, value in zip(type(record).__slots__, values):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert [getattr(record, field) for field in type(record).__slots__] == values
    # by value: a record rebuilt from its fields is equal, and has the same hash where it has one
    twin = type(record)(*values)
    assert twin is not record and twin == record and not twin != record
    if name == "RunSpec":  # its parameters are a dict, so it has no hash, as before
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(values))
    assert record.__eq__(tuple(values)) is NotImplemented
    assert all(record != other for other in RECORDS.values() if other is not record)
    for copier in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert type(copier(record)) is type(record) and copier(record) == record


def test_repr_is_the_dataclass_one():
    assert repr(SYSTEM) == "WeightSystem(weights=(2, 3), m=5)"
    assert repr(chart(SYSTEM, 1)) == (
        "Chart(index=1, quotient_type=CyclicQuotientType(m=2, weights=(1, 1)), m=5,"
        " numerators=((2, 0), (3, 5)))"
    )
