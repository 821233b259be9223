"""Exact-arithmetic toolkit for weighted blow-ups of quotient singularities.

Computes blow-up charts, weighted monomial ideals, exceptional-divisor
valuations, strict transforms, and mechanically verifies the monomial-ideal
decomposition through which a weighted blow-up structure on a hyperplane
section extends to the ambient contraction.  All arithmetic is exact.
"""

from .arith import ExpVec, divides, expvec, lcm_of, normalize_weights
from .blowup import (
    Chart,
    ExceptionalInfo,
    Fan,
    build_fan,
    chart,
    cone_index,
    exceptional_info,
    exceptional_valuation,
    fan_is_subdivision,
    pushforward_decomposition,
    strict_transform_in_chart,
)
from .errors import WblowError
from .lifting import (
    CheckReport,
    LiftInstance,
    chain_report,
    make_lift_instance,
    mutated_instance,
    mutation_study,
    verify_decomposition,
    verify_decomposition_range,
)
from .notation import parse_polynomial, parse_rational, parse_singularity, parse_weight_system
from .quotient import (
    CyclicQuotientType,
    HyperquotientType,
    Polynomial,
    action_lift_check,
    binomial_relation_2d,
    invariant_monoid_basis,
    lift_type,
    section_type,
    semi_invariant_class,
)
from .wideal import (
    WeightedIdeal,
    WeightSystem,
    contains,
    count_below,
    find_stable_b,
    ideal_generators,
    monomial_weight,
    polynomial_weight,
    product_vs_truncation,
)

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "CheckReport",
    "CyclicQuotientType",
    "ExceptionalInfo",
    "ExpVec",
    "Fan",
    "HyperquotientType",
    "LiftInstance",
    "Polynomial",
    "WblowError",
    "WeightSystem",
    "WeightedIdeal",
    "action_lift_check",
    "binomial_relation_2d",
    "build_fan",
    "chain_report",
    "chart",
    "cone_index",
    "contains",
    "count_below",
    "divides",
    "exceptional_info",
    "exceptional_valuation",
    "expvec",
    "fan_is_subdivision",
    "find_stable_b",
    "ideal_generators",
    "invariant_monoid_basis",
    "lcm_of",
    "lift_type",
    "make_lift_instance",
    "monomial_weight",
    "mutated_instance",
    "mutation_study",
    "normalize_weights",
    "parse_polynomial",
    "parse_rational",
    "parse_singularity",
    "parse_weight_system",
    "polynomial_weight",
    "product_vs_truncation",
    "pushforward_decomposition",
    "section_type",
    "semi_invariant_class",
    "strict_transform_in_chart",
    "verify_decomposition",
    "verify_decomposition_range",
]
