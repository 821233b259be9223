"""Exact-arithmetic toolkit for weighted blow-ups of quotient singularities.

Computes blow-up charts, weighted monomial ideals, exceptional-divisor
valuations, strict transforms, and mechanically verifies the monomial-ideal
decomposition through which a weighted blow-up structure on a hyperplane
section extends to the ambient contraction.  All arithmetic is exact.

The exports below load on first use (PEP 562), so ``python -m wblow`` pays
only for the modules its command needs.
"""

import importlib

__version__ = "0.1.0"

#: Every public name, by the module that defines it.
_EXPORTS = {
    "arith": ("ExpVec", "divides", "expvec", "lcm_of", "normalize_weights"),
    "blowup": (
        "Chart", "ExceptionalInfo", "Fan", "build_fan", "chart", "cone_index", "cone_indices",
        "exceptional_info", "exceptional_valuation", "fan_is_subdivision",
        "pushforward_decomposition", "strict_transform_in_chart",
    ),
    "errors": ("WblowError",),
    "lifting": (
        "CheckReport", "LiftInstance", "chain_report", "make_lift_instance", "mutated_instance",
        "mutation_study", "verify_decomposition", "verify_decomposition_range",
    ),
    "notation": ("parse_polynomial", "parse_rational", "parse_singularity", "parse_weight_system"),
    "quotient": (
        "CyclicQuotientType", "HyperquotientType", "Polynomial", "action_lift_check",
        "binomial_relation_2d", "invariant_monoid_basis", "lift_type", "section_type",
        "semi_invariant_class",
    ),
    "wideal": (
        "WeightedIdeal", "WeightSystem", "contains", "count_below", "find_stable_b",
        "ideal_generators", "monomial_weight", "polynomial_weight", "product_vs_truncation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain module-dict hits
    return value


def __dir__():
    return sorted([*globals(), *__all__])
