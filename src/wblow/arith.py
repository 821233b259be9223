"""Exact arithmetic primitives: integer gcd/lcm, exponent vectors, the enumeration budget.

Exponent vectors are plain tuples of non-negative ints; every operation that
combines two of them checks lengths, because silently zip-truncating mixed
dimensions is the classic lattice-code bug.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

from .errors import DimensionError, EnumerationLimitError, InvalidWeightsError

ExpVec = tuple  # tuple[int, ...]; alias kept abstract for 3.10 readability

#: Default cap on enumeration work: grid points for the fan check,
#: n*ceil(k*m) steps for count_below, residue-table steps and per-degree
#: scans for the lifting check, nominal box sizes (lattice points)
#: elsewhere; override with the WBLOW_MAX_ENUM environment variable.
DEFAULT_MAX_ENUM = 50_000_000


def expvec(entries: Iterable[int]) -> ExpVec:
    """Validate and freeze an exponent vector: non-empty, non-negative ints."""
    t = tuple(entries)
    if not t:
        raise DimensionError("exponent vector must have length >= 1")
    for e in t:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise InvalidWeightsError(f"exponent entries must be non-negative integers, got {e!r}")
    return t


def _check_weights(weights: Sequence[int]) -> tuple:
    if len(weights) == 0:
        raise InvalidWeightsError("weight sequence must be non-empty")
    t = tuple(weights)
    for w in t:
        if not isinstance(w, int) or isinstance(w, bool) or w <= 0:
            raise InvalidWeightsError(f"weights must be positive integers, got {w!r}")
    return t


def normalize_weights(weights: Sequence[int]) -> tuple[tuple, int]:
    """Divide out the gcd of a sequence of positive weights.

    Returns ``(reduced, factor)`` with ``gcd(reduced) == 1`` and
    ``weights[i] == factor * reduced[i]``.
    """
    t = _check_weights(weights)
    g = math.gcd(*t)
    return tuple(w // g for w in t), g


def lcm_of(weights: Sequence[int]) -> int:
    """Least common multiple of a sequence of positive integers."""
    t = _check_weights(weights)
    return math.lcm(*t)


def _same_length(s: ExpVec, t: ExpVec) -> None:
    if len(s) != len(t):
        raise DimensionError(f"exponent vectors of lengths {len(s)} and {len(t)} cannot be combined")


def divides(s: ExpVec, t: ExpVec) -> bool:
    """True iff the monomial with exponents ``s`` divides the one with ``t``."""
    _same_length(s, t)
    return all(a <= b for a, b in zip(s, t))


def vec_add(s: ExpVec, t: ExpVec) -> ExpVec:
    """Entrywise sum (monomial product)."""
    _same_length(s, t)
    return tuple(a + b for a, b in zip(s, t))


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for positive q."""
    return -(-p // q)


def max_enum_points() -> int:
    """Current enumeration budget, from WBLOW_MAX_ENUM or the default."""
    raw = os.environ.get("WBLOW_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
    except ValueError:
        raise EnumerationLimitError(f"WBLOW_MAX_ENUM must be an integer, got {raw!r}") from None
    if value <= 0:
        raise EnumerationLimitError("WBLOW_MAX_ENUM must be positive")
    return value


def check_enum_budget(points: int, what: str) -> None:
    """Refuse an enumeration whose counted work exceeds the configured budget.

    ``points`` is the work the caller counts: grid points, dynamic-program
    or residue-table steps, or the size of a nominal box.
    """
    limit = max_enum_points()
    if points > limit:
        raise EnumerationLimitError(
            f"{what} needs {points} enumeration steps, over the limit of {limit};"
            " raise WBLOW_MAX_ENUM to allow it"
        )
