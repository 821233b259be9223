"""Exact arithmetic primitives: integer gcd/lcm, exponent vectors, the enumeration budget.

Exponent vectors are plain tuples of non-negative ints; every operation that
combines two of them checks lengths, because silently zip-truncating mixed
dimensions is the classic lattice-code bug.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence
from operator import le

from .errors import DimensionError, EnumerationLimitError, InvalidWeightsError

ExpVec = tuple  # tuple[int, ...]; alias kept abstract for 3.10 readability

#: Default cap on enumeration work; override with the WBLOW_MAX_ENUM environment
#: variable.  The budget paragraph of README.md lists what each enumeration costs.
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


def minimalize(vectors) -> tuple:
    """Divisibility-minimal elements of a finite set of same-length exponent vectors."""
    out = []
    for v in sorted(set(vectors), key=lambda e: (sum(e), e)):  # only earlier ones can divide v
        if not any(all(map(le, u, v)) for u in out):
            out.append(v)
    return tuple(out)


def vec_add(s: ExpVec, t: ExpVec) -> ExpVec:
    """Entrywise sum (monomial product)."""
    _same_length(s, t)
    return tuple(a + b for a, b in zip(s, t))


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for positive q."""
    return -(-p // q)


def add_multiples(reach: int, weight: int, cap: int, hi: int) -> int:
    """The bitset ``reach`` with 0..cap copies of ``weight`` added to its sums, cut above ``hi``.

    Python ints are used as bitsets: bit v of the result is set iff some
    v <= hi is t * weight plus a set bit of ``reach``, 0 <= t <= cap.  The
    cap is split into pieces 1, 2, 4, ... and a remainder (Martello & Toth,
    *Knapsack Problems*, 1990, section 3.2), so about log2(cap)
    shift-and-or steps of hi + 1 bits do it.  ``reach`` must hold no bit
    above ``hi``.
    """
    full = (1 << (hi + 1)) - 1
    c, k = min(cap, hi // weight), 1
    while c:
        k = min(k, c)
        reach |= (reach << k * weight) & full
        c, k = c - k, k + k
    return reach


def suffix_sums(weights: Sequence[int], caps: Sequence[int], hi: int) -> list:
    """The bitsets of the sums of the last k entries, each within its cap, cut above ``hi``.

    Entry k of the list has bit w set iff the last k entries can weigh
    w <= hi; entry 0 is 1 (the empty sum) and the last one holds the sums
    of all the entries.  :func:`add_multiples` builds each entry from the
    one before, so about n * log2(max cap) shift-and-or steps build them all
    (Martello & Toth's suffix bitsets).
    """
    suffixes = [1]
    for w, c in zip(reversed(weights), reversed(caps)):
        suffixes.append(add_multiples(suffixes[-1], w, c, hi))
    return suffixes


def lex_walk(
    weights: Sequence[int], caps: Sequence[int], suffixes: list, lo: int, hi: int
) -> ExpVec | None:
    """The lexicographically least h <= caps with lo <= sum(h_i * weights_i) <= hi, or None.

    ``suffixes[k]``, for k < n = len(weights), must hold the weights of the
    last k entries within their caps up to ``hi`` at least, as
    :func:`suffix_sums` builds them; entries from n on are not read.  It
    needs hi >= max(lo, 0), which :func:`lex_least` checks.  The entries are
    fixed one at a time from the first, each to the least value that the
    suffix after it can still complete into [lo, hi].
    """
    out = []
    window = (1 << (hi - lo + 1)) - 1  # [lo, hi] keeps its width as entries are fixed
    for w, c, reach in zip(weights, caps, reversed(suffixes[:len(weights)])):
        for t in range(min(c, hi // w) + 1):
            if lo <= t * w or reach >> (lo - t * w) & window:  # every suffix reaches weight 0
                break
        else:
            return None  # only the first entry can fail: later ones complete a feasible prefix
        out.append(t)
        lo, hi = lo - t * w, hi - t * w
    return tuple(out)


def lex_least(weights: Sequence[int], caps: Sequence[int], lo: int, hi: int) -> ExpVec | None:
    """The lexicographically least h <= caps with lo <= sum(h_i * weights_i) <= hi, or None.

    A bounded subset sum on Python ints used as bitsets: :func:`suffix_sums`
    builds the sums of every suffix after the first entry up to ``hi``, and
    :func:`lex_walk` reads h off them.
    """
    if hi < max(lo, 0):
        return None
    return lex_walk(weights, caps, suffix_sums(weights[1:], caps[1:], hi), lo, hi)


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
    or lifting-sweep steps, or the size of a nominal box.
    """
    limit = max_enum_points()
    if points > limit:
        try:
            count = str(points)
        except ValueError:  # past the interpreter's int-to-str digit limit
            count = f"more than 2^{points.bit_length() - 1}"
        raise EnumerationLimitError(
            f"{what} needs {count} enumeration steps, over the limit of {limit};"
            " raise WBLOW_MAX_ENUM to allow it"
        )
