"""Exception hierarchy.

Every error carries a machine-readable ``kind`` used verbatim in JSON error
objects and the process ``exit_code`` of its report: 1 for bad input, 3 for
an internal bug.
"""

from __future__ import annotations


class WblowError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "error"
    exit_code = 1


class InvalidWeightsError(WblowError):
    kind = "invalid-weights"


class DimensionError(WblowError):
    kind = "dimension-mismatch"


class NotSemiInvariantError(WblowError):
    """A polynomial mixes eigenvalue classes; the offending monomials are kept."""

    kind = "not-semi-invariant"

    def __init__(self, message, monomials=()):
        super().__init__(message)
        self.monomials = tuple(monomials)


class UnsupportedShapeError(WblowError):
    kind = "unsupported-shape"


class InvalidInstanceError(WblowError):
    kind = "invalid-instance"


class UndefinedWeightError(WblowError):
    kind = "undefined-weight"


class OutOfDomainError(WblowError):
    kind = "out-of-domain"


class EnumerationLimitError(WblowError):
    kind = "enumeration-limit"


class BatchUnreadableError(WblowError):
    """A batch file could not be read, is not JSON, or does not hold a list."""

    kind = "batch-unreadable"


class NotationError(WblowError):
    """Parse failure; ``position`` is 1-based offset into the input text."""

    kind = "parse-error"

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class InternalConsistencyError(WblowError):
    """Two routes that must agree by construction disagreed: a bug, not bad input."""

    kind = "internal-consistency"
    exit_code = 3
