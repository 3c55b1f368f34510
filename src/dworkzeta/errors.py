"""Exception hierarchy shared across the package.

Every error class maps to a distinct nonzero CLI exit code (see cli.py).
A retired class leaves its code unused: 8 was the reduction's guard against
non-termination, which the bounded degree-by-degree sweep does not need.
Messages state the mathematical condition that failed so that a report is
actionable without reading the source.
"""

from __future__ import annotations


class DworkZetaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInput(DworkZetaError):
    """Malformed or out-of-contract input (zero coefficient, bad mode, ...)."""

    exit_code = 2


class InvalidFieldSpec(DworkZetaError):
    """The finite-field description is unusable (e.g. reducible polynomial)."""

    exit_code = 3


class NotFullDimensional(DworkZetaError):
    """The Newton polytope does not span the ambient space."""

    exit_code = 4


class UnsupportedCharacteristic(DworkZetaError):
    """p = 2 (or another unsupported characteristic) was requested."""

    exit_code = 5


class NondegeneracyFailure(DworkZetaError):
    """The input polynomial appears to be degenerate.

    Detected in practice when the Jacobian-ring linear algebra cannot proceed
    with unit pivots: for a nondegenerate polynomial (no face restriction
    shares a zero with all its logarithmic derivatives over the torus of the
    algebraic closure) the quotient is a free module with a monomial basis and
    every needed pivot is a unit.
    """

    exit_code = 6


class DecompositionError(DworkZetaError):
    """A cone monomial above the top degree admits no valid divisor
    decomposition (at or below it, a monomial that is not a column breaks
    the mode restriction: PrecisionOrLogicError)."""

    exit_code = 7


class InternalPrecisionError(DworkZetaError):
    """A coefficient that must be p-integral came out with a denominator."""

    exit_code = 9


class PrecisionOrLogicError(DworkZetaError):
    """A structural divisibility guaranteed by the theory failed to hold."""

    exit_code = 10


class InsufficientPrecision(DworkZetaError):
    """Lifted coefficients violate the Weil-type bound; raise the precision."""

    exit_code = 11


class ConsistencyFailure(DworkZetaError):
    """The assembled zeta function produced impossible point counts."""

    exit_code = 12


# The package's one enumeration budget: the most points, candidates,
# congruence solutions or series coefficients one enumeration may visit.
DEFAULT_BUDGET = 10 ** 8


class BudgetExceeded(DworkZetaError):
    """An enumeration would visit more than DEFAULT_BUDGET items."""

    exit_code = 13
