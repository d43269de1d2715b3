"""Exception types shared across the package, and its input rules.

Each input rule has one helper that every entry point goes through:
:func:`require_finite` for arrays, :func:`require_integer` for counts,
orders and horizons, :func:`require_real` for other scalars,
``temporal.whole_cycles`` for ``n`` series by whole cycles,
``tableau.tableau_values`` for a tableau's shape and entries,
``hierarchy._labels`` for labels, ``io._key_value`` for ``key = value`` lines.
"""

import sys
from numbers import Integral, Real

import numpy as np

__all__ = [
    "CtrecError",
    "DimensionMismatch",
    "InvalidEntry",
    "InvalidInput",
    "RaggedEdge",
    "NotAFactor",
    "DegenerateSample",
    "SingularCovariance",
    "SingularSystem",
    "OrderingMismatch",
    "NonConvergence",
    "BenchmarkZero",
    "EmptySelection",
]


class CtrecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CtrecError):
    """Array shapes or label counts are inconsistent with the structure."""


class InvalidEntry(CtrecError):
    """An input array has an entry that is not a number, or NaN or infinite."""


class InvalidInput(CtrecError):
    """A scalar or configuration argument is out of its admissible range."""


def require_integer(name: str, value, minimum: int) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is an integer (a bool is
    not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise InvalidInput(
            f"{name} must be an integer of at least {minimum}, got {value!r}"
        )


def require_real(name: str, value, minimum: float | None = None) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is a real number (a bool
    is not) in the float range, so finite, of at least ``minimum`` if given."""
    low = -sys.float_info.max if minimum is None else minimum
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not low <= value <= sys.float_info.max):  # NaN fails too
        bound = "" if minimum is None else f" of at least {minimum}"
        raise InvalidInput(f"{name} must be finite, a real number{bound}, got {value!r}")


def require_finite(A, what: str) -> np.ndarray:
    """``A`` as a float array; :class:`InvalidEntry` for an entry that is not
    a number, or that is NaN or infinite."""
    try:
        A = np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidEntry(f"{what} has non-numeric entries") from exc
    if not np.all(np.isfinite(A)):
        raise InvalidEntry(f"{what} contains NaN or infinite entries")
    return A


class RaggedEdge(CtrecError):
    """Series length is not a whole number of observation cycles."""


class NotAFactor(CtrecError):
    """Requested aggregation order does not divide the cycle length."""


class DegenerateSample(CtrecError):
    """A sample moment matrix has a zero diagonal entry."""


class SingularCovariance(CtrecError):
    """A covariance estimate is singular; the message names the violated
    sample-size condition."""


class SingularSystem(CtrecError):
    """The normal-equations matrix of a reconciliation solve could not be
    factorized."""


class OrderingMismatch(CtrecError):
    """Residual rows are not ordered by series and then by aggregation
    level as the tableau convention requires."""


class NonConvergence(CtrecError):
    """Iterative reconciliation hit the iteration cap.

    Carries the per-iteration discrepancy trace in ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class BenchmarkZero(CtrecError):
    """The benchmark accuracy index is zero while the candidate's is not."""


class EmptySelection(CtrecError):
    """An accuracy-index selection matched no cells."""
