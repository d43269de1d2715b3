"""Exception types shared across the package."""

from numbers import Integral


class CtrecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CtrecError):
    """Array shapes or label counts are inconsistent with the structure."""


class InvalidEntry(CtrecError):
    """An input matrix contains NaN or infinite entries."""


class InvalidInput(CtrecError):
    """A scalar or configuration argument is out of its admissible range."""


def require_integer(name: str, value, minimum: int) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is an integer (a bool is
    not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise InvalidInput(
            f"{name} must be an integer of at least {minimum}, got {value!r}"
        )


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
