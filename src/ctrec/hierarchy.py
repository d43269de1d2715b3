"""Cross-sectional (contemporaneous) hierarchy structures.

A hierarchy over ``n = n_a + n_b`` series is described by an aggregation
matrix ``C`` of shape ``(n_a, n_b)`` mapping bottom series to upper series.
From it the summing matrix ``S = [C; I]`` and the zero-constraints kernel
``U' = [I | -C]`` are derived.  Any matrix whose rows are linearly
independent summation (or weighted-summation) rules is accepted; the
structure does not have to be a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput, require_finite

__all__ = [
    "CrossSectionalStructure",
    "build_cross_sectional",
    "deduplicate_nodes",
    "coherent_subspace_check",
]

_DUP_TOL = 1e-12


@dataclass(frozen=True)
class CrossSectionalStructure:
    """Immutable container for one cross-sectional hierarchy.

    Attributes
    ----------
    n_a, n_b : int
        Number of upper (aggregated) and bottom series.
    agg_matrix : ndarray, shape (n_a, n_b)
        Aggregation matrix mapping bottom values to upper values.
    summing_matrix : ndarray, shape (n_a + n_b, n_b)
        Aggregation matrix stacked over the bottom identity.
    kernel : ndarray, shape (n_a, n_a + n_b)
        Zero-constraints matrix; coherent vectors are its null space.
    labels : tuple of str
        Series names, uppers first, then bottoms.
    """

    n_a: int
    n_b: int
    agg_matrix: np.ndarray
    summing_matrix: np.ndarray
    kernel: np.ndarray
    labels: tuple = field(default=())

    @property
    def n(self) -> int:
        return self.n_a + self.n_b

    @property
    def upper_labels(self) -> tuple:
        return self.labels[: self.n_a]

    @property
    def bottom_labels(self) -> tuple:
        return self.labels[self.n_a :]


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only copy, so the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def _labels(labels, n_a: int, n_b: int) -> list:
    """``labels`` as a list, ``U1..U{n_a}, B1..B{n_b}`` by default;
    :class:`DimensionMismatch` unless there are ``n_a + n_b`` of them."""
    if labels is None:
        labels = [f"U{j + 1}" for j in range(n_a)] + [f"B{i + 1}" for i in range(n_b)]
    labels = list(labels)
    if len(labels) != n_a + n_b:
        raise DimensionMismatch(f"expected {n_a + n_b} labels, got {len(labels)}")
    return labels


def build_cross_sectional(
    C: np.ndarray, labels: Sequence[str] | None = None
) -> CrossSectionalStructure:
    """Build a cross-sectional structure from an aggregation matrix.

    Parameters
    ----------
    C : array_like, shape (n_a, n_b)
        Aggregation matrix.  Typically 0/1, but arbitrary finite weights
        are accepted (weighted summation).
    labels : sequence of str, optional
        ``n_a + n_b`` unique series names, uppers first.  Defaults to
        ``U1..U{n_a}, B1..B{n_b}``.

    Raises
    ------
    DimensionMismatch
        If ``C`` is empty or ``labels`` has the wrong length or duplicates.
    InvalidEntry
        If ``C`` contains NaN or infinities.
    InvalidInput
        If a label contains a line break, which no hierarchy file can hold.
    """
    C = np.atleast_2d(require_finite(C, "aggregation matrix"))
    if C.size == 0 or C.ndim != 2:
        raise DimensionMismatch("aggregation matrix must be a nonempty 2-D array")
    n_a, n_b = C.shape
    labels = tuple(map(str, _labels(labels, n_a, n_b)))
    if len(set(labels)) != len(labels):
        raise DimensionMismatch("labels contain duplicates")
    for label in labels:
        if "\n" in label or "\r" in label:
            raise InvalidInput(f"label {label!r} contains a line break")

    summing = np.vstack([C, np.eye(n_b)])
    kernel = np.hstack([np.eye(n_a), -C])
    return CrossSectionalStructure(
        n_a=n_a,
        n_b=n_b,
        agg_matrix=_freeze(C),
        summing_matrix=_freeze(summing),
        kernel=_freeze(kernel),
        labels=labels,
    )


def deduplicate_nodes(
    C: np.ndarray, labels: Sequence[str] | None = None
) -> tuple[np.ndarray, list, list]:
    """Drop upper rows that merely duplicate a bottom series.

    A row of ``C`` with exactly one nonzero entry equal to 1 repeats a row
    of the identity block of the summing matrix; such rows appear when an
    unbalanced hierarchy is written in balanced form.  Exact equality is
    used for integer-valued matrices, a ``1e-12`` tolerance otherwise.

    Returns
    -------
    (C_reduced, labels_reduced, removed)
        ``removed`` lists the labels of the dropped upper rows.
    """
    C = np.atleast_2d(require_finite(C, "aggregation matrix"))
    n_a, n_b = C.shape
    labels = _labels(labels, n_a, n_b)

    integral = np.allclose(C, np.round(C), atol=0.0)
    tol = 0.0 if integral else _DUP_TOL
    # The one nonzero entry of a unit row is its entry within tol of 1.
    unit = (np.sum(np.abs(C) > tol, axis=1) == 1) & np.any(np.abs(C - 1.0) <= tol, axis=1)
    removed = [labels[j] for j in np.flatnonzero(unit)]
    labels_red = [labels[j] for j in np.flatnonzero(~unit)] + labels[n_a:]
    return C[~unit], labels_red, removed


def coherent_subspace_check(
    Y: np.ndarray, structure: CrossSectionalStructure, tol: float = 1e-12
) -> bool:
    """True when every column of ``Y`` satisfies the summation constraints.

    The test is ``max |U' Y| <= tol * (1 + max |Y|)``.
    """
    Y = np.atleast_2d(require_finite(Y, "Y"))
    if Y.shape[0] != structure.n:
        raise DimensionMismatch(
            f"Y has {Y.shape[0]} rows, structure has {structure.n} series"
        )
    if tol < 0:
        raise InvalidInput(f"tolerance must be nonnegative, got {tol!r}")
    resid = structure.kernel @ Y
    scale = 1.0 + (np.max(np.abs(Y)) if Y.size else 0.0)
    return bool(np.max(np.abs(resid), initial=0.0) <= tol * scale)
