"""Forecast tableau: all series at all temporal aggregation levels.

A tableau is an ``n x h(k*+m)`` matrix whose rows follow the hierarchy's
label order (uppers first) and whose columns are blocked by descending
aggregation order, each block holding that level's ``h * M_k`` values in
time order.  Two vectorizations are used throughout: ``vec_by_variable``
stacks the rows (series-major) and ``vec_by_time`` stacks the columns;
the commutation matrix of the structure maps one onto the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, require_finite

if TYPE_CHECKING:  # pragma: no cover
    from .crosstemporal import CrossTemporalStructure

__all__ = ["ForecastTableau"]


def tableau_values(values, structure: "CrossTemporalStructure") -> np.ndarray:
    """``values`` as a finite float array (:func:`require_finite`) of the
    structure's tableau shape, else :class:`DimensionMismatch`."""
    vals = require_finite(values, "tableau")
    if vals.shape != (structure.n, structure.width):
        raise DimensionMismatch(
            f"tableau shape {vals.shape} does not match structure "
            f"({structure.n}, {structure.width})"
        )
    return vals


@dataclass(frozen=True)
class ForecastTableau:
    """Immutable forecast tableau bound to a cross-temporal structure."""

    values: np.ndarray
    structure: "CrossTemporalStructure"
    provenance: str = "base"

    def __post_init__(self):
        # A copy, so that freezing it leaves the caller's array writeable.
        vals = np.array(tableau_values(self.values, self.structure), order="C")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def vec_by_variable(self) -> np.ndarray:
        """Row-stacked vector (series-major)."""
        return self.values.ravel()

    @property
    def vec_by_time(self) -> np.ndarray:
        """Column-stacked vector (time-major)."""
        return self.values.ravel(order="F")

    @classmethod
    def from_vec_by_variable(
        cls, vec, structure: "CrossTemporalStructure", provenance: str = "base"
    ) -> "ForecastTableau":
        vec = require_finite(vec, "forecast vector").ravel()
        if vec.size != structure.size:
            raise DimensionMismatch(
                f"vector length {vec.size} does not match structure size "
                f"{structure.size}"
            )
        return cls(vec.reshape(structure.n, structure.width), structure, provenance)

    def level_block(self, k: int) -> np.ndarray:
        """Columns of aggregation level ``k`` (a read-only view)."""
        return self.values[:, self.structure.ts.level_slice(k, self.structure.h)]

    def with_values(self, values, provenance: str | None = None) -> "ForecastTableau":
        return replace(
            self,
            values=values,
            provenance=self.provenance if provenance is None else provenance,
        )
