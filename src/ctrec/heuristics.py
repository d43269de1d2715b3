"""Two-step and iterative cross-temporal reconciliation heuristics.

The two-step procedure first reconciles each series through its temporal
hierarchy, then restores cross-sectional coherence by applying a single
averaged cross-sectional projector to every column; averaging over the
per-level projectors keeps the result inside both constraint sets because
every cross-sectional projector annihilates the summation kernel.  The
order of the two dimensions can be reversed, which generally changes the
result.  The iterative procedure alternates the two single-dimension
reconciliations until the leftover discrepancy falls below a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CS_KINDS, T_KINDS, ResidualTableau
from .crosstemporal import CrossTemporalStructure, coherence_report
from .errors import InvalidInput, NonConvergence, require_integer, require_real
from .reconcile import (
    ReconciliationResult,
    _apply_cross_sectional,
    _apply_temporal,
    _as_tableau,
    _per_level_projectors,
    _per_series_temporal_projectors,
    _tableau_result,
)

__all__ = ["HeuristicConfig", "ka_two_step", "iterative"]

# Largest growth of the stop-rule discrepancy of ``iterative`` over its least
# in earlier passes before the run counts as diverged.  On grouped (32, 4)
# hierarchies (m 2, 4, 6, 12; h 1, 2; seeds 0-2; origins 24, 40; all kind pairs
# and orders), runs that converge at tolerance 1e-6 grew at most 4.3x over it;
# the 468 others pass 10x within 12 passes, 170 of them never 10x in one pass.
_DIVERGENCE_GROWTH = 10.0

# Passes in a row that set no new least stop-rule discrepancy before the run
# counts as stalled.  On the grid above, converging runs go at most 1, 27 and 37
# passes without a new least at tolerances 1e-6, 1e-10 and 1e-14, but one of
# 11816 values (grouped (200, 10), m 12, h 2) goes 40 at 1e-14: 50 leaves 10
# passes of margin.  It stops 6 of the 10 grid runs at 1e-10 and 166 of the 249
# at 1e-14 that ran all 100 passes, and 3 that grew tenfold after pass 80.
_STALL_PASSES = 50


@dataclass(frozen=True)
class HeuristicConfig:
    """Settings for the heuristic procedures.

    ``order`` selects which dimension is reconciled first: ``tcs``
    (temporal, then cross-sectional) or ``cst``.  ``average`` picks the
    plain or the frequency-weighted mean of the per-level projectors in
    the final step of the two-step procedure.  ``tolerance`` is the
    dimensionless convergence threshold of the iterative procedure,
    scaled internally by ``1 + max |Y_hat|``.
    """

    temporal_kind: str = "t-wlsv"
    cross_sectional_kind: str = "cs-shr"
    order: str = "tcs"
    average: str = "plain"
    tolerance: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        if self.temporal_kind not in T_KINDS:
            raise InvalidInput(f"unknown temporal kind {self.temporal_kind!r}")
        if self.cross_sectional_kind not in CS_KINDS:
            raise InvalidInput(
                f"unknown cross-sectional kind {self.cross_sectional_kind!r}"
            )
        if self.order not in ("tcs", "cst"):
            raise InvalidInput(f"order must be 'tcs' or 'cst', got {self.order!r}")
        if self.average not in ("plain", "weighted"):
            raise InvalidInput(
                f"average must be 'plain' or 'weighted', got {self.average!r}"
            )
        require_real("tolerance", self.tolerance, math.ulp(0.0))  # above zero
        require_integer("max_iterations", self.max_iterations, 1)


def _averaged_cs_projector(
    projs: np.ndarray, xts: CrossTemporalStructure, average: str
) -> np.ndarray:
    # Weighted: each level's projector acts on M_k columns per cycle.
    M_k = [xts.ts.M_k[k] for k in xts.ts.factors] if average == "weighted" else None
    return np.average(projs, axis=0, weights=M_k)


def ka_two_step(
    Y_hat,
    xts: CrossTemporalStructure,
    config: HeuristicConfig | None = None,
    residuals: ResidualTableau | None = None,
) -> ReconciliationResult:
    """Two-step heuristic: one dimension exactly, the other by averaging.

    Temporal-first: reconcile each series through its temporal hierarchy,
    then apply the average of the per-level cross-sectional projectors to
    every column.  Cross-sectional-first mirrors the steps, averaging the
    per-series temporal projectors instead.  Either way the output
    satisfies both constraint sets.
    """
    config = config or HeuristicConfig()
    tableau = _as_tableau(Y_hat, xts)
    t_projs = _per_series_temporal_projectors(xts, config.temporal_kind, residuals)
    cs_projs = _per_level_projectors(xts, config.cross_sectional_kind, residuals)

    if config.order == "tcs":
        step1 = _apply_temporal(tableau.values, t_projs)
        M_bar = _averaged_cs_projector(cs_projs, xts, config.average)
        final = M_bar @ step1
    else:
        step1 = _apply_cross_sectional(tableau.values, cs_projs, xts)
        # Every series' projector is used exactly once, so the weighted
        # average coincides with the plain one in this order.
        M_bar = t_projs.mean(axis=0)
        final = step1 @ M_bar.T

    out = tableau.with_values(final, provenance=f"reconciled:ka-{config.order}")
    return _tableau_result(
        tableau, out, {"order": config.order, "average": config.average}
    )


def iterative(
    Y_hat,
    xts: CrossTemporalStructure,
    config: HeuristicConfig | None = None,
    residuals: ResidualTableau | None = None,
) -> tuple[ReconciliationResult, list]:
    """Alternate single-dimension reconciliations until discrepancies vanish.

    Each iteration applies a full temporal pass and a full cross-sectional
    pass (order per config), recording the raw L1 gross discrepancies
    after each half-step.  The procedure stops once the discrepancy of the
    dimension not enforced last drops below ``tolerance * (1 + max|Y_hat|)``
    and returns the final tableau together with the per-iteration
    ``(d_cs, d_te)`` trace.

    Raises
    ------
    NonConvergence
        If the iteration cap is reached, the iterates overflow, the
        discrepancy exceeds ten times its least in earlier iterations, or
        ``_STALL_PASSES`` iterations in a row set no new least; the trace of
        the completed iterations rides on the exception.
    """
    config = config or HeuristicConfig()
    tableau = _as_tableau(Y_hat, xts)
    t_projs = _per_series_temporal_projectors(xts, config.temporal_kind, residuals)
    cs_projs = _per_level_projectors(xts, config.cross_sectional_kind, residuals)

    scale = 1.0 + float(np.max(np.abs(tableau.values), initial=0.0))
    threshold = config.tolerance * scale
    vals = np.array(tableau.values)
    # Pass i is temporal (0) or cross-sectional (1); coherence_report()[i]
    # is the discrepancy it leaves in the other dimension.
    passes = (
        lambda v: _apply_temporal(v, t_projs),
        lambda v: _apply_cross_sectional(v, cs_projs, xts),
    )
    order = (0, 1) if config.order == "tcs" else (1, 0)
    trace: list[tuple[float, float]] = []
    least, since = math.inf, 0  # the smallest stop-rule discrepancy so far, passes since
    for _ in range(config.max_iterations):
        d = [0.0, 0.0]
        for i in order:
            vals = passes[i](vals)
            if not np.all(np.isfinite(vals)):
                raise NonConvergence(f"iterates diverged to non-finite values after "
                                     f"{len(trace)} iterations", trace=trace)
            d[i] = coherence_report(vals, xts)[i]
        trace.append(tuple(d))
        if d[order[1]] < threshold:
            break
        least, since = (d[order[1]], 0) if d[order[1]] < least else (least, since + 1)
        if d[order[1]] > _DIVERGENCE_GROWTH * least:  # a new smallest cannot exceed itself
            raise NonConvergence(f"no convergence: the iterates diverged, the discrepancy grew "
                                 f"from its smallest, {least:.3e}, to {d[order[1]]:.3e} in "
                                 f"iteration {len(trace)}", trace=trace)
        if since == _STALL_PASSES:
            raise NonConvergence(f"no convergence: the iterates stalled, no iteration after "
                                 f"iteration {len(trace) - since} went below its discrepancy, "
                                 f"{least:.3e}, in {since} more", trace=trace)
    else:
        raise NonConvergence(
            f"no convergence after {config.max_iterations} iterations "
            f"(threshold {threshold:.3e})",
            trace=trace,
        )
    out = tableau.with_values(vals, provenance=f"reconciled:ite-{config.order}")
    diagnostics = {
        "order": config.order,
        "iterations": len(trace),
        "threshold": threshold,
    }
    return _tableau_result(tableau, out, diagnostics), trace
