"""Least-squares point-forecast reconciliation.

The core operation is the oblique projection of a forecast vector onto
the null space of a constraint kernel ``K``::

    y_tilde = y_hat - W K' (K W K')^{-1} K y_hat

computed through a symmetric positive-definite factorization of
``K W K'``; ``W`` is never inverted and structured forms (diagonal,
block-diagonal) are used without densification.  The equivalent
structural form solves the generalized least-squares problem on the
bottom coordinates and re-aggregates.

Wrappers apply the projection per time point (cross-sectional), per
series (temporal) or once globally (cross-temporal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .covariance import (
    CovarianceModel,
    ResidualTableau,
    cross_sectional_cov,
    cross_temporal_cov,
    temporal_cov,
)
from .crosstemporal import CrossTemporalStructure
from .errors import DimensionMismatch, InvalidEntry, InvalidInput, SingularSystem
from .hierarchy import CrossSectionalStructure
from .tableau import ForecastTableau

__all__ = [
    "ReconciliationResult",
    "project",
    "project_structural",
    "projector",
    "reconcile_cross_sectional",
    "reconcile_cross_sectional_tableau",
    "reconcile_temporal",
    "reconcile_cross_temporal",
]

# Condition estimates beyond this trigger a diagnostics warning, not an error.
_COND_WARN = 1e12


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of one reconciliation solve.

    ``coherency_errors_before`` is the negated constraint residual of the
    input; ``diagnostics`` records the factorization used, a condition
    estimate of the normal-equations matrix, and the post-solve maximum
    constraint violation.
    """

    y_tilde: np.ndarray
    adjustment: np.ndarray
    coherency_errors_before: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    tableau: ForecastTableau | None = None

    @property
    def reconciled(self):
        return self.tableau if self.tableau is not None else self.y_tilde


def _as_dense(A) -> np.ndarray:
    return np.asarray(A.todense() if sp.issparse(A) else A, dtype=float)


def _cholesky(A, context: str):
    """Symmetrize and Cholesky-factor ``A``; also return the diagnostics.

    The diagnostics carry a cheap condition estimate from the factor and a
    warning when that estimate is large.
    """
    A = 0.5 * (A + A.T)
    try:
        cho = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"{context}: normal-equations matrix could not be factorized"
        ) from exc
    d = np.abs(np.diag(cho[0]))
    cond_est = float((d.max() / d.min()) ** 2) if d.size else 1.0
    diagnostics = {"factorization": "cholesky", "condition_estimate": cond_est}
    if cond_est > _COND_WARN:
        diagnostics["warning"] = (
            f"ill-conditioned system (condition estimate {cond_est:.3e})"
        )
    return cho, diagnostics


def _normal_factor(kernel, W: CovarianceModel, context: str):
    """Assemble ``G = K W K'`` and factor it: ``(W K', factor, diagnostics)``."""
    WKt = W.apply(kernel.T)
    cho, diagnostics = _cholesky(_as_dense(kernel @ WKt), context)
    return WKt, cho, diagnostics


def project(y_hat, W: CovarianceModel, kernel) -> ReconciliationResult:
    """Adjust ``y_hat`` onto the null space of ``kernel``.

    ``kernel`` is an ``r x s`` full-row-rank constraint matrix (dense or
    sparse); ``W`` must be positive definite.
    """
    y = np.asarray(y_hat, dtype=float).ravel()
    K = kernel
    if K.shape[1] != y.size:
        raise DimensionMismatch(
            f"kernel has {K.shape[1]} columns, forecast vector has {y.size}"
        )
    if not np.all(np.isfinite(y)):
        raise InvalidEntry("forecast vector contains NaN or infinite entries")
    d0 = np.asarray(K @ y).ravel()
    WKt, cho, diagnostics = _normal_factor(K, W, "project")
    adjustment = np.asarray(WKt @ scipy.linalg.cho_solve(cho, d0)).ravel()
    y_tilde = y - adjustment
    diagnostics["constraint_residual"] = float(
        np.max(np.abs(np.asarray(K @ y_tilde)), initial=0.0)
    )
    if W.structure == "full":
        # Reconciliation-error covariance is only cheap with a dense W.
        diagnostics["error_covariance"] = W.matrix - WKt @ scipy.linalg.cho_solve(
            cho, WKt.T
        )
    return ReconciliationResult(
        y_tilde=y_tilde,
        adjustment=adjustment,
        coherency_errors_before=-d0,
        diagnostics=diagnostics,
    )


def project_structural(y_hat, W: CovarianceModel, summing) -> ReconciliationResult:
    """Generalized least-squares fit of the bottom coordinates.

    Solves for ``beta`` minimizing the W-weighted distance of
    ``summing @ beta`` to ``y_hat`` and returns the re-aggregated vector;
    equivalent to :func:`project` with the matching kernel.
    """
    y = np.asarray(y_hat, dtype=float).ravel()
    S = _as_dense(summing)
    if S.shape[0] != y.size:
        raise DimensionMismatch(
            f"summing matrix has {S.shape[0]} rows, forecast vector has {y.size}"
        )
    WinvS = W.solve(S)
    cho, diagnostics = _cholesky(S.T @ WinvS, "project_structural")
    beta = scipy.linalg.cho_solve(cho, WinvS.T @ y)
    y_tilde = S @ beta
    diagnostics["beta"] = beta
    return ReconciliationResult(
        y_tilde=y_tilde,
        adjustment=y - y_tilde,
        coherency_errors_before=np.zeros(0),
        diagnostics=diagnostics,
    )


def projector(kernel, W: CovarianceModel) -> np.ndarray:
    """Materialize the dense projection matrix fixing the kernel's null space."""
    WKt, cho, _ = _normal_factor(kernel, W, "projector")
    return np.eye(kernel.shape[1]) - _as_dense(WKt) @ scipy.linalg.cho_solve(
        cho, _as_dense(kernel)
    )


def _as_tableau(Y_hat, xts: CrossTemporalStructure) -> ForecastTableau:
    return Y_hat if isinstance(Y_hat, ForecastTableau) else xts.tableau(Y_hat)


def _tableau_result(
    base: ForecastTableau, out: ForecastTableau, diagnostics: dict
) -> ReconciliationResult:
    """Result of a solve that maps the tableau ``base`` to ``out``."""
    y = base.vec_by_variable
    return ReconciliationResult(
        y_tilde=out.vec_by_variable,
        adjustment=y - out.vec_by_variable,
        coherency_errors_before=-np.asarray(base.structure.kernel @ y).ravel(),
        diagnostics=diagnostics,
        tableau=out,
    )


# ---------------------------------------------------------------------------
# Dimension-specific wrappers


def reconcile_cross_sectional(
    Y_hat,
    cs: CrossSectionalStructure,
    kind: str = "cs-ols",
    residuals: np.ndarray | None = None,
) -> np.ndarray:
    """Reconcile an ``n x H`` matrix column by column (time by time)."""
    Y = np.atleast_2d(np.asarray(Y_hat, dtype=float))
    if Y.shape[0] != cs.n:
        raise DimensionMismatch(
            f"forecast matrix has {Y.shape[0]} rows, structure has {cs.n} series"
        )
    if not np.all(np.isfinite(Y)):
        raise InvalidEntry("forecast matrix contains NaN or infinite entries")
    W = cross_sectional_cov(kind, cs, residuals)
    M = projector(cs.kernel, W)
    return M @ Y


def _per_level_projectors(
    xts: CrossTemporalStructure,
    kind: str,
    residuals: ResidualTableau | None,
) -> dict:
    out = {}
    for k in xts.ts.factors:
        E = residuals.level_matrix(k) if residuals is not None else None
        W = cross_sectional_cov(kind, xts.cs, E)
        out[k] = projector(xts.cs.kernel, W)
    return out


def _apply_cross_sectional(
    vals: np.ndarray, projs: dict, xts: CrossTemporalStructure
) -> np.ndarray:
    out = np.empty_like(vals)
    for k in xts.ts.factors:
        slc = xts.ts.level_slice(k, xts.h)
        out[:, slc] = projs[k] @ vals[:, slc]
    return out


def reconcile_cross_sectional_tableau(
    tableau: ForecastTableau,
    kind: str = "cs-ols",
    residuals: ResidualTableau | None = None,
) -> ForecastTableau:
    """Apply per-level cross-sectional projections to a whole tableau.

    Each aggregation level gets its own covariance, estimated from that
    level's residual columns when the kind is residual based.
    """
    xts = tableau.structure
    projs = _per_level_projectors(xts, kind, residuals)
    vals = _apply_cross_sectional(tableau.values, projs, xts)
    return tableau.with_values(vals, provenance=f"reconciled:{kind}")


def _per_series_temporal_projectors(
    xts: CrossTemporalStructure,
    kind: str,
    residuals: ResidualTableau | None,
) -> list:
    Z = xts.temporal_kernel
    if kind in ("t-ols", "t-struc"):
        M = projector(Z, temporal_cov(kind, xts.ts, h=xts.h))
        return [M] * xts.n
    if residuals is None:
        raise InvalidInput(f"{kind} needs residuals")
    out = []
    for i in range(xts.n):
        W = temporal_cov(kind, xts.ts, residuals.series_block(i), h=xts.h)
        out.append(projector(Z, W))
    return out


def _apply_temporal(vals: np.ndarray, projs: list) -> np.ndarray:
    out = np.empty_like(vals)
    for i, M in enumerate(projs):
        out[i] = M @ vals[i]
    return out


def reconcile_temporal(
    tableau: ForecastTableau,
    kind: str = "t-ols",
    residuals: ResidualTableau | None = None,
) -> ForecastTableau:
    """Reconcile every series against its temporal hierarchy (row by row)."""
    projs = _per_series_temporal_projectors(tableau.structure, kind, residuals)
    vals = _apply_temporal(tableau.values, projs)
    return tableau.with_values(vals, provenance=f"reconciled:{kind}")


def reconcile_cross_temporal(
    Y_hat,
    xts: CrossTemporalStructure,
    kind: str = "oct-ols",
    residuals: ResidualTableau | None = None,
    W: CovarianceModel | None = None,
) -> ReconciliationResult:
    """One global projection of the whole tableau onto the coherent subspace.

    The solve runs on the series-major vectorization of the tableau.
    """
    tableau = _as_tableau(Y_hat, xts)
    if W is None:
        W = cross_temporal_cov(kind, xts, residuals)
    res = project(tableau.vec_by_variable, W, xts.kernel)
    out = tableau.with_values(
        res.y_tilde.reshape(xts.n, xts.width), provenance=f"reconciled:{W.kind}"
    )
    return _tableau_result(tableau, out, res.diagnostics)
