"""Least-squares point-forecast reconciliation.

The core operation is the oblique projection of a forecast vector onto
the null space of a constraint kernel ``K``::

    y_tilde = y_hat - W K' (K W K')^{-1} K y_hat

computed through one factorization of the normal matrix ``G = K W K'``
(:func:`_normal_factor`); ``W`` is never inverted and structured forms
(diagonal, block-diagonal, diagonal plus low rank) are used without
densification.  ``G`` is factored by a sparse LU with diagonal pivots
(SuperLU) when it is large and sparse: at least ``_SPARSE_MIN_RANK`` rows
and at most a ``_SPARSE_MAX_FILL`` share of nonzeros, as with an
identity, diagonal or block-diagonal ``W`` on a large hierarchy.
Otherwise (every full ``W``, a small or dense ``G``) it is densified and
Cholesky-factored.  A diagonal-plus-low-rank ``W = D + U U'`` (the
shrinkage kinds with fewer residual cycles than values) takes a third
path, ``woodbury``: ``G0 = K D K'`` is factored by that rule, and ``G =
G0 + (K U)(K U)'`` is solved through the Cholesky factor of the small
capacitance matrix without being formed.  Every factor passes one
positive-definiteness gate on its pivots, and every path reports a
1-norm condition estimate.  The equivalent structural form solves the
generalized least-squares problem on the bottom coordinates and
re-aggregates.  :func:`reconciled_covariance` gives the covariance of
the reconciliation error on demand.

The cross-temporal wrapper projects once globally.  The cross-sectional
(per level) and temporal (per series) wrappers and the heuristics apply
materialized projectors, built by :func:`_projectors` as one stack: one
batched dense Cholesky of every ``K W K'``, the same pivot gate on each
slice, and no condition estimate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .covariance import (
    CovarianceModel,
    ResidualTableau,
    _woodbury,
    cross_sectional_cov,
    cross_temporal_cov,
    temporal_cov,
)
from .crosstemporal import CrossTemporalStructure
from .errors import DimensionMismatch, InvalidEntry, SingularSystem
from .hierarchy import CrossSectionalStructure
from .tableau import ForecastTableau

__all__ = [
    "ReconciliationResult",
    "project",
    "project_structural",
    "projector",
    "reconciled_covariance",
    "reconcile_cross_sectional",
    "reconcile_cross_sectional_tableau",
    "reconcile_temporal",
    "reconcile_cross_temporal",
]

# Condition estimates beyond this trigger a diagnostics warning, not an error.
_COND_WARN = 1e12

# K W K' is factored by sparse LU when it has at least _SPARSE_MIN_RANK rows
# and at most a _SPARSE_MAX_FILL share of nonzeros; otherwise by dense
# Cholesky.  Measured with two BLAS threads, one projection, dense -> sparse:
# at rank 340 the two tie (oct-ols 2.8 -> 2.2 ms, oct-wlsv 2.3 -> 2.7 ms,
# oct-acov at 17% fill 2.8 -> 3.0 ms); from rank 496 sparse wins at 3-12%
# fill (oct-wlsv 5.5 -> 2.6 ms; 7.8 -> 3.3 ms at rank 652; 3.0 s -> 42 ms at
# rank 7016).  At rank 131 the sparse path's fixed cost loses (0.7 -> 2.0 ms).
# Fill-in decides the rest: the block-diagonal oct-bdshr, at 21% fill, ties
# at rank 1304 (54 vs 52 ms) and loses at rank 680 (12 -> 19 ms); at 37-42%
# fill it loses at every rank (14 -> 37 ms at rank 652).
_SPARSE_MIN_RANK = 400
_SPARSE_MAX_FILL = 0.15


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of one reconciliation solve.

    ``coherency_errors_before`` is the negated constraint residual of the
    input; ``diagnostics`` records the factorization used
    (``"factorization"``: ``"woodbury"`` for a diagonal-plus-low-rank
    ``W``, ``"sparse-lu"`` for a large, sparse ``K W K'``, else
    ``"cholesky"``), a 1-norm condition estimate of the normal-equations
    matrix (with a ``"warning"`` above 1e12), and the post-solve maximum
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


@dataclass(frozen=True)
class _Factor:
    """A factorization of a symmetric positive-definite matrix ``A``.

    ``solve(b)`` returns ``A^{-1} b``; ``diagnostics`` name the
    factorization and carry a 1-norm condition estimate of ``A``.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    diagnostics: dict


def _factored(factorization: str, solve, condition) -> _Factor:
    """The :class:`_Factor` of a factorizer's ``solve`` and ``condition()``."""
    cond_est = condition()
    diagnostics = {"factorization": factorization, "condition_estimate": cond_est}
    if cond_est > _COND_WARN:
        diagnostics["warning"] = (
            f"ill-conditioned system (condition estimate {cond_est:.3e})"
        )
    return _Factor(solve, diagnostics)


def _check_pivots(pivots: np.ndarray, context: str) -> None:
    """The SPD gate: every pivot of a symmetric factorization without
    off-diagonal pivoting must be positive, and above ``r eps`` times the
    largest one (the rank tolerance of ``numpy.linalg.matrix_rank``), each
    row of a stack against its own.

    The signs of such pivots are the inertia of the matrix; a pivot at
    the rank tolerance is roundoff from a singular matrix, of either sign.
    """
    tol = pivots.shape[-1] * np.finfo(float).eps * pivots.max(-1, keepdims=True, initial=0.0)
    if not np.all(pivots > tol):
        raise SingularSystem(
            f"{context}: normal-equations matrix is not numerically positive definite"
        )


def _norm1_estimate(apply, r: int) -> float:
    """Estimate the 1-norm of a symmetric ``r x r`` operator from its
    products: ``||A^{-1}||_1`` when ``apply`` solves with ``A``, ``||A||_1``
    when it multiplies by ``A``.

    This is Hager's method with Higham's alternating-sign test vector, the
    algorithm of LAPACK's ``dlacn2`` that ``dpocon`` runs; it is
    deterministic and takes at most eleven products.
    """
    x = np.full(r, 1.0 / r)
    est = 0.0
    for _ in range(5):
        y = apply(x)
        if np.abs(y).sum() <= est:
            break
        est = np.abs(y).sum()
        z = apply(np.where(y >= 0.0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(r)
        x[j] = 1.0
    alt = (-1.0) ** np.arange(r) * (1.0 + np.arange(r) / max(r - 1, 1))
    return float(max(est, 2.0 * np.abs(apply(alt)).sum() / (3.0 * r)))


def _cholesky(A, context: str):
    """Symmetrize, Cholesky-factor and gate the dense matrix ``A``.

    Returns ``(solve, condition)``: ``condition()`` is LAPACK's ``dpocon``
    estimate on the factor, computed only when called.
    """
    A = 0.5 * (A + A.T)
    try:
        cho = scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"{context}: normal-equations matrix could not be factorized"
        ) from exc
    _check_pivots(np.diag(cho[0]) ** 2, context)

    def condition() -> float:
        if not A.size:
            return 1.0
        rcond, _ = scipy.linalg.lapack.dpocon(
            cho[0], np.abs(A).sum(axis=0).max(), uplo="L"
        )
        return 1.0 / rcond

    return partial(scipy.linalg.cho_solve, cho), condition


def _sparse_lu(G, context: str):
    """Symmetrize and factor the sparse matrix ``G`` by SuperLU with
    diagonal pivots only (``G = P L U P'``), gated on the pivots
    ``diag(U)``.

    Returns ``(solve, condition)``: ``condition()`` is ``||G||_1`` times
    :func:`_norm1_estimate`, computed only when called.
    """
    G = (0.5 * (G + G.T)).tocsc()
    try:
        lu = spla.splu(
            G,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSystem(
            f"{context}: normal-equations matrix could not be factorized"
        ) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularSystem(
            f"{context}: normal-equations matrix needed off-diagonal pivots"
        )
    _check_pivots(lu.U.diagonal(), context)
    return lu.solve, lambda: float(spla.norm(G, 1) * _norm1_estimate(lu.solve, G.shape[0]))


def _factor(G, context: str):
    """Factor ``G`` by sparse LU when it has at least ``_SPARSE_MIN_RANK``
    rows and at most ``_SPARSE_MAX_FILL`` of its entries are nonzero, and
    by dense Cholesky otherwise (a dense or small ``G``, an empty one).

    Returns ``(factorization, solve, condition)``, as :func:`_cholesky`.
    """
    r = G.shape[0]
    if sp.issparse(G) and r >= _SPARSE_MIN_RANK and G.nnz <= _SPARSE_MAX_FILL * r * r:
        return ("sparse-lu", *_sparse_lu(G, context))
    return ("cholesky", *_cholesky(_as_dense(G), context))


def _normal_factor(kernel, W: CovarianceModel, context: str) -> _Factor:
    """Factor ``G = K W K'``.

    ``G`` is assembled and factored by :func:`_factor`, except for a
    low-rank ``W = D + U U'`` over a non-empty kernel.  Then ``G0 = K D
    K'`` is factored by :func:`_factor`, the capacitance matrix ``I +
    (KU)' G0^{-1} KU`` by :func:`_cholesky`, and ``G = G0 + KU (KU)'`` is
    solved by the Woodbury identity without being formed.  Its condition
    estimate is :func:`_norm1_estimate` over those solves times the same
    estimate over products with ``G``; the estimates of ``G0`` and of the
    capacitance matrix are not computed.
    """
    r = kernel.shape[0]
    if W.structure != "low-rank" or r == 0:
        return _factored(*_factor(kernel @ W.apply(kernel.T), context))
    G0 = kernel @ (sp.diags(W.diag_values) @ kernel.T)
    KU = np.asarray(kernel @ W.matrix.U)
    solve = _woodbury(
        _factor(G0, context)[1], KU, lambda C: _cholesky(C, context)[0]
    )
    norm = _norm1_estimate(lambda b: G0 @ b + KU @ (KU.T @ b), r)
    return _factored("woodbury", solve, lambda: norm * _norm1_estimate(solve, r))


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
    factor = _normal_factor(K, W, "project")
    diagnostics = factor.diagnostics
    adjustment = np.asarray(W.apply(K.T @ factor.solve(d0))).ravel()
    y_tilde = y - adjustment
    diagnostics["constraint_residual"] = float(
        np.max(np.abs(np.asarray(K @ y_tilde)), initial=0.0)
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
    factor = _factored("cholesky", *_cholesky(S.T @ WinvS, "project_structural"))
    diagnostics = factor.diagnostics
    beta = factor.solve(WinvS.T @ y)
    y_tilde = S @ beta
    diagnostics["beta"] = beta
    return ReconciliationResult(
        y_tilde=y_tilde,
        adjustment=y - y_tilde,
        coherency_errors_before=np.zeros(0),
        diagnostics=diagnostics,
    )


def _projectors(kernel, models) -> np.ndarray:
    """The ``(len(models), s, s)`` stack of dense projectors ``I - W K' (K W
    K')^{-1} K`` over one ``r x s`` kernel: one batched Cholesky ``K W K' =
    L L'``, each slice gated against its own largest pivot, and ``I - (V
    W)' V`` with ``V = L^{-1} K``.  No condition estimate is computed."""
    K = _as_dense(kernel)
    KW = K @ np.stack([model.dense() for model in models])
    G = KW @ K.T
    try:
        L = np.linalg.cholesky(0.5 * (G + np.swapaxes(G, -1, -2)))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "projector: normal-equations matrix could not be factorized"
        ) from exc
    _check_pivots(np.diagonal(L, axis1=-2, axis2=-1) ** 2, "projector")
    B = np.concatenate([np.broadcast_to(K, KW.shape), KW], axis=-1)
    V, VW = np.split(np.linalg.solve(L, B), 2, axis=-1)  # L^{-1} K, L^{-1} K W
    return np.eye(K.shape[1]) - np.swapaxes(VW, -1, -2) @ V


def projector(kernel, W: CovarianceModel) -> np.ndarray:
    """Materialize the dense projection matrix fixing the kernel's null space."""
    return _projectors(kernel, [W])[0]


def reconciled_covariance(W: CovarianceModel, kernel) -> np.ndarray:
    """Covariance of the reconciliation error, ``W - W K' (K W K')^{-1} K W``.

    Dense (``size x size``) for every structure of ``W``, from one
    factorization of ``K W K'``; its columns lie in the null space of the
    ``r x s`` kernel.  This is the covariance of the Gaussian
    reconciled forecast distribution when ``W`` is that of the base
    forecasts.
    """
    if kernel.shape[1] != W.size:
        raise DimensionMismatch(
            f"kernel has {kernel.shape[1]} columns, covariance has size {W.size}"
        )
    factor = _normal_factor(kernel, W, "reconciled_covariance")
    WKt = _as_dense(W.apply(kernel.T))
    return W.dense() - WKt @ factor.solve(WKt.T)


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
) -> np.ndarray:
    """The stack of each level's cross-sectional projector, in ``ts.factors`` order."""
    E = [None if residuals is None else residuals.level_matrix(k) for k in xts.ts.factors]
    return _projectors(xts.cs.kernel, [cross_sectional_cov(kind, xts.cs, Ek) for Ek in E])


def _apply_cross_sectional(
    vals: np.ndarray, projs: np.ndarray, xts: CrossTemporalStructure
) -> np.ndarray:
    out = np.empty_like(vals)
    for k, M in zip(xts.ts.factors, projs):
        slc = xts.ts.level_slice(k, xts.h)
        out[:, slc] = M @ vals[:, slc]
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
) -> np.ndarray:
    """The ``(n, w, w)`` stack of each series' temporal projector."""
    E = [None if residuals is None else residuals.series_block(i) for i in range(xts.n)]
    models = [temporal_cov(kind, xts.ts, Ei, h=xts.h) for Ei in E]
    return _projectors(xts.temporal_kernel, models)


def _apply_temporal(vals: np.ndarray, projs: np.ndarray) -> np.ndarray:
    return (projs @ vals[:, :, None])[:, :, 0]


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
