"""Least-squares point-forecast reconciliation.

The core operation is the oblique projection of a forecast vector onto
the null space of a constraint kernel ``K``::

    y_tilde = y_hat - W K' (K W K')^{-1} K y_hat

computed through one factorization of the normal matrix ``G = K W K'``
by one dispatch, :func:`_normal_factor`; ``W`` is never inverted and
structured forms (diagonal, block-diagonal, diagonal plus low rank) are
used without densification.  ``G`` is factored by a sparse LU with
diagonal pivots (SuperLU) when it is large and sparse: at least
``_SPARSE_MIN_RANK`` rows and at most a ``_SPARSE_MAX_FILL`` share of
nonzeros, as with an identity, diagonal or block-diagonal ``W`` on a large
hierarchy.  Otherwise (every full ``W``, a small or dense ``G``) it is
densified and Cholesky-factored.  A third path, ``two-stage``, serves the
cross-temporal kernel ``[K_c ; I_n (x) Z]`` when its structure comes with
it, ``G`` has at least ``_SPARSE_MIN_RANK`` rows and ``W`` is
block-diagonal by series (the ``ols``, ``struc``, ``wlsh``, ``wlsv`` and
``acov`` kinds): block elimination of the temporal rows, one batched
Cholesky of the per-series ``Z W_i Z'``, then one factorization of the
cross-sectional Schur complement.  That complement is assembled from the
per-series blocks by one sparse-dense product with the pairwise products
of the cross-sectional kernel's columns, not by a sparse triple product
(:func:`_schur_complement`).  It is exact, the counterpart of the
temporal-first two-step heuristic; a diagonal ``W`` stays a stack of
diagonals there and scales the columns of ``Z``.  A diagonal-plus-low-rank
``W = D + U U'`` (the shrinkage kinds with fewer residual cycles than
values) is ``woodbury``, a composition: the dispatch factors ``G0 = K D
K'``, by the two-stage path where that applies, and ``G = G0 + (K U)(K
U)'`` is solved through the Cholesky factor of the small capacitance
matrix without being formed.  Every factor passes one positive-definiteness
gate: dense Cholesky factors come from :func:`ctrec.covariance._cholesky_gate`
(SciPy's ``cho_solve`` solves with them), and a sparse LU meets its pivot
rule on ``diag(U)``.  Every path has the same 1-norm condition estimate
(:func:`_condition_estimate`), which the result of :func:`project`
computes on first access.  The equivalent structural form solves the
generalized least-squares problem on the bottom coordinates and
re-aggregates; it factors ``W`` by the same core, as ``K W K'`` over the
identity kernel.  :func:`reconciled_covariance` gives the covariance of
the reconciliation error on demand.  The public entry points reject a
kernel that is not 2-D, of another width than ``W``, or with a NaN or
infinite entry.

The cross-temporal wrapper projects once globally.  The cross-sectional
(per level) and temporal (per series) wrappers and the heuristics apply
materialized projectors, built by :func:`_projectors` as one stack: one
batched dense Cholesky of every ``K W_i K'`` (the helper the two-stage path
uses), gated slice by slice, and no condition estimate.  The temporal ones
come from the series blocks of one model of every series.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .covariance import (
    CovarianceModel,
    ResidualTableau,
    _cholesky_gate,
    _pivots_pass,
    cross_sectional_cov,
    cross_temporal_cov,
    temporal_cov,
)
from .crosstemporal import CrossTemporalStructure, _checked_kernel
from .errors import DimensionMismatch, SingularSystem, require_finite
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

# Condition estimates beyond this trigger a result's warning, not an error.
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
# The rank rule also gates the two-stage path.  Factor, condition estimate
# and one solve, sparse LU -> two-stage: about 4.4 -> 2.9 ms per series-block
# kind at rank 652, 30 -> 21 ms (oct-ols) and 66 -> 21 ms (oct-acov) at rank
# 7016; at rank 131 it loses to the dense Cholesky (0.7-1.1 -> 2.3-2.6 ms).
_SPARSE_MIN_RANK = 400
_SPARSE_MAX_FILL = 0.15


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of one reconciliation solve.

    ``coherency_errors_before`` is the negated constraint residual of the
    input; ``diagnostics`` records the factorization used
    (``"factorization"``: ``"two-stage"`` for a large cross-temporal
    solve with a ``W`` block-diagonal by series, ``"woodbury"`` for a
    diagonal-plus-low-rank ``W``, ``"sparse-lu"`` for a large, sparse ``K
    W K'``, else ``"cholesky"``) and the post-solve maximum constraint
    violation (``"constraint_residual"``).

    ``condition_estimate`` is the 1-norm condition estimate of the
    normal-equations matrix by :func:`_condition_estimate`, the same rule
    for every path (1.0 for an empty kernel), computed on first access and
    then kept; ``warning`` names an estimate above 1e12.  Both are ``None``
    for a result that made no ``K W K'`` solve (the heuristics).  Until the
    estimate is read, the result holds the solver it needs.
    """

    y_tilde: np.ndarray
    adjustment: np.ndarray
    coherency_errors_before: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    tableau: ForecastTableau | None = None
    _condition: Callable[[], float] | None = field(default=None, repr=False, compare=False)

    @property
    def reconciled(self):
        return self.tableau if self.tableau is not None else self.y_tilde

    @cached_property
    def condition_estimate(self) -> float | None:
        return None if self._condition is None else self._condition()

    @property
    def warning(self) -> str | None:
        cond = self.condition_estimate
        if cond is not None and cond > _COND_WARN:
            return f"ill-conditioned system (condition estimate {cond:.3e})"
        return None


def _as_dense(A) -> np.ndarray:
    return np.asarray(A.todense() if sp.issparse(A) else A, dtype=float)


def _gated(L, passed: bool, context: str):
    """``L``, the factor of a matrix that passed the one SPD gate, or
    :class:`SingularSystem`."""
    if not passed:
        raise SingularSystem(
            f"{context}: normal-equations matrix is not numerically positive definite"
        )
    return L


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


def _condition_estimate(K, W: CovarianceModel, solve) -> float:
    """The 1-norm condition estimate of ``G = K W K'`` on every path:
    :func:`_norm1_estimate` over products with ``G`` times the same over
    ``solve``, a solver of ``G``; 1.0 for an empty ``G``."""
    r = K.shape[0]
    if r == 0:
        return 1.0
    return _norm1_estimate(lambda b: K @ W.apply(K.T @ b), r) * _norm1_estimate(solve, r)


def _cholesky(A, context: str):
    """Symmetrize, factor and gate the dense matrix ``A``; returns its
    solver, over ``L'`` as the upper factor (Fortran-ordered: no copy)."""
    return partial(scipy.linalg.cho_solve, (_gated(*_cholesky_gate(A), context).T, False))


def _sparse_lu(G, context: str):
    """Symmetrize and factor the sparse matrix ``G`` by SuperLU with
    diagonal pivots only (``G = P L U P'``), gated by the SPD gate's pivot
    rule on ``diag(U)``; returns its solver."""
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
    _gated(None, _pivots_pass(lu.U.diagonal()), context)
    return lu.solve


def _factor(G, context: str):
    """Factor ``G`` by sparse LU when it has at least ``_SPARSE_MIN_RANK``
    rows and at most ``_SPARSE_MAX_FILL`` of its entries are nonzero, and
    by dense Cholesky otherwise (a dense or small ``G``, an empty one).

    Returns ``(factorization, solve)``.
    """
    r = G.shape[0]
    if sp.issparse(G) and r >= _SPARSE_MIN_RANK and G.nnz <= _SPARSE_MAX_FILL * r * r:
        return "sparse-lu", _sparse_lu(G, context)
    return "cholesky", _cholesky(_as_dense(G), context)


def _woodbury(solve, V, context: str):
    """Solver of ``A + V V'`` from a solver of ``A``, by the Woodbury identity.

    ``(A + V V')^{-1} = A^{-1} - A^{-1} V C^{-1} V' A^{-1}`` with the
    capacitance matrix ``C = I + V' A^{-1} V``, factored by
    :func:`_cholesky`.  Only ``A^{-1} V`` and the factor of ``C`` are stored.
    """
    AiV = solve(V)
    solve_c = _cholesky(np.eye(V.shape[1]) + V.T @ AiV, context)

    def solve_sum(b):
        y = solve(b)
        return y - AiV @ solve_c(V.T @ y)

    return solve_sum


def _batched_cholesky(K: np.ndarray, blocks: np.ndarray, context: str):
    """``(K W, L)`` for the dense kernel ``K`` and a stack of blocks ``W_i``,
    or of their diagonals, as :func:`_series_blocks` gives them: the lower
    Cholesky factors of every ``K W_i K'`` by the one SPD gate, each matrix
    gated against its own largest pivot."""
    KW = K * blocks[:, None, :] if blocks.ndim == 2 else K @ blocks
    return KW, _gated(*_cholesky_gate(KW @ K.T), context)


def _series_blocks(W: CovarianceModel, n: int) -> np.ndarray | None:
    """The diagonal blocks ``W_i`` of a ``W`` that is block-diagonal by
    series (``q = W.size / n`` values each): the ``(n, q)`` stack of their
    diagonals for an identity or diagonal ``W``, else the ``(n, q, q)``
    stack of the blocks.  ``None`` when ``W`` is low-rank, full, or stores
    an entry between two series (read from the COO indices of a
    block-diagonal ``W``)."""
    q = W.size // n
    if W.structure in ("identity", "diagonal"):
        return W.diagonal().reshape(n, q)
    if W.structure != "block-diagonal":
        return None
    A = sp.coo_matrix(W.matrix)
    series = A.row // q
    if np.any(A.col // q != series):
        return None
    flat = (series * q + A.row % q) * q + A.col % q
    return np.bincount(flat, weights=A.data, minlength=n * q * q).reshape(n, q, q)


def _schur_complement(kappa: np.ndarray, M: np.ndarray) -> sp.csr_matrix:
    """``S = K_h blkdiag(M_i) K_h'`` for the ``(n, hf, hf)`` stack ``M``,
    where ``K_h`` is the cross-sectional kernel ``kappa`` (``n_a x n``) at
    each of ``hf`` time points, rows in the kernel's ``(t, a)`` order.

    The ``(a, b)`` block of ``S`` is ``sum_i kappa[a, i] kappa[b, i] M_i``.
    The rows ``kappa[a, i] kappa[b, i]`` of the column outer products, one
    per pair ``(a, b)`` that shares a column, come from the nonzeros of
    ``kappa`` and multiply ``M`` as ``n x hf^2`` in one sparse-dense
    product.  The blocks are scattered into a sparse matrix without its
    zeros, the pattern of the sparse product ``K_h blkdiag(M_i) K_h'``.
    """
    n_a, (n, hf, _) = kappa.shape[0], M.shape
    col = sp.csc_matrix(kappa)
    k = np.diff(col.indptr)  # nonzeros per column
    i = np.repeat(np.arange(n), k * k)  # the column of each pair
    j = np.arange(i.size) - np.repeat(np.cumsum(k * k) - k * k, k * k)
    ja, jb = col.indptr[i] + j // k[i], col.indptr[i] + j % k[i]
    pair = col.indices[ja] * n_a + col.indices[jb]
    # By pair, and each pair's columns from last to first: the order in which
    # the sparse product sums them, so that S is the same bit for bit when
    # the weights are 0 and +-1.
    order = np.lexsort((-i, pair))
    pairs, counts = np.unique(pair, return_counts=True)
    outer = sp.csr_matrix(
        ((col.data[ja] * col.data[jb])[order], i[order], np.r_[0, np.cumsum(counts)]),
        shape=(pairs.size, n),
    )
    blocks = (outer @ M.reshape(n, hf * hf)).reshape(-1, hf, hf)
    a, b = np.divmod(pairs, n_a)
    # Row (t, a) holds blocks[p, t, t'] of the pairs p = (a, b) at the columns
    # (t', b), t' first: one gather, the same for every t, keeps them sorted.
    tp, p = np.divmod(np.arange(hf * pairs.size), pairs.size)
    gather = np.argsort(a[p], kind="stable")  # by a, then t', then p
    S = sp.csr_matrix(
        (
            blocks.transpose(1, 2, 0).reshape(hf, -1)[:, gather].ravel(),
            np.tile((tp * n_a + b[p])[gather], hf),
            np.r_[0, np.cumsum(np.tile(np.bincount(a, minlength=n_a) * hf, hf))],
        ),
        shape=(hf * n_a, hf * n_a),
    )
    S.eliminate_zeros()
    return S


def _two_stage(xts: CrossTemporalStructure, blocks, context: str):
    """The solver of ``G = K W K'`` over the kernel ``K = [K_c ; I_n (x) Z]``
    of ``xts`` for ``W = blkdiag(W_i)``, given by :func:`_series_blocks` as
    the stack ``blocks`` of the ``W_i`` or, for a diagonal ``W``, of their
    diagonals, by block elimination of the temporal rows.

    Stage one factors every ``B_i = Z W_i Z'`` by one batched Cholesky,
    inverts the factors, and keeps ``B_i^{-1}``, ``P_i = B_i^{-1} Z W_i[:,
    hf]`` and the temporally reconciled ``M_i = W_i[hf, hf] - W_i[hf, :] Z'
    P_i`` on the ``hf`` highest-frequency columns, the only ones ``K_c``
    reads.  A diagonal ``W_i`` scales the columns of ``Z`` and is added to
    the diagonal of ``M_i``.  Stage two factors the Schur complement ``S =
    K_h blkdiag(M_i) K_h'`` by :func:`_factor`, where ``K_h`` is ``K_c`` on
    those columns; :func:`_schur_complement` assembles ``S`` as a sparse
    matrix from ``M`` and the cross-sectional kernel, so the rank and fill
    rule sees the matrix the sparse product would give.  ``G [x1; x2] =
    [b1; b2]`` is then solved by ``y2 = B^{-1} b2``, ``x1 = S^{-1} (b1 -
    K_h P' b2)`` and ``x2 = y2 - P K_h' x1``: batched products, one ``S``
    solve and two sparse products.
    """
    K, n, q = xts.kernel, xts.n, xts.width
    Z = _as_dense(xts.temporal_kernel)
    rz, hf = Z.shape[0], xts.h * xts.ts.m
    hf_cols = slice(q - hf, q)  # the last h m values of every series
    ZW, L = _batched_cholesky(Z, blocks, f"{context}, temporal stage")
    # dtrtri never fails on a gated factor, but rejects an empty one.
    Linv = np.stack([scipy.linalg.lapack.dtrtri(Li, lower=1)[0] for Li in L]) if rz else L
    V = Linv @ ZW[:, :, hf_cols]  # L_i^{-1} Z W_i[:, hf]
    Linv_t = np.swapaxes(Linv, 1, 2)
    B_inv, P = Linv_t @ Linv, Linv_t @ V
    M = -(np.swapaxes(V, 1, 2) @ V)
    if blocks.ndim == 2:  # diagonals
        M[:, np.arange(hf), np.arange(hf)] += blocks[:, hf_cols]
    else:
        M += blocks[:, hf_cols, hf_cols]
    rc = K.shape[0] - n * rz
    K_h = K[:rc][:, (q * np.arange(n)[:, None] + np.arange(q - hf, q)).ravel()]
    solve_s = _factor(_schur_complement(xts.cs.kernel, M), f"{context}, cross-sectional stage")[1]
    P_t = np.swapaxes(P, 1, 2)

    def solve(b):
        b = np.asarray(b, dtype=float)
        k = b[0].size if b.ndim > 1 else 1
        b2 = b[rc:].reshape(n, rz, k)
        x1 = solve_s(b[:rc].reshape(rc, k) - K_h @ (P_t @ b2).reshape(n * hf, k))
        x2 = B_inv @ b2 - P @ (K_h.T @ x1).reshape(n, hf, k)
        return np.concatenate([x1, x2.reshape(n * rz, k)]).reshape(b.shape)

    return solve


def _normal_factor(kernel, W: CovarianceModel, context: str, xts=None):
    """Factor ``G = K W K'``; over ``K = I`` this factors ``W`` itself.

    The one dispatch of every solve.  A low-rank ``W = D + U U'`` over a
    non-empty kernel is ``woodbury``: ``G0 = K D K'`` is factored by this
    dispatch, ``xts`` included, and :func:`_woodbury` solves ``G = G0 + KU
    (KU)'`` without forming it.  Otherwise, when ``kernel`` comes with its
    :class:`CrossTemporalStructure` ``xts``, has at least
    ``_SPARSE_MIN_RANK`` rows and ``W`` stores no entry between two series,
    ``G`` is factored by :func:`_two_stage`; else it is assembled and
    factored by :func:`_factor`.

    Returns ``(factorization, solve)``, as :func:`_factor`.
    """
    r = kernel.shape[0]
    if W.structure == "low-rank" and r:
        D = CovarianceModel(W.kind, "diagonal", W.size, diag_values=W.diag_values)
        solve = _normal_factor(kernel, D, context, xts)[1]
        return "woodbury", _woodbury(solve, np.asarray(kernel @ W.matrix.U), context)
    if xts is not None and r >= _SPARSE_MIN_RANK:
        blocks = _series_blocks(W, xts.n)
        if blocks is not None:
            return "two-stage", _two_stage(xts, blocks, context)
    return _factor(kernel @ W.apply(kernel.T), context)


def project(y_hat, W: CovarianceModel, kernel) -> ReconciliationResult:
    """Adjust ``y_hat`` onto the null space of ``kernel``.

    ``kernel`` is an ``r x s`` full-row-rank constraint matrix (dense or
    sparse) with ``s = W.size`` and finite entries; ``W`` must be positive
    definite.  The result's ``condition_estimate`` is computed when it is
    first read.
    """
    return _project(y_hat, W, _checked_kernel(kernel, W.size))


def _forecast_vector(y_hat, W: CovarianceModel) -> np.ndarray:
    """``y_hat`` as a finite float vector of ``W``'s size."""
    y = require_finite(y_hat, "forecast vector").ravel()
    if W.size != y.size:
        raise DimensionMismatch(f"covariance has size {W.size}, forecast vector has {y.size}")
    return y


def _project(y_hat, W: CovarianceModel, K, xts=None) -> ReconciliationResult:
    """:func:`project` over a checked kernel ``K``, told the structure
    ``xts`` whose kernel ``K`` is."""
    y = _forecast_vector(y_hat, W)
    d0 = np.asarray(K @ y).ravel()
    factorization, solve = _normal_factor(K, W, "project", xts)
    adjustment = np.asarray(W.apply(K.T @ solve(d0))).ravel()
    y_tilde = y - adjustment
    return ReconciliationResult(
        y_tilde=y_tilde,
        adjustment=adjustment,
        coherency_errors_before=-d0,
        diagnostics={
            "factorization": factorization,
            "constraint_residual": float(np.max(np.abs(np.asarray(K @ y_tilde)), initial=0.0)),
        },
        _condition=partial(_condition_estimate, K, W, solve),
    )


def project_structural(y_hat, W: CovarianceModel, summing) -> ReconciliationResult:
    """Generalized least-squares fit of the bottom coordinates.

    Solves for ``beta`` minimizing the W-weighted distance of
    ``summing @ beta`` to ``y_hat`` and returns the re-aggregated vector;
    equivalent to :func:`project` with the matching kernel.  ``W`` is
    factored by :func:`_normal_factor` over the identity kernel, so it
    passes the same factorization rule and pivot gate as ``K W K'``.
    ``diagnostics`` hold ``beta`` only.
    """
    y = _forecast_vector(y_hat, W)
    S = _as_dense(_checked_kernel(summing, name="summing matrix"))
    if S.shape[0] != y.size:
        raise DimensionMismatch(
            f"summing matrix has {S.shape[0]} rows, forecast vector has {y.size}"
        )
    WinvS = _normal_factor(sp.identity(W.size), W, "project_structural")[1](S)
    beta = _cholesky(S.T @ WinvS, "project_structural")(WinvS.T @ y)
    y_tilde = S @ beta
    return ReconciliationResult(
        y_tilde=y_tilde,
        adjustment=y - y_tilde,
        coherency_errors_before=np.zeros(0),
        diagnostics={"beta": beta},
    )


def _projectors(kernel, blocks: np.ndarray) -> np.ndarray:
    """The stack of dense projectors ``I - W_i K' (K W_i K')^{-1} K`` over one
    ``r x s`` kernel for the ``blocks`` of :func:`_batched_cholesky`: one
    batched Cholesky ``K W_i K' = L L'``, and ``I - (V W_i)' V`` with ``V =
    L^{-1} K``.  No condition estimate is computed."""
    K = _as_dense(kernel)
    KW, L = _batched_cholesky(K, blocks, "projector")
    B = np.concatenate([np.broadcast_to(K, KW.shape), KW], axis=-1)
    V, VW = np.split(np.linalg.solve(L, B), 2, axis=-1)  # L^{-1} K, L^{-1} K W
    return np.eye(K.shape[1]) - np.swapaxes(VW, -1, -2) @ V


def projector(kernel, W: CovarianceModel) -> np.ndarray:
    """Materialize the dense projection matrix fixing the kernel's null space."""
    return _projectors(_checked_kernel(kernel, W.size), W.dense()[None])[0]


def reconciled_covariance(W: CovarianceModel, kernel) -> np.ndarray:
    """Covariance of the reconciliation error, ``W - W K' (K W K')^{-1} K W``.

    Dense (``size x size``) for every structure of ``W``, from one
    factorization of ``K W K'``; its columns lie in the null space of the
    ``r x s`` kernel.  This is the covariance of the Gaussian
    reconciled forecast distribution when ``W`` is that of the base
    forecasts.
    """
    kernel = _checked_kernel(kernel, W.size)
    solve = _normal_factor(kernel, W, "reconciled_covariance")[1]
    WKt = _as_dense(W.apply(kernel.T))
    return W.dense() - WKt @ solve(WKt.T)


def _as_tableau(Y_hat, xts: CrossTemporalStructure) -> ForecastTableau:
    return Y_hat if isinstance(Y_hat, ForecastTableau) else xts.tableau(Y_hat)


def _tableau_result(
    base: ForecastTableau, out: ForecastTableau, diagnostics: dict
) -> ReconciliationResult:
    """Result of a heuristic that maps the tableau ``base`` to ``out``."""
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
    Y = np.atleast_2d(require_finite(Y_hat, "forecast matrix"))
    if Y.shape[0] != cs.n:
        raise DimensionMismatch(
            f"forecast matrix has {Y.shape[0]} rows, structure has {cs.n} series"
        )
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
    W = [cross_sectional_cov(kind, xts.cs, Ek).dense() for Ek in E]
    return _projectors(xts.cs.kernel, np.stack(W))


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
    """The ``(n, w, w)`` stack of each series' temporal projector, from the
    series blocks of one model; for a kind that reads no residuals, one
    projector repeated."""
    if residuals is not None and residuals.n != xts.n:
        raise DimensionMismatch(f"residuals cover {residuals.n} series, not {xts.n}")
    if kind in ("t-ols", "t-struc"):
        residuals = None
    n = 1 if residuals is None else xts.n
    W = temporal_cov(kind, xts.ts, residuals, xts.h)
    return np.repeat(_projectors(xts.temporal_kernel, _series_blocks(W, n)), xts.n // n, 0)


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
    res = _project(tableau.vec_by_variable, W, xts.kernel, xts)
    out = tableau.with_values(
        res.y_tilde.reshape(xts.n, xts.width), provenance=f"reconciled:{W.kind}"
    )
    return replace(res, tableau=out)
