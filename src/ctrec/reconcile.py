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
``acov`` kinds): block elimination of the temporal rows, the inverse
Cholesky factors of the per-series ``Z W_i Z'``, then one factorization of
the cross-sectional Schur complement, a block-sparse matrix of the
per-series blocks weighted by one sparse-dense product with the pairwise
products of the cross-sectional kernel's columns, not a sparse triple
product (:func:`_schur_complement`).  It is exact, the counterpart of the
temporal-first two-step heuristic; a diagonal ``W`` stays a stack of
diagonals there and scales the columns of ``Z``.  A diagonal-plus-low-rank
``W = D + U U'`` (the shrinkage kinds with fewer residual cycles than
values) is ``woodbury``, a composition: the dispatch factors ``G0 = K D
K'``, by the two-stage path where that applies, and ``G = G0 + (K U)(K
U)'`` is solved through the Cholesky factor of the small capacitance
matrix without being formed.  Over ``h > 1`` forecast cycles, a ``W`` of
``h`` equal copies of one cycle's model with no entry between cycles (every
model the estimators build) makes ``G`` a row permutation of ``I_h (x)
G1``: the structure's one-cycle ``G1 = K1 W1 K1'`` is factored by the same
dispatch, a composition like ``woodbury``, and one call of its solver takes
the right-hand sides of every cycle side by side (:func:`_per_cycle`).  The
bare kernel of :func:`project` keeps the whole-``G`` rules.  Every factor
passes one positive-definiteness gate: dense Cholesky factors come from
:func:`ctrec.covariance._cholesky_gate` (SciPy's ``cho_solve`` solves with
them), and a sparse LU meets its pivot rule on ``diag(U)``.  Every path has
the same 1-norm condition estimate over the whole ``G``
(:func:`_condition_estimate`, SciPy's ``onenormest`` with one column),
which the result of :func:`project` computes on first access.  The
equivalent structural form solves the generalized least-squares problem
on the bottom coordinates and re-aggregates; it factors ``W`` by the same
core, as ``K W K'`` over the identity kernel.  :func:`reconciled_covariance`
gives the covariance of the reconciliation error on demand.  The public
entry points reject a kernel that is not 2-D, of another width than ``W``,
or with a NaN or infinite entry.

The cross-temporal wrapper projects once globally.  The per-level and
per-series wrappers and the heuristics apply materialized projectors, one
stack by :func:`_projectors` (the temporal ones from the series blocks of
one model), with no condition estimate.  Its inverse Cholesky factors of
every ``K W_i K'``, gated slice by slice, come from the two-stage path's
helper, :func:`_batched_cholesky`, which factors a stack of equal blocks once.
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
    _one_cycle,
    _pivots_pass,
    _series_blocks,
    cross_sectional_cov,
    cross_temporal_cov,
    temporal_cov,
)
from .crosstemporal import CrossTemporalStructure, _checked_kernel, commutation_indices
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
    W K'``, else ``"cholesky"``; for a solve per forecast cycle, that of one
    cycle's ``K W K'``) and the post-solve maximum constraint violation
    (``"constraint_residual"``).

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


def _condition_estimate(K, W: CovarianceModel, solve) -> float:
    """The 1-norm condition estimate of ``G = K W K'`` on every path: SciPy's
    ``onenormest`` with one column (Hager's method, no random columns) over
    products with the symmetric ``G``, times the same over ``solve``, a
    solver of ``G``; 1.0 for an empty ``G``."""
    r = K.shape[0]
    if r == 0:
        return 1.0

    def norm1(apply):  # symmetric: apply is its own adjoint
        return spla.onenormest(spla.LinearOperator((r, r), apply, apply, dtype=float), t=1)

    return float(norm1(lambda b: K @ W.apply(K.T @ b)) * norm1(solve))


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
    """``(K W, L^{-1})`` for the dense kernel ``K`` and a stack of blocks
    ``W_i``, or of their diagonals, as :func:`_series_blocks` gives them: by
    ``dtrtri``, the inverses of the lower Cholesky factors of every ``K W_i
    K' = L_i L_i'``, each gated against its own largest pivot by the SPD gate;
    stacks of one, from the first block alone, when every block equals it."""
    blocks = blocks[:1] if (blocks == blocks[:1]).all() else blocks
    KW = K * blocks[:, None, :] if blocks.ndim == 2 else K @ blocks
    L = _gated(*_cholesky_gate(KW @ K.T), context)
    # dtrtri never fails on a gated factor, but rejects an empty one.
    Linv = np.stack([scipy.linalg.lapack.dtrtri(Li, lower=1)[0] for Li in L]) if len(K) else L
    return KW, Linv


def _schur_complement(kappa: np.ndarray, M: np.ndarray) -> sp.csr_matrix:
    """``S = K_h blkdiag(M_i) K_h'`` for the ``(n, hf, hf)`` stack ``M``,
    where ``K_h`` is the cross-sectional kernel ``kappa`` (``n_a x n``) at
    each of ``hf`` time points, rows in the kernel's ``(t, a)`` order.

    The ``(a, b)`` block of ``S`` is ``sum_i kappa[a, i] kappa[b, i] M_i``.
    The rows ``kappa[a, i] kappa[b, i]`` of the column outer products, one
    per pair ``(a, b)`` that shares a column, come from the nonzeros of
    ``kappa`` and multiply ``M`` as ``n x hf^2`` in one sparse-dense
    product.  The blocks form a block-sparse matrix in ``(a, t)`` order,
    permuted once into ``(t, a)`` order and stored without its zeros: the
    pattern of the sparse product ``K_h blkdiag(M_i) K_h'``.
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
    indptr = np.r_[0, np.cumsum(np.bincount(a, minlength=n_a))]
    perm = commutation_indices(hf, n_a)  # row (t, a) of S is row (a, t) of the blocks
    S = sp.bsr_matrix((blocks, b, indptr), shape=(n_a * hf, n_a * hf)).tocsr()[perm][:, perm]
    S.sort_indices()
    S.eliminate_zeros()
    return S


def _two_stage(xts: CrossTemporalStructure, blocks, context: str):
    """The solver of ``G = K W K'`` over the kernel ``K = [K_c ; I_n (x) Z]``
    of ``xts`` for ``W = blkdiag(W_i)``, given by :func:`_series_blocks` as
    the stack ``blocks`` of the ``W_i`` or, for a diagonal ``W``, of their
    diagonals, by block elimination of the temporal rows.

    Stage one factors every ``B_i = Z W_i Z' = L_i L_i'`` by
    :func:`_batched_cholesky`, which gives the inverse factors (one, for
    every series, when all ``W_i`` are equal), and keeps them, ``V_i =
    L_i^{-1} Z W_i[:, hf]`` and the temporally reconciled ``M_i = W_i[hf,
    hf] - V_i' V_i`` on the ``hf`` highest-frequency columns, the only ones
    ``K_c`` reads.  A diagonal ``W_i`` scales the columns of ``Z``.  Stage two
    factors the Schur complement ``S = K_h blkdiag(M_i) K_h'`` by
    :func:`_factor`, where ``K_h`` is ``K_c`` on those columns;
    :func:`_schur_complement` assembles ``S`` as a sparse matrix from ``M``
    and the cross-sectional kernel, so the rank and fill rule sees the
    matrix the sparse product would give.  ``G [x1; x2] = [b1; b2]`` is then
    solved by ``y = L^{-1} b2``, ``x1 = S^{-1} (b1 - K_h V' y)`` and ``x2 =
    L^{-T} (y - V K_h' x1)``: batched products, one ``S`` solve and two
    sparse products.
    """
    K, n, q = xts.kernel, xts.n, xts.width
    Z = _as_dense(xts.temporal_kernel)
    rz, hf = Z.shape[0], xts.h * xts.ts.m
    hf_cols = slice(q - hf, q)  # the last h m values of every series
    ZW, Linv = _batched_cholesky(Z, blocks, f"{context}, temporal stage")
    V = Linv @ ZW[:, :, hf_cols]
    V_t, Linv_t = np.swapaxes(V, 1, 2), np.swapaxes(Linv, 1, 2)
    Whf = blocks[:, hf_cols, None] * np.eye(hf) if blocks.ndim == 2 else blocks[:, hf_cols, hf_cols]
    M = Whf - V_t @ V
    rc = K.shape[0] - n * rz
    K_h = K[:rc][:, (q * np.arange(n)[:, None] + np.arange(q - hf, q)).ravel()]
    solve_s = _factor(_schur_complement(xts.cs.kernel, M), f"{context}, cross-sectional stage")[1]

    def solve(b):
        b = np.asarray(b, dtype=float)
        k = b[0].size if b.ndim > 1 else 1
        y = Linv @ b[rc:].reshape(n, rz, k)
        x1 = solve_s(b[:rc].reshape(rc, k) - K_h @ (V_t @ y).reshape(n * hf, k))
        x2 = Linv_t @ (y - V @ (K_h.T @ x1).reshape(n, hf, k))
        return np.concatenate([x1, x2.reshape(n * rz, k)]).reshape(b.shape)

    return solve


def _per_cycle(solve, rows: np.ndarray):
    """Solver of ``G`` from a solver of ``G1``, where the rows ``rows[c]`` of
    ``G`` meet as ``G1`` within every cycle ``c`` and not at all across
    cycles: the right-hand sides of all cycles go side by side, as ``(r1,
    h k)``, to one call."""
    rows = rows.T

    def solve_cycles(b):
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[rows] = solve(b[rows].reshape(len(rows), -1)).reshape(rows.shape + b.shape[1:])
        return x

    return solve_cycles


def _normal_factor(kernel, W: CovarianceModel, context: str, xts=None):
    """Factor ``G = K W K'``; over ``K = I`` this factors ``W`` itself.

    The one dispatch of every solve.  When ``kernel`` comes with its
    :class:`CrossTemporalStructure` ``xts`` over ``h > 1`` forecast cycles
    and ``W`` is ``h`` equal copies of one cycle's model ``W1`` with no entry
    between cycles (:func:`ctrec.covariance._one_cycle`), ``G`` is ``I_h (x)
    G1`` up to a permutation of its rows: ``G1 = K1 W1 K1'`` over the
    structure's ``one_cycle`` is factored by this dispatch, and
    :func:`_per_cycle` solves every cycle through it.  A low-rank ``W = D +
    U U'`` over a non-empty kernel is ``woodbury``: ``G0 = K D K'`` is
    factored by this dispatch, ``xts`` included, and :func:`_woodbury`
    solves ``G = G0 + KU (KU)'`` without forming it.  Otherwise, when ``kernel`` comes with its
    :class:`CrossTemporalStructure` ``xts``, has at least
    ``_SPARSE_MIN_RANK`` rows and ``W`` stores no entry between two series,
    ``G`` is factored by :func:`_two_stage`; else it is assembled and
    factored by :func:`_factor`.

    Returns ``(factorization, solve)``, as :func:`_factor`; a solve per
    cycle reports the factorization of ``G1``.
    """
    r = kernel.shape[0]
    if xts is not None and xts.h > 1:
        W1 = _one_cycle(W, xts.ts, xts.h, xts.n)
        if W1 is not None:
            one = xts.one_cycle
            factorization, solve = _normal_factor(one.kernel, W1, context, one)
            return factorization, _per_cycle(solve, xts.cycle_rows)
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
    ``r x s`` kernel for the ``blocks`` of :func:`_batched_cholesky`: ``I -
    (L^{-1} K W_i)' (L^{-1} K)`` from its inverse factors, one repeated for
    equal blocks.  No condition estimate is computed."""
    K = _as_dense(kernel)
    KW, Linv = _batched_cholesky(K, blocks, "projector")
    P = np.eye(K.shape[1]) - np.swapaxes(Linv @ KW, -1, -2) @ (Linv @ K)
    return P if len(P) == len(blocks) else np.repeat(P, len(blocks), 0)


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
    series blocks of one model, which without residuals has one block."""
    if residuals is not None and residuals.n != xts.n:
        raise DimensionMismatch(f"residuals cover {residuals.n} series, not {xts.n}")
    W = temporal_cov(kind, xts.ts, residuals, xts.h)
    blocks = _series_blocks(W, 1 if residuals is None else xts.n)
    return np.repeat(_projectors(xts.temporal_kernel, blocks), xts.n // len(blocks), 0)


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
