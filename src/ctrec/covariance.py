"""Covariance approximations for reconciliation solves.

Every estimator produces a :class:`CovarianceModel`: a named, symmetric,
positive-definite matrix in one of five structural forms (identity,
diagonal, block-diagonal, diagonal plus low rank, full).  Residual-based
estimators work on uncentered mean-square-error moments throughout; no
mean is subtracted.

Three menus are provided, one per reconciliation dimension:

* cross-temporal (``oct-``): global, ``n h(k*+m)`` square, parameterized
  for the series-major vectorization;
* cross-sectional (``cs-``): per time point, ``n x n``; the ``oct-`` menu
  over one temporal level (``cs-wls`` is its ``wlsh``);
* temporal (``t-``): per series, ``h(k*+m)`` square, for one series or, side
  by side, every series of a tableau; the ``oct-`` menu over one series, plus
  the Markov family (``t-strar1``, ``t-sar1``, ``t-har1``): AR(1) correlation
  blocks scaled by the ``struc``, ``wlsv`` or ``wlsh`` diagonal.

One estimator, :func:`_estimate`, serves all three menus.  It reads every
residual input as a :class:`ResidualTableau`, level by level through
:func:`_levels`, builds the model of one cycle (series-major), and
assembles block-diagonal ones in one place.  One function,
:func:`_over_cycles`, extends a one-cycle model to ``h`` forecast cycles
and records it and its layout on the extension, which the solves read.

A model multiplies (``apply``) and densifies (``dense``) but does not
solve: every solve with ``W`` or ``K W K'`` is factored by the one core in
:mod:`ctrec.reconcile`.  Positive definiteness has one rule,
:func:`_pivots_pass`: every pivot or eigenvalue above ``r eps`` times its
matrix's largest.  One gate, :func:`_cholesky_gate`, applies it to the
pivots of one batched NumPy Cholesky for that core and the estimators, so
a matrix singular to rounding fails even when LAPACK completes it;
:func:`_lift_to_pd` applies it to the eigenvalues of a sample stack.
Finiteness is checked first: a model rejects NaN and infinite payloads
when built, and :func:`sample_mse` moments that overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .crosstemporal import CrossTemporalStructure
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidInput,
    OrderingMismatch,
    SingularCovariance,
    require_finite,
    require_integer,
    require_real,
)
from .hierarchy import CrossSectionalStructure
from .temporal import TemporalStructure, _cycle_positions, _per_level, build_temporal

__all__ = [
    "ResidualTableau",
    "CovarianceModel",
    "sample_mse",
    "shrink",
    "cross_sectional_cov",
    "temporal_cov",
    "cross_temporal_cov",
    "CS_KINDS",
    "T_KINDS",
    "OCT_KINDS",
]

CS_KINDS = ("cs-ols", "cs-struc", "cs-wls", "cs-shr", "cs-sam")
T_KINDS = (
    "t-ols",
    "t-struc",
    "t-wlsh",
    "t-wlsv",
    "t-shr",
    "t-sam",
    "t-acov",
    "t-strar1",
    "t-sar1",
    "t-har1",
)
OCT_KINDS = (
    "oct-ols",
    "oct-struc",
    "oct-wlsh",
    "oct-wlsv",
    "oct-bdshr",
    "oct-bdsam",
    "oct-acov",
    "oct-shr",
    "oct-sam",
    "oct-bdsam-l",
)

# Each covariance structure and the payload fields its form needs.
_PAYLOADS = {
    "identity": (),
    "diagonal": ("diag_values",),
    "block-diagonal": ("matrix",),
    "low-rank": ("diag_values", "matrix"),
    "full": ("matrix",),
}

# Relative ridge used to lift borderline sample matrices to the PD cone.
_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# Residual bookkeeping


@dataclass(frozen=True)
class ResidualTableau:
    """In-sample residuals for all nodes of a cross-temporal hierarchy.

    ``values`` has one row per node, series-major, each series block in
    the within-cycle level-blocked order, and one column per observation
    cycle.  The single-series case (``n = 1``) is the residual layout of
    one series' temporal model.
    """

    values: np.ndarray
    n: int
    ts: TemporalStructure

    def __post_init__(self):
        require_integer("n", self.n, 1)
        # A copy, so that freezing it leaves the caller's array writeable.
        vals = np.array(require_finite(self.values, "residual tableau"), order="C")
        expected = self.n * self.ts.cycle_len
        if vals.ndim != 2 or vals.shape[0] != expected:
            raise DimensionMismatch(
                f"residual tableau has {vals.shape} rows, expected {expected}"
            )
        if vals.shape[1] < 1:
            raise InvalidInput("residual tableau needs at least one cycle")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_cycles(self) -> int:
        return self.values.shape[1]

    def series_block(self, i: int) -> np.ndarray:
        """Rows of series ``i``: ``(k*+m) x N``; ``i`` outside ``[0, n)`` is
        :class:`InvalidInput`."""
        if not 0 <= i < self.n:
            raise InvalidInput(f"series index {i!r} is outside [0, {self.n})")
        cl = self.ts.cycle_len
        return self.values[i * cl : (i + 1) * cl]

    def level_matrix(self, k: int) -> np.ndarray:
        """All series at level ``k``: ``n x (N M_k)``, columns in time order."""
        slc = self.ts.level_slice(k)
        by_series = self.values.reshape(self.n, self.ts.cycle_len, -1)[:, slc]
        return by_series.transpose(0, 2, 1).reshape(self.n, -1)


# ---------------------------------------------------------------------------
# Covariance model


@dataclass(frozen=True)
class CovarianceModel:
    """A named covariance approximation with explicit structure.

    ``structure`` is one of ``identity``, ``diagonal``, ``block-diagonal``,
    ``low-rank`` or ``full``; the payload lives in ``diag_values``
    (diagonal forms) or ``matrix`` (dense for full, sparse for
    block-diagonal).  ``low-rank`` is ``W = diag(diag_values) + U U'``:
    ``matrix`` is given as the tall factor ``U`` and held with the diagonal
    in one object whose ``np.asarray`` is the dense ``W``, built only on
    that access.  Arrays are copied, so the caller's stay writeable.

    A model has no solve: ``reconcile._normal_factor`` over the identity
    kernel factors ``W`` by the same rule and pivot gate as ``K W K'``.
    The form is checked when built: a ``size`` that is not an integer of at
    least 1, an unknown ``structure``, a form without its payload, or a
    factor ``U`` that is not a dense array is :class:`InvalidInput`;
    ``diag_values`` of a length other than ``size``, a ``matrix`` not ``size
    x size`` or a factor ``U`` not ``size x k`` is :class:`DimensionMismatch`;
    and a NaN or infinite entry in ``diag_values`` or ``matrix`` raises
    :class:`InvalidEntry`.

    ``one_cycle`` is the model of one forecast cycle when an estimator built
    this one as ``h > 1`` copies of it (:func:`_over_cycles`), laid out by
    ``cycle_layout``, else both are ``None``.  Neither is set by
    ``__init__``, and ``dataclasses.replace`` drops both.
    """

    kind: str
    structure: str
    size: int
    diag_values: np.ndarray | None = None
    matrix: object = None
    lam: float | tuple[float, ...] | None = None
    rho: dict | None = field(default=None)
    one_cycle: CovarianceModel | None = field(default=None, init=False, repr=False, compare=False)
    cycle_layout: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_integer("size", self.size, 1)
        if self.structure not in _PAYLOADS:
            raise InvalidInput(f"{self.kind}: unknown covariance structure {self.structure!r}")
        for payload in _PAYLOADS[self.structure]:
            if getattr(self, payload) is None:
                raise InvalidInput(f"{self.kind}: a {self.structure} structure needs {payload}")
        if self.diag_values is not None:
            d = np.array(require_finite(self.diag_values, f"{self.kind} diagonal"), order="C")
            self._require_shape("diagonal", d.shape, (self.size,))
            d.flags.writeable = False
            object.__setattr__(self, "diag_values", d)
        m = self.matrix
        if self.structure == "low-rank":
            m = m.U if isinstance(m, _LowRank) else m  # wrapped anew with this diagonal
            if not isinstance(m, np.ndarray):
                raise InvalidInput(f"{self.kind}: a low-rank structure needs a dense factor U, "
                                   f"got {type(m).__name__}")
            if m.ndim != 2 or m.shape[0] != self.size:
                raise DimensionMismatch(
                    f"{self.kind} low-rank factor has shape {m.shape}, expected ({self.size}, k)")
        elif isinstance(m, np.ndarray) or sp.issparse(m):
            self._require_shape("matrix", m.shape, (self.size, self.size))
        if isinstance(m, np.ndarray):
            m = np.array(require_finite(m, f"{self.kind} matrix"), order="C")
            m.flags.writeable = False
            if self.structure == "low-rank":
                m = _LowRank(self.diag_values, m)
            object.__setattr__(self, "matrix", m)
        elif sp.issparse(m):
            require_finite(m.data, f"{self.kind} matrix")

    def _require_shape(self, what: str, shape: tuple, expected: tuple) -> None:
        if shape != expected:
            raise DimensionMismatch(f"{self.kind} {what} has shape {shape}, expected {expected}")

    def apply(self, M):
        """Return ``W @ M`` without densifying structured payloads."""
        if self.structure == "identity":
            return M
        if self.structure == "diagonal":
            if sp.issparse(M):
                return sp.diags(self.diag_values) @ M
            M = np.asarray(M)
            return self.diag_values[:, None] * M if M.ndim == 2 else self.diag_values * M
        if self.structure == "low-rank":
            M = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
            U = self.matrix.U
            d = self.diag_values[:, None] if M.ndim == 2 else self.diag_values
            return d * M + U @ (U.T @ M)
        return self.matrix @ M

    def dense(self) -> np.ndarray:
        if self.structure == "identity":
            return np.eye(self.size)
        if self.structure == "diagonal":
            return np.diag(self.diag_values)
        if sp.issparse(self.matrix):
            return self.matrix.toarray()
        return np.array(self.matrix)

    def diagonal(self) -> np.ndarray:
        if self.structure == "identity":
            return np.ones(self.size)
        if self.structure == "diagonal":
            return np.array(self.diag_values)
        if self.structure == "low-rank":
            U = self.matrix.U
            return self.diag_values + np.einsum("ij,ij->i", U, U)
        if sp.issparse(self.matrix):
            return np.asarray(self.matrix.diagonal())
        return np.diag(self.matrix).copy()

    def require_spd(self):
        """Raise :class:`SingularCovariance` unless positive definite.

        A low-rank model is positive definite when its diagonal is, since
        ``U U'`` is positive semi-definite.
        """
        if self.structure == "identity":
            return
        if self.structure in ("diagonal", "low-rank"):
            if np.any(self.diag_values <= 0):
                raise SingularCovariance(
                    f"{self.kind}: diagonal has non-positive entries"
                )
            return
        _require_pd(self.dense(), self.kind)


class _LowRank:
    """The payload of a ``low-rank`` model: ``diag(d) + U U'`` as factors.

    ``np.asarray`` builds the dense matrix, for callers that need one.
    """

    def __init__(self, d: np.ndarray, U: np.ndarray):
        self.d, self.U = d, U

    def __array__(self, dtype=None, copy=None):
        W = self.U @ self.U.T
        W[np.diag_indices_from(W)] += self.d
        return W if dtype is None else W.astype(dtype, copy=False)


def _pivots_pass(pivots: np.ndarray) -> np.ndarray:
    """The positive-definiteness rule per row of pivots, of symmetric
    factorizations without off-diagonal pivoting, or of eigenvalues: all
    above ``r eps`` times the row's largest (``matrix_rank``'s tolerance).
    Below it, a value is roundoff from a singular matrix; a NaN fails."""
    tol = pivots.shape[-1] * np.finfo(float).eps * pivots.max(-1, keepdims=True, initial=0.0)
    return np.all(pivots > tol, axis=-1)


def _cholesky_gate(A: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """The one positive-definiteness gate: ``(L, ok)``, the lower Cholesky
    factors of the symmetrized matrix or stack ``A`` by one batched NumPy
    call, and whether every matrix's pivots ``L_jj^2`` pass
    :func:`_pivots_pass`.  ``L`` is ``None`` when LAPACK stops."""
    try:
        L = np.linalg.cholesky(0.5 * (A + np.swapaxes(A, -1, -2)))
    except np.linalg.LinAlgError:
        return None, False
    return L, bool(_pivots_pass(np.diagonal(L, axis1=-2, axis2=-1) ** 2).all())


def _require_pd(A: np.ndarray, label: str) -> None:
    """:class:`SingularCovariance` unless every matrix of ``A`` passes the gate."""
    if not _cholesky_gate(A)[1]:
        raise SingularCovariance(f"{label}: matrix is not positive definite")


def _diagonal(kind: str, d: np.ndarray, **kw) -> CovarianceModel:
    d = np.asarray(d, dtype=float)
    model = CovarianceModel(
        kind=kind, structure="diagonal", size=d.size, diag_values=d, **kw
    )
    model.require_spd()
    return model


def _full(kind: str, A: np.ndarray, **kw) -> CovarianceModel:
    """Dense model of a matrix that already passed the SPD gate."""
    A = np.asarray(A, dtype=float)
    A = 0.5 * (A + A.T)
    return CovarianceModel(kind=kind, structure="full", size=A.shape[0], matrix=A, **kw)


def _block_diagonal(kind: str, pairs, size: int, **kw) -> CovarianceModel:
    """Block-diagonal CSR model of ``size`` values from ``(rows, blocks)``
    pairs: ``blocks`` (``b x s x s``, or broadcast to it) sit on the rows and
    columns ``rows`` (``b x s``).  Zeros are not stored."""
    coo = []
    for rows, blocks in pairs:
        shape = rows.shape + rows.shape[-1:]
        coo.append([np.broadcast_to(x, shape).ravel()
                    for x in (blocks, rows[..., :, None], rows[..., None, :])])
    data, r, c = map(np.concatenate, zip(*coo))
    A = sp.csr_matrix((data, (r, c)), shape=(size, size))
    A.eliminate_zeros()
    return CovarianceModel(kind, "block-diagonal", size, matrix=A, **kw)


def _over_cycles(W1: CovarianceModel, ts: TemporalStructure, h: int, n: int) -> CovarianceModel:
    """The model of ``h`` forecast cycles of ``n`` series whose every cycle is
    ``W1``, with nothing between cycles: the series-major, level-blocked form
    of ``I_h (x) W1``, recorded as its ``one_cycle`` with the layout
    ``cycle_layout = (ts.factors, h, n)``; for ``h = 1``, ``W1`` itself.

    A diagonal is scattered to :func:`temporal._cycle_positions`, a factor
    ``U`` with one column block per cycle.  A block-diagonal or full ``W1``
    becomes one CSR gathered from its canonical rows: every row of the
    positions increases, so the copied rows stay sorted."""
    if h == 1:
        return W1
    kw = {"size": h * W1.size}
    pos = None if W1.structure == "identity" else _cycle_positions(ts, h, n)
    if W1.diag_values is not None:
        kw["diag_values"] = np.empty(pos.size)
        kw["diag_values"][pos] = W1.diag_values
    if W1.structure == "low-rank":
        U1 = W1.matrix.U
        q = U1.shape[1]
        kw["matrix"] = np.zeros((pos.size, h * q))
        kw["matrix"][pos[:, :, None], np.arange(h * q).reshape(h, 1, q)] = U1
    elif W1.matrix is not None:
        A = sp.csr_matrix(W1.matrix)
        # Stacked row c size + v is row v of W1 in cycle c; it sits at pos[c, v].
        stacked = sp.csr_matrix((np.tile(A.data, h), pos[:, A.indices].ravel(),
                                 np.r_[0, np.cumsum(np.tile(np.diff(A.indptr), h))]),
                                shape=(pos.size, pos.size))
        where = np.empty(pos.size, dtype=np.int64)
        where[pos.ravel()] = np.arange(pos.size)
        kw.update(structure="block-diagonal", matrix=stacked[where])
    Wh = replace(W1, **kw)
    object.__setattr__(Wh, "one_cycle", W1)
    object.__setattr__(Wh, "cycle_layout", (ts.factors, h, n))
    return Wh


def _series_blocks(W: CovarianceModel, n: int) -> np.ndarray | None:
    """The diagonal blocks ``W_i`` of a ``W`` that is block-diagonal by
    series (``q = W.size / n`` values each): the ``(n, q)`` stack of their
    diagonals for an identity or diagonal ``W``, else the ``(n, q, q)``
    stack of the blocks, decoded from :func:`_block_diagonal`'s matrix.
    ``None`` when ``W`` is low-rank, full, or stores an entry between two
    series."""
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


# ---------------------------------------------------------------------------
# Moment estimators


def sample_mse(E: np.ndarray) -> np.ndarray:
    """Uncentered second-moment matrix ``E E' / N`` of residual rows ``E``
    (``p x N``, or a stack of them); NaN or infinity in ``E``, or moments
    that overflow, raise InvalidEntry."""
    E = require_finite(np.atleast_2d(E), "residual matrix")
    return require_finite((E @ np.swapaxes(E, -1, -2)) / E.shape[-1], "residual moment matrix")


def _lift_to_pd(A: np.ndarray, label: str) -> np.ndarray:
    """Ridge-lift borderline sample matrices; reject truly indefinite ones.

    ``A`` is one finite matrix or a stack, symmetrized and its eigenvalues
    computed in one batched operation each.  Each matrix whose eigenvalues
    fail :func:`_pivots_pass` is lifted on its own, in stack order: a
    smallest eigenvalue within ``-_RIDGE * trace`` of zero is small-sample
    noise, lifted, and the lift must pass :func:`_cholesky_gate`; below
    that it aborts.  Cholesky pivots do not decide: they pass some ``t-sam``
    moment matrices of rank ``m``, whose projectors are then not coherent.
    """
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    stack = A.reshape(-1, *A.shape[-2:])  # a view: lifts write into A
    eigenvalues = np.linalg.eigvalsh(stack)
    for i in np.flatnonzero(~_pivots_pass(eigenvalues)):
        a = stack[i]
        tr = float(np.trace(a))
        if tr <= 0:
            raise SingularCovariance(f"{label}: sample matrix has non-positive trace")
        emin = float(eigenvalues[i, 0])
        if emin <= -_RIDGE * tr:
            raise SingularCovariance(
                f"{label}: sample matrix is indefinite (min eigenvalue {emin:.3e})"
            )
        stack[i] = a + _RIDGE * tr * np.eye(a.shape[0])
        _require_pd(stack[i], label)
    return A


def _sample_estimate(kind: str, E: np.ndarray, shrunk: bool):
    """SPD-checked moment matrices of the stack ``E`` of residual rows (``g x
    p x N``): ``(matrices, lam)``, ``lam`` the intensity of a single matrix,
    a tuple of one intensity per matrix, or ``None`` when not shrunk.

    Each is shrunk toward its diagonal, or ridge-lifted when borderline.
    """
    if not shrunk:
        return _lift_to_pd(sample_mse(E), kind), None
    A, lams = zip(*(shrink(S, residuals=Ei) for S, Ei in zip(sample_mse(E), E)))
    A = np.stack(A)
    _require_pd(A, kind)
    return A, lams if len(lams) > 1 else lams[0]


def shrink(
    sample: np.ndarray,
    residuals: np.ndarray | None = None,
    lam: float | None = None,
) -> tuple[np.ndarray, float]:
    """Shrink a sample moment matrix toward its diagonal.

    Returns ``lam * diag(sample) + (1 - lam) * sample``, with the sample's
    diagonal kept bit for bit, and the intensity used.  Without ``lam`` the
    intensity is estimated from ``residuals``, the sample's ``p x N``
    residual rows, by :func:`_shrink_intensity`.  NaN or infinite entries
    in ``sample`` or ``residuals`` raise :class:`InvalidEntry`.
    """
    sample = require_finite(np.atleast_2d(sample), "sample matrix")
    d = np.diag(sample)
    if np.any(d == 0):
        raise DegenerateSample("sample matrix has a zero diagonal entry")
    if residuals is not None:
        residuals = require_finite(np.atleast_2d(residuals), "residual matrix")
    if lam is None:
        if residuals is None:
            raise InvalidInput("shrink needs residuals unless lam is given")
        if residuals.shape[0] != sample.shape[0]:
            raise DimensionMismatch("residual rows do not match the sample matrix")
        lam = _shrink_intensity(residuals, d, sample)
    else:
        require_real("shrinkage intensity", lam)
    lam = float(min(1.0, max(0.0, lam)))
    combined = lam * np.diag(d) + (1.0 - lam) * sample
    np.fill_diagonal(combined, d)  # keep the diagonal bit-exact
    return combined, lam


def _shrink_intensity(E: np.ndarray, d: np.ndarray, sample=None) -> float:
    """Shrinkage intensity toward the diagonal for residual rows ``E``
    (``p x N``) with mean squares ``d``, clamped to [0, 1].

    ``lam = sum var(r_ij) / sum r_ij^2`` over off-diagonal cells, where
    ``r_ij`` is the mean product of the standardized rows ``z_i`` and
    ``z_j``, and ``var(r_ij)`` is the unbiased variance of the products
    divided by the number of observations.  ``sum r_ij^2`` is read from
    ``sample`` when given; otherwise it is ``(||Z'Z||_F^2 - sum_i
    ||z_i||^4) / N^2`` from the ``N x N`` Gram matrix, so no ``p x p``
    matrix is formed.
    """
    if np.any(d == 0):
        raise DegenerateSample("sample matrix has a zero diagonal entry")
    p, N = E.shape
    if N < 2 or p < 2:
        return 1.0
    scale = np.sqrt(d)
    Z = E / scale[:, None]
    Z2 = Z * Z
    if sample is None:
        gram = Z.T @ Z
        sum_r2 = float(np.sum(gram * gram) - np.sum(Z2.sum(axis=1) ** 2)) / N**2
    else:
        R = (sample / scale[:, None]) / scale[None, :]
        sum_r2 = float(np.sum(R * R) - np.sum(np.diag(R) ** 2))
    if sum_r2 <= 0:
        return 1.0
    # sum of the squared products over off-diagonal cells and observations
    s2 = Z2.sum(axis=0)
    s4 = (Z2 * Z2).sum(axis=0)
    sum_w2 = float(np.sum(s2 * s2 - s4))
    var_sum = (sum_w2 - N * sum_r2) / (N * (N - 1))
    return float(min(1.0, max(0.0, var_sum / sum_r2)))


# ---------------------------------------------------------------------------
# The three menus


def _require(cond: bool, kind: str, condition: str, detail: str):
    if not cond:
        raise SingularCovariance(f"{kind} requires {condition} ({detail})")


def _residual_tableau(kind: str, residuals, n: int, ts: TemporalStructure):
    """Residuals of ``n`` series over ``ts`` as a checked tableau with at
    least two cycles; raw arrays are converted."""
    if residuals is None:
        raise InvalidInput(f"{kind} needs residuals")
    if not isinstance(residuals, ResidualTableau):
        residuals = ResidualTableau(residuals, n, ts)
    if residuals.n != n or residuals.ts.factors != ts.factors:
        raise OrderingMismatch(
            "residual rows do not follow the structure's series/level layout"
        )
    N = residuals.n_cycles
    _require(N > 1, kind, "N > 1", f"got N={N}")
    return residuals


def _levels(res: ResidualTableau):
    """Yield ``(k, rows, E)`` per level ``k``: the ``n x M_k`` series-major
    positions of the level in one cycle, and their ``n x M_k x N`` residuals."""
    ts = res.ts
    V = res.values.reshape(res.n, ts.cycle_len, -1)
    first = ts.cycle_len * np.arange(res.n)[:, None]
    for k in ts.factors:
        slc = ts.level_slice(k)
        yield k, first + np.arange(slc.start, slc.stop), V[:, slc]


def _lag1_autocorr(X: np.ndarray) -> np.ndarray:
    """Uncentered lag-1 autocorrelation of every row of ``X``, kept inside
    the open unit interval."""
    num = (X[:, None, :-1] @ X[:, 1:, None])[:, 0, 0]
    den = (X[:, None] @ X[:, :, None])[:, 0, 0]
    rho = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
    return np.clip(rho, -1.0 + 1e-8, 1.0 - 1e-8)


# The Markov families scale AR(1) correlation blocks by these diagonals.
_MARKOV_SCALE = {"strar1": "struc", "sar1": "wlsv", "har1": "wlsh"}


def _estimate(kind: str, family: str, ts: TemporalStructure, d_series, residuals):
    """Estimate ``family`` (a kind without its menu prefix) for one cycle of
    the ``n = len(d_series)`` series over ``ts``.

    ``d_series`` holds each series' bottom count ``S 1``.  The model is
    series-major and labelled ``kind``.  Over several series, a ``t-``
    kind's ``lam`` and ``rho`` hold a tuple of one value per series.
    """
    n, cl = len(d_series), ts.cycle_len
    if family == "ols":
        return CovarianceModel(kind, "identity", n * cl)
    res = None if family == "struc" else _residual_tableau(kind, residuals, n, ts)
    scale = _MARKOV_SCALE.get(family, family)
    if scale == "struc":
        d = np.kron(d_series, _per_level(ts, ts.factors))
    elif scale == "wlsh":
        d = np.mean(res.values * res.values, axis=1)
    elif scale == "wlsv":  # each series' mean square at each level
        d = np.empty(n * cl)
        for _, rows, E in _levels(res):
            d[rows] = np.mean(E**2, axis=(1, 2))[:, None]
    if family in ("struc", "wlsh", "wlsv"):
        return _diagonal(kind, d)

    E, N = res.values, res.n_cycles  # E: n(k*+m) x N, series-major
    if family in ("shr", "sam"):
        # g moment matrices of p rows: one per series for a t- kind, else one.
        E = E.reshape(n if kind.startswith("t-") else 1, -1, N)
        g, p = E.shape[:2]
        if family == "sam":
            # Named as the menu counts rows: cs- per series, t- per position.
            rows = "k*+m" if g == n else "n" if cl == 1 else "n(k*+m)"
            _require(N > p, kind, f"N > {rows}", f"got N={N}, {rows}={p}")
        elif N < p and g == 1:
            # W = lam D + (1 - lam) E E' / N is a diagonal plus rank N; at
            # lam = 0 it is singular and the dense gate below says so.  Only a
            # model of one matrix takes this form.
            d = np.mean(E[0] * E[0], axis=1)
            lam = _shrink_intensity(E[0], d)
            if lam == 1.0:
                return _diagonal(kind, d, lam=lam)
            if lam > 0.0:
                return CovarianceModel(
                    kind=kind, structure="low-rank", size=d.size, diag_values=lam * d,
                    matrix=np.sqrt((1.0 - lam) / N) * E[0], lam=lam,
                )
        A, lam = _sample_estimate(kind, E, shrunk=family == "shr")
        if g == 1:
            return _full(kind, A[0], lam=lam)
        return _block_diagonal(kind, [(np.arange(n * cl).reshape(g, p), A)], n * cl, lam=lam)

    # One pass per level; each family's blocks cover that level's positions.
    if family == "acov":
        _require(N > ts.m, kind, "N > m", f"got N={N}, m={ts.m}")
    elif family.startswith("bd"):
        _require(N > n, kind, "N > n", f"got N={N}, n={n}")
    elif np.any(d <= 0):
        raise SingularCovariance(f"{kind}: zero variance on a node")
    pairs, lams, rho = [], [], {}
    for k, rows, E in _levels(res):
        if family in _MARKOV_SCALE:  # per series, AR(1) correlations scaled by sqrt(d)
            rho[k] = _lag1_autocorr(res.level_matrix(k))
            lag = np.abs(rows[0] - rows[0][:, None])
            r = np.sqrt(d[rows])
            # With |rho| < 1 the blocks are PD; the diagonal scaling keeps them so.
            pairs.append((rows, r[:, :, None] * rho[k][:, None, None] ** lag * r[:, None, :]))
        else:  # acov per series, bdsam-l per position, bdsam and bdshr per level
            X = (E if family == "acov" else E.transpose(1, 0, 2) if family == "bdsam-l"
                 else res.level_matrix(k)[None])
            B, lam = _sample_estimate(kind, X, family == "bdshr")
            pairs.append((rows if family == "acov" else rows.T, B))
            lams.append(lam)
    return _block_diagonal(
        kind, pairs, n * cl, lam=float(np.mean(lams)) if family == "bdshr" else None,
        rho={k: float(rho[k][0]) if n == 1 else tuple(rho[k].tolist())
             for k in ts.factors[1:]} if rho else None,
    )


def cross_temporal_cov(
    kind: str,
    xts: CrossTemporalStructure,
    residuals: ResidualTableau | np.ndarray | None = None,
) -> CovarianceModel:
    """Materialize one entry of the cross-temporal covariance menu.

    The model is parameterized for the series-major vectorization of the
    tableau (the one the global solver consumes); the time-major form is
    its conjugate by the commutation permutation.
    """
    if kind not in OCT_KINDS:
        raise InvalidInput(f"unknown cross-temporal covariance kind {kind!r}")
    d_series = xts.cs.summing_matrix @ np.ones(xts.cs.n_b)
    W1 = _estimate(kind, kind[4:], xts.ts, d_series, residuals)
    return _over_cycles(W1, xts.ts, xts.h, xts.n)


_ONE_LEVEL = build_temporal(1)


def cross_sectional_cov(
    kind: str, cs: CrossSectionalStructure, residuals: np.ndarray | None = None
) -> CovarianceModel:
    """Materialize one entry of the cross-sectional covariance menu.

    ``residuals`` is an ``n x N`` matrix of in-sample errors of the level
    being reconciled (the highest-frequency level, unless the caller
    slices per level).
    """
    if kind not in CS_KINDS:
        raise InvalidInput(f"unknown cross-sectional covariance kind {kind!r}")
    family = "wlsh" if kind == "cs-wls" else kind[3:]
    d_series = cs.summing_matrix @ np.ones(cs.n_b)
    return _estimate(kind, family, _ONE_LEVEL, d_series, residuals)


def temporal_cov(
    kind: str,
    ts: TemporalStructure,
    residuals: np.ndarray | None = None,
    h: int = 1,
) -> CovarianceModel:
    """Materialize one entry of the temporal covariance menu for one series,
    or for every series of a tableau.

    ``residuals`` is the series' ``(k*+m) x N`` block (level-blocked rows,
    one column per cycle), or a :class:`ResidualTableau` of ``n`` series:
    then the model is their ``n`` models side by side, block-diagonal by
    series.  The returned model covers ``h`` forecast cycles: the model
    estimated for one cycle, extended by :func:`_over_cycles`.
    """
    if kind not in T_KINDS:
        raise InvalidInput(f"unknown temporal covariance kind {kind!r}")
    require_integer("h", h, 1)
    n = residuals.n if isinstance(residuals, ResidualTableau) else 1
    return _over_cycles(_estimate(kind, kind[2:], ts, np.ones(n), residuals), ts, h, n)
