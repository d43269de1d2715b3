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
* temporal (``t-``): per series, ``h(k*+m)`` square; apart from its Markov
  family (``t-strar1``, ``t-sar1``, ``t-har1``), the ``oct-`` menu over
  one series.

One estimator, :func:`_estimate`, serves all three menus but the Markov
family, and every residual input is read as a :class:`ResidualTableau`.
Every model is built once per cycle (series-major) and extended to ``h``
forecast cycles by :func:`_extend`.

A model multiplies (``apply``) and densifies (``dense``) but does not
solve: every solve with ``W`` or ``K W K'`` is factored by the one core in
:mod:`ctrec.reconcile`.  :func:`_spd_factor` is only the estimators' gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .crosstemporal import CrossTemporalStructure, commutation_matrix
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    InvalidEntry,
    InvalidInput,
    OrderingMismatch,
    SingularCovariance,
)
from .hierarchy import CrossSectionalStructure
from .temporal import TemporalStructure, build_temporal

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

# Relative ridge used to lift borderline sample matrices to the PD cone.
_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# Residual bookkeeping


@dataclass(frozen=True)
class ResidualTableau:
    """In-sample residuals for all nodes of a cross-temporal hierarchy.

    ``values`` has one row per node, series-major, each series block in
    the within-cycle level-blocked order, and one column per observation
    cycle.  The single-series case (``n = 1``) is the per-series residual
    layout used by the temporal estimators.
    """

    values: np.ndarray
    n: int
    ts: TemporalStructure

    def __post_init__(self):
        try:
            # A copy, so that freezing it leaves the caller's array writeable.
            vals = np.array(self.values, dtype=float, order="C")
        except (TypeError, ValueError) as exc:
            raise InvalidEntry("residual tableau has non-numeric entries") from exc
        expected = self.n * self.ts.cycle_len
        if vals.ndim != 2 or vals.shape[0] != expected:
            raise DimensionMismatch(
                f"residual tableau has {vals.shape} rows, expected {expected}"
            )
        if vals.shape[1] < 1:
            raise InvalidInput("residual tableau needs at least one cycle")
        if not np.all(np.isfinite(vals)):
            raise InvalidEntry("residual tableau contains NaN or infinite entries")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_cycles(self) -> int:
        return self.values.shape[1]

    def series_block(self, i: int) -> np.ndarray:
        """Rows of series ``i``: ``(k*+m) x N``."""
        cl = self.ts.cycle_len
        return self.values[i * cl : (i + 1) * cl]

    def level_matrix(self, k: int) -> np.ndarray:
        """All series at level ``k``: ``n x (N M_k)``, columns in time order."""
        slc = self.ts.level_slice(k)
        by_series = self.values.reshape(self.n, self.ts.cycle_len, -1)[:, slc]
        return by_series.transpose(0, 2, 1).reshape(self.n, -1)

    def level_slice_matrix(self, k: int, l: int) -> np.ndarray:
        """All series at level ``k``, within-cycle position ``l``: ``n x N``."""
        return self.values[self.ts.level_slice(k).start + l :: self.ts.cycle_len]

    def series_level(self, i: int, k: int) -> np.ndarray:
        """Level ``k`` residuals of series ``i``: ``N x M_k`` (cycle by row)."""
        slc = self.ts.level_slice(k)
        return self.series_block(i)[slc].T


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
    """

    kind: str
    structure: str
    size: int
    diag_values: np.ndarray | None = None
    matrix: object = None
    lam: float | None = None
    rho: dict | None = field(default=None)

    def __post_init__(self):
        if self.diag_values is not None:
            d = np.array(self.diag_values, dtype=float, order="C")
            d.flags.writeable = False
            object.__setattr__(self, "diag_values", d)
        if isinstance(self.matrix, np.ndarray):
            m = np.array(self.matrix, dtype=float, order="C")
            m.flags.writeable = False
            if self.structure == "low-rank":
                m = _LowRank(self.diag_values, m)
            object.__setattr__(self, "matrix", m)

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
        _spd_factor(self.dense(), self.kind)


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


def _spd_factor(A: np.ndarray, label: str):
    """Cholesky factor of a dense matrix, or :class:`SingularCovariance`."""
    try:
        return scipy.linalg.cho_factor(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovariance(
            f"{label}: matrix is not positive definite"
        ) from exc


def _identity(kind: str, size: int) -> CovarianceModel:
    return CovarianceModel(kind=kind, structure="identity", size=size)


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


def _block_diagonal(kind: str, A, **kw) -> CovarianceModel:
    A = sp.csr_matrix(A)
    return CovarianceModel(
        kind=kind, structure="block-diagonal", size=A.shape[0], matrix=A, **kw
    )


# ---------------------------------------------------------------------------
# Moment estimators


def sample_mse(E: np.ndarray) -> np.ndarray:
    """Uncentered second-moment matrix ``E E' / N`` of residual rows."""
    E = np.atleast_2d(np.asarray(E, dtype=float))
    return (E @ E.T) / E.shape[1]


def _lift_to_pd(A: np.ndarray, label: str) -> np.ndarray:
    """Ridge-lift borderline sample matrices; reject truly indefinite ones.

    A smallest eigenvalue within ``-_RIDGE * trace`` of zero is treated as
    small-sample noise and lifted; anything below that aborts.  The
    eigenvalue is only computed when a Cholesky attempt fails.
    """
    A = 0.5 * (A + A.T)
    try:
        _spd_factor(A, label)
        return A
    except SingularCovariance:
        pass
    tr = float(np.trace(A))
    if tr <= 0:
        raise SingularCovariance(f"{label}: sample matrix has non-positive trace")
    emin = float(scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])[0])
    if emin <= -_RIDGE * tr:
        raise SingularCovariance(
            f"{label}: sample matrix is indefinite (min eigenvalue {emin:.3e})"
        )
    lifted = A + _RIDGE * tr * np.eye(A.shape[0])
    _spd_factor(lifted, label)
    return lifted


def _sample_estimate(kind: str, E: np.ndarray, shrunk: bool):
    """SPD-checked moment matrix of residual rows ``E``: ``(matrix, lam)``.

    Shrunk toward its diagonal, or ridge-lifted when borderline.
    """
    if not shrunk:
        return _lift_to_pd(sample_mse(E), kind), None
    A, lam = shrink(sample_mse(E), residuals=E)
    _spd_factor(A, kind)
    return A, lam


def shrink(
    sample: np.ndarray,
    target: np.ndarray | None = None,
    residuals: np.ndarray | None = None,
    lam: float | None = None,
) -> tuple[np.ndarray, float]:
    """Shrink a sample moment matrix toward its diagonal.

    Returns ``lam * target + (1 - lam) * sample`` together with the
    intensity used.  When ``lam`` is not supplied it is estimated from the
    residuals by :func:`_shrink_intensity`.
    """
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    d = np.diag(sample)
    if np.any(d == 0):
        raise DegenerateSample("sample matrix has a zero diagonal entry")
    diagonal_target = target is None
    if diagonal_target:
        target = np.diag(d)
    if lam is None:
        if residuals is None:
            raise InvalidInput("shrink needs residuals unless lam is given")
        E = np.atleast_2d(np.asarray(residuals, dtype=float))
        if E.shape[0] != sample.shape[0]:
            raise DimensionMismatch("residual rows do not match the sample matrix")
        lam = _shrink_intensity(E, d, sample)
    lam = float(min(1.0, max(0.0, lam)))
    combined = lam * target + (1.0 - lam) * sample
    if diagonal_target:
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


def _per_level(ts: TemporalStructure, values) -> np.ndarray:
    """Within-cycle vector holding ``values[j]`` at every position of level
    ``ts.factors[j]``."""
    return np.repeat(values, [ts.M_k[k] for k in ts.factors])


def _extend(A, ts: TemporalStructure, h: int, n: int = 1):
    """Extend a per-cycle model to ``h`` independent forecast cycles.

    ``A`` is a diagonal (1-D), a square matrix, or a tall factor ``U`` of
    ``U U'``, over ``n`` series, series-major, each series in the
    within-cycle layout.  Returns the series-major, level-blocked form of
    ``I_h (x) A``: a scattered diagonal, a sparse matrix, or a dense factor
    with its rows scattered and one column block per cycle.  For ``h = 1``
    this is ``A`` itself.
    """
    if h == 1:
        return A
    cl = ts.cycle_len
    start = _per_level(ts, [ts.level_slice(k).start for k in ts.factors])
    M = _per_level(ts, [ts.M_k[k] for k in ts.factors])
    # Value u of cycle c sits at u + (h-1) start(u) + c M(u) of its series.
    pos = np.arange(cl) + (h - 1) * start + np.arange(h)[:, None] * M
    # Index (c, i, u) of I_h (x) A -> series i, position pos[c, u].
    perm = (pos[:, None, :] + h * cl * np.arange(n)[:, None]).ravel()
    if np.ndim(A) == 1:
        out = np.empty(perm.size)
        out[perm] = np.tile(A, h)
        return out
    if A.shape[0] != A.shape[1]:
        q = A.shape[1]
        out = np.zeros((perm.size, h * q))
        out[perm.reshape(h, -1, 1), np.arange(h * q).reshape(h, 1, q)] = A
        return out
    K = sp.kron(sp.identity(h), A, format="coo")
    return sp.coo_matrix((K.data, (perm[K.row], perm[K.col])), shape=K.shape)


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


def _level_mse(res: ResidualTableau) -> np.ndarray:
    """Mean squared residual of every series at every level, spread over
    the series' within-cycle positions."""
    ts = res.ts
    return np.concatenate([
        _per_level(ts, [np.mean(Ei[ts.level_slice(k)] ** 2) for k in ts.factors])
        for Ei in map(res.series_block, range(res.n))
    ])


def _estimate(
    kind: str, family: str, ts: TemporalStructure, h: int, d_series, residuals
) -> CovarianceModel:
    """Estimate ``family`` (a kind without its menu prefix) for the
    ``n = len(d_series)`` series over ``ts``, extended to ``h`` cycles.

    ``d_series`` holds each series' bottom count ``S 1``.  The model is
    series-major and labelled ``kind``.
    """
    n, cl = len(d_series), ts.cycle_len
    if family == "ols":
        return _identity(kind, n * cl * h)
    if family == "struc":
        d = np.kron(d_series, _per_level(ts, ts.factors))
        return _diagonal(kind, _extend(d, ts, h, n))

    res = _residual_tableau(kind, residuals, n, ts)
    E, N = res.values, res.n_cycles  # E: n(k*+m) x N, series-major
    if family == "wlsh":
        return _diagonal(kind, _extend(np.mean(E * E, axis=1), ts, h, n))
    if family == "wlsv":
        return _diagonal(kind, _extend(_level_mse(res), ts, h, n))

    if family in ("shr", "sam"):
        if family == "sam":
            # Named as the menu counts rows: cs- per series, t- per position.
            rows = "k*+m" if n == 1 else "n" if cl == 1 else "n(k*+m)"
            _require(N > n * cl, kind, f"N > {rows}", f"got N={N}, {rows}={n * cl}")
        elif N < n * cl:
            # W = lam D + (1 - lam) E E' / N is a diagonal plus rank N; at
            # lam = 0 it is singular and the dense gate below says so.
            d = np.mean(E * E, axis=1)
            lam = _shrink_intensity(E, d)
            if lam == 1.0:
                return _diagonal(kind, _extend(d, ts, h, n), lam=lam)
            if lam > 0.0:
                return CovarianceModel(
                    kind=kind, structure="low-rank", size=d.size * h,
                    diag_values=_extend(lam * d, ts, h, n),
                    matrix=_extend(np.sqrt((1.0 - lam) / N) * E, ts, h, n), lam=lam,
                )
        A, lam = _sample_estimate(kind, E, shrunk=family == "shr")
        # Copies of one PD cycle block stay PD after extension.
        ext = _extend(A, ts, h, n)
        if sp.issparse(ext):
            return _block_diagonal(kind, ext, lam=lam)
        return _full(kind, ext, lam=lam)

    if family in ("bdsam", "bdshr", "bdsam-l"):
        _require(N > n, kind, "N > n", f"got N={N}, n={n}")
        # One n x n block per within-cycle position, time-major.
        blocks, lams = [], []
        for k in ts.factors:
            if family == "bdsam-l":
                blocks += [
                    _sample_estimate(kind, res.level_slice_matrix(k, l), False)[0]
                    for l in range(ts.M_k[k])
                ]
            else:
                B, lam = _sample_estimate(
                    kind, res.level_matrix(k), shrunk=family == "bdshr"
                )
                blocks += [B] * ts.M_k[k]
                lams.append(lam)
        P = commutation_matrix(n, cl)  # time-major -> series-major
        A = P @ sp.block_diag(blocks, format="csr") @ P.T
        lam = float(np.mean(lams)) if family == "bdshr" else None
        return _block_diagonal(kind, _extend(A, ts, h, n), lam=lam)

    # acov: per-series level-wise autocovariance blocks.
    _require(N > ts.m, kind, "N > m", f"got N={N}, m={ts.m}")
    blocks = [
        _lift_to_pd(sample_mse(Ei[ts.level_slice(k)]), kind)
        for Ei in map(res.series_block, range(n))
        for k in ts.factors
    ]
    return _block_diagonal(kind, _extend(sp.block_diag(blocks), ts, h, n))


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
    return _estimate(kind, kind[4:], xts.ts, xts.h, d_series, residuals)


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
    return _estimate(kind, family, _ONE_LEVEL, 1, d_series, residuals)


def _lag1_autocorr(x: np.ndarray) -> float:
    """Uncentered lag-1 autocorrelation, kept inside the open unit interval."""
    x = np.asarray(x, dtype=float).ravel()
    denom = float(np.dot(x, x))
    if denom == 0 or x.size < 2:
        return 0.0
    rho = float(np.dot(x[:-1], x[1:]) / denom)
    cap = 1.0 - 1e-8
    return min(cap, max(-cap, rho))


def _ar1_toeplitz(rho: float, size: int) -> np.ndarray:
    idx = np.arange(size)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def temporal_cov(
    kind: str,
    ts: TemporalStructure,
    residuals: np.ndarray | None = None,
    h: int = 1,
) -> CovarianceModel:
    """Materialize one entry of the temporal covariance menu for one series.

    ``residuals`` is the series' ``(k*+m) x N`` block (level-blocked rows,
    one column per cycle).  The returned model covers ``h`` forecast
    cycles; matrices estimated within one cycle are block-extended across
    cycles.
    """
    if kind not in T_KINDS:
        raise InvalidInput(f"unknown temporal covariance kind {kind!r}")
    if kind not in ("t-strar1", "t-sar1", "t-har1"):
        return _estimate(kind, kind[2:], ts, h, [1.0], residuals)

    # Markov family: scaled AR(1) correlation blocks per level.
    res = _residual_tableau(kind, residuals, 1, ts)
    E = res.values
    rho = {
        k: _lag1_autocorr(E[ts.level_slice(k)].T.ravel())
        for k in ts.factors[1:]
    }
    if kind == "t-strar1":
        d = _per_level(ts, ts.factors)
    elif kind == "t-sar1":
        d = _level_mse(res)
    else:  # t-har1
        d = np.mean(E * E, axis=1)
    if np.any(d <= 0):
        raise SingularCovariance(f"{kind}: zero variance on a node")
    gamma = sp.block_diag(
        [np.ones((1, 1))] + [_ar1_toeplitz(rho[k], ts.M_k[k]) for k in ts.factors[1:]]
    )
    # AR(1) correlation blocks with |rho| < 1 are PD; the diagonal scaling
    # preserves that.
    root = sp.diags(np.sqrt(d))
    return _block_diagonal(kind, _extend(root @ gamma @ root, ts, h), rho=rho)
