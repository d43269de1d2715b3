"""Combined cross-sectional and temporal constraint systems.

Combining a hierarchy over ``n`` series with a temporal hierarchy of cycle
length ``m`` yields, for ``h`` forecast cycles, a constraint system on the
``s = n h (k*+m)`` stacked values.  The natural stacking of the two
constraint families is redundant; the full-row-rank kernel keeps the
cross-sectional constraints at the highest frequency only, plus all
temporal constraints, for rank ``h (n_a m + n k*)``.

The coherent subspace also has a structural description: every node is a
fixed linear combination of the highest-frequency bottom values, through
the summing matrix of the reordered vector (uppers and aggregated bottoms
first, raw bottoms last) and a permutation back to series-major order.
No solve reads that description; :class:`CrossTemporalStructure` builds
its matrices, and the commutation matrix, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DimensionMismatch, SingularSystem, require_finite, require_integer, require_real
from .hierarchy import CrossSectionalStructure
from .tableau import ForecastTableau, tableau_values
from .temporal import TemporalStructure, _cycle_positions, build_full_temporal_kernel, full_summing

__all__ = [
    "CrossTemporalStructure",
    "commutation_matrix",
    "commutation_indices",
    "build_cross_temporal",
    "bottom_up",
    "coherence_report",
    "numerical_rank",
    "validate_raw_kernel",
]

def commutation_indices(r: int, c: int) -> np.ndarray:
    """Permutation ``perm`` with ``vec(X')[i] = vec(X)[perm[i]]`` for X (r x c)."""
    require_integer("r", r, 1)
    require_integer("c", c, 1)
    # vec(X')[j + i*c] = X[i, j] = vec(X)[i + j*r]
    return np.arange(r * c).reshape(c, r).T.ravel()


def _perm_matrix(perm: np.ndarray) -> sp.csr_matrix:
    """Sparse P with ``(P v)[i] = v[perm[i]]``."""
    n = perm.size
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )


def commutation_matrix(r: int, c: int) -> sp.csr_matrix:
    """Permutation matrix mapping ``vec(X)`` to ``vec(X')`` for X (r x c).

    Orthogonal; its transpose is the commutation matrix for (c, r).
    """
    return _perm_matrix(commutation_indices(r, c))


def numerical_rank(A, rtol: float = 1e-9) -> int:
    """Rank via pivoted QR, counting pivots above ``rtol`` relative size."""
    require_real("rtol", rtol, 0)
    A = np.asarray(A.todense() if sp.issparse(A) else A, dtype=float)
    if A.size == 0:
        return 0
    R = scipy.linalg.qr(A, mode="r", pivoting=True)[0]
    d = np.abs(np.diag(R))  # non-increasing: all zero when d[0] is
    return int(np.count_nonzero(d > rtol * d[0]))


@dataclass(frozen=True)
class CrossTemporalStructure:
    """Constraint system for ``n`` series over ``h`` forecast cycles.

    The fields are what every solve reads; the other matrices are derived
    on first use and cached.

    Attributes
    ----------
    cs, ts : component structures.
    h : int
        Forecast cycles covered by one tableau.
    temporal_kernel : sparse matrix
        Per-series temporal kernel over ``h`` cycles.
    kernel : sparse matrix
        Full-row-rank kernel: highest-frequency cross-sectional rows plus
        all temporal rows.  The row rank is full by construction: the
        cross-sectional rows have identity pivots on the upper series'
        highest-frequency columns, the temporal rows on every series'
        aggregated columns, and the two column sets are disjoint.

    Derived on first use: ``kernel_redundant``, ``temporal_summing``,
    ``commutation``, ``struct_perm``, ``struct_summing`` and ``struct_agg``;
    and, for the solves at ``h > 1``, ``cycle_rows`` and ``one_cycle``.
    """

    cs: CrossSectionalStructure
    ts: TemporalStructure
    h: int
    temporal_kernel: sp.csr_matrix
    kernel: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def width(self) -> int:
        """Tableau columns: ``h (k*+m)``."""
        return self.h * self.ts.cycle_len

    @property
    def size(self) -> int:
        """Stacked problem size ``n h (k*+m)``."""
        return self.n * self.width

    @property
    def rank(self) -> int:
        """Row count (= rank) of the full-row-rank kernel."""
        return self.h * (self.cs.n_a * self.ts.m + self.n * self.ts.k_star)

    @cached_property
    def kernel_redundant(self) -> sp.csr_matrix:
        """Stacked cross-sectional and temporal constraints (redundant rows)."""
        return sp.vstack(
            [
                sp.kron(self.cs.kernel, sp.identity(self.width), format="csr"),
                sp.kron(sp.identity(self.n), self.temporal_kernel, format="csr"),
            ],
            format="csr",
        )

    @cached_property
    def temporal_summing(self) -> sp.csr_matrix:
        """Per-series temporal summing matrix over ``h`` cycles."""
        return full_summing(self.ts, self.h)

    @cached_property
    def commutation(self) -> sp.csr_matrix:
        """Permutation from the time-major vectorization to the series-major one."""
        return _perm_matrix(commutation_indices(self.n, self.width))

    @cached_property
    def struct_perm(self) -> sp.csr_matrix:
        """Permutation from the structural ordering (uppers, then the
        bottoms' aggregated values, then their raw values) to series-major
        order."""
        lf = self.h * self.ts.k_star
        idx = np.arange(self.size).reshape(self.n, self.width)
        bottoms = idx[self.cs.n_a :]
        order = np.concatenate(
            [idx[: self.cs.n_a].ravel(), bottoms[:, :lf].ravel(), bottoms[:, lf:].ravel()]
        )
        perm = np.empty_like(order)
        perm[order] = np.arange(order.size)
        return _perm_matrix(perm)

    @cached_property
    def struct_summing(self) -> sp.csr_matrix:
        """Summing matrix of the structural ordering, shape
        ``(n h (k*+m), n_b m h)``."""
        S = sp.kron(self.cs.summing_matrix, self.temporal_summing, format="csr")
        return sp.csr_matrix(self.struct_perm.T @ S)

    @cached_property
    def cycle_rows(self) -> np.ndarray:
        """``(h, rank / h)``: the kernel rows of each forecast cycle.  Rows
        ``cycle_rows[c]`` read only the values of cycle ``c``, at
        ``temporal._cycle_positions(ts, h, n)[c]``, where they equal the
        one-cycle kernel: the cross-sectional rows at the cycle's ``m``
        highest-frequency points, then every series' temporal rows."""
        h, m, k_star = self.h, self.ts.m, self.ts.k_star
        cs_rows = self.cs.n_a * m
        # Row j of Z is the constraint of the aggregated value in column j.
        aggregated = _cycle_positions(self.ts, h, 1)[:, :k_star]
        temporal = h * cs_rows + h * k_star * np.arange(self.n)[:, None] + aggregated[:, None]
        return np.hstack([cs_rows * np.arange(h)[:, None] + np.arange(cs_rows),
                          temporal.reshape(h, -1)])

    @cached_property
    def one_cycle(self) -> CrossTemporalStructure:
        """The structure of one forecast cycle, its kernels sliced from this
        structure's: rows ``cycle_rows[0]`` on the values of cycle 0."""
        own = _cycle_positions(self.ts, self.h, 1)[0]
        Z = self.temporal_kernel[own[: self.ts.k_star]][:, own]
        K = self.kernel[self.cycle_rows[0]][:, _cycle_positions(self.ts, self.h, self.n)[0]]
        return CrossTemporalStructure(self.cs, self.ts, 1, sp.csr_matrix(Z), sp.csr_matrix(K))

    @cached_property
    def struct_agg(self) -> sp.csr_matrix:
        """Top block of ``struct_summing`` above the bottom identity."""
        n_a_star = self.cs.n_a * self.width + self.cs.n_b * self.h * self.ts.k_star
        return sp.csr_matrix(self.struct_summing[:n_a_star])

    def tableau(self, values, provenance: str = "base") -> ForecastTableau:
        return ForecastTableau(values, self, provenance)


def build_cross_temporal(
    cs: CrossSectionalStructure, ts: TemporalStructure, h: int = 1
) -> CrossTemporalStructure:
    """Assemble the full cross-temporal constraint system.

    ``h`` forecast cycles are handled exactly like ``h`` observation
    cycles: every per-cycle matrix is block-extended, so the single-cycle
    formulas hold verbatim for ``h = 1``.  So no kernel row reads two
    cycles, and on the values of each cycle its rows (``cycle_rows``) are
    the one-cycle kernel, whose structure ``one_cycle`` is sliced from this
    one on first use: the solves factor one cycle's ``K W K'`` for all ``h``.
    """
    require_integer("h", h, 1)
    q = h * ts.cycle_len
    Z = build_full_temporal_kernel(ts, h)
    # Cross-sectional rows at the h*m highest-frequency points, ordered time
    # point first, then upper series, as the elimination recipe applied to
    # the time-major vectorization orders them.
    hf = h * ts.m
    cs_rows = sp.kron(cs.kernel, sp.eye(hf, q, k=h * ts.k_star), format="csr")
    kernel = sp.vstack(
        [
            cs_rows[commutation_indices(hf, cs.n_a)],
            sp.kron(sp.identity(cs.n), Z, format="csr"),
        ],
        format="csr",
    )
    return CrossTemporalStructure(cs=cs, ts=ts, h=h, temporal_kernel=Z, kernel=kernel)


def _checked_kernel(kernel, size: int | None = None, name: str = "kernel"):
    """``kernel``, sparse as given or else as a float array, once checked:
    2-D with ``size`` columns when that is given (else
    :class:`DimensionMismatch`), and no NaN or infinite entry (else
    :class:`InvalidEntry`)."""
    K = kernel if sp.issparse(kernel) else require_finite(kernel, name)
    if K.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {K.shape}")
    if size is not None and K.shape[1] != size:
        raise DimensionMismatch(f"{name} has {K.shape[1]} columns, expected {size}")
    if sp.issparse(K):
        require_finite(sp.coo_matrix(K).data, name)
    return K


def validate_raw_kernel(kernel, size: int | None = None) -> sp.csr_matrix:
    """Validate a user-supplied constraint kernel and return it as sparse.

    The kernel must have full row rank; use this for constraint sets that
    cannot be written through an aggregation matrix (series sharing a
    total from different sides, for example).  Structural operations
    (bottom-up, the structural solver) are unavailable for raw kernels.
    A NaN or infinite entry raises :class:`InvalidEntry`.
    """
    if not sp.issparse(kernel):
        kernel = np.atleast_2d(kernel)
    K = sp.csr_matrix(_checked_kernel(kernel, size))
    if K.shape[0] >= K.shape[1]:
        raise DimensionMismatch("kernel must have fewer rows than columns")
    if numerical_rank(K) != K.shape[0]:
        raise SingularSystem("kernel rows are linearly dependent")
    return K


def bottom_up(B_hat_hf, structure: CrossTemporalStructure) -> ForecastTableau:
    """Coherent tableau built from highest-frequency bottom forecasts only.

    Aggregates the ``n_b x h*m`` bottom block cross-sectionally and
    temporally; the result satisfies every constraint by construction.
    """
    B = np.atleast_2d(require_finite(B_hat_hf, "bottom forecasts"))
    cs, ts, h = structure.cs, structure.ts, structure.h
    if B.shape != (cs.n_b, h * ts.m):
        raise DimensionMismatch(
            f"bottom forecasts have shape {B.shape}, expected "
            f"({cs.n_b}, {h * ts.m})"
        )
    bottom_full = B @ structure.temporal_summing.T
    values = np.vstack([cs.agg_matrix @ bottom_full, bottom_full])
    return ForecastTableau(values, structure, provenance="bottom-up")


def coherence_report(Y, structure: CrossTemporalStructure) -> tuple[float, float]:
    """Gross discrepancies ``(d_cs, d_te)`` of a tableau.

    Entrywise L1 norms of the cross-sectional constraint residual and of
    the temporal constraint residual.  A NaN or infinite entry raises
    :class:`InvalidEntry`.
    """
    vals = tableau_values(Y.values if isinstance(Y, ForecastTableau) else Y, structure)
    d_cs = float(np.abs(structure.cs.kernel @ vals).sum())
    d_te = float(np.abs(structure.temporal_kernel @ vals.T).sum())
    return d_cs, d_te
