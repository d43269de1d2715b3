"""Temporal hierarchy of one series observed ``m`` times per cycle.

For every factor ``k`` of ``m`` the series can be aggregated by
non-overlapping sums of ``k`` consecutive values.  Stacking all aggregated
levels (descending ``k``) above the raw data gives a within-cycle vector of
length ``k* + m`` whose coherence is encoded by the kernel
``[I | -K1]``.  The same construction extends to ``N`` cycles with the
level-blocked layout (all values of one level, in time order, before the
next level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch, InvalidInput, NotAFactor, RaggedEdge, require_finite, require_integer,
)

__all__ = [
    "TemporalStructure",
    "build_temporal",
    "aggregate_series",
    "build_full_temporal_kernel",
    "build_full_temporal_agg",
]


def _divisors_desc(m: int) -> list[int]:
    return [k for k in range(m, 0, -1) if m % k == 0]


@dataclass(frozen=True)
class TemporalStructure:
    """Immutable description of one temporal hierarchy.

    Attributes
    ----------
    m : int
        Highest sampling frequency per cycle.
    factors : tuple of int
        Aggregation orders in strictly descending order; always starts
        with ``m`` and ends with 1.
    k_star : int
        Sum of all factors except the first; number of aggregated values
        per cycle.
    M_k : mapping int -> int
        Number of level-``k`` observations per cycle, ``m // k``.
    agg_matrix : ndarray, shape (k_star, m)
        Within-cycle aggregation matrix (one block of windowed ones per
        non-unit factor, descending order).
    summing_matrix : ndarray, shape (k_star + m, m)
        Aggregation matrix stacked over the identity.
    kernel : ndarray, shape (k_star, k_star + m)
        Within-cycle zero-constraints matrix ``[I | -agg_matrix]``.
    """

    m: int
    factors: tuple
    k_star: int
    M_k: Mapping[int, int]
    agg_matrix: np.ndarray
    summing_matrix: np.ndarray
    kernel: np.ndarray

    @property
    def p(self) -> int:
        """Number of aggregation levels (including the raw level)."""
        return len(self.factors)

    @property
    def cycle_len(self) -> int:
        """Values per cycle across all levels, ``k_star + m``."""
        return self.k_star + self.m

    def level_slice(self, k: int, cycles: int = 1) -> slice:
        """Column range of level ``k`` in the level-blocked layout."""
        if k not in self.M_k:
            raise NotAFactor(f"{k} is not an aggregation order of this structure")
        start = cycles * sum(self.M_k[kk] for kk in self.factors if kk > k)
        return slice(start, start + cycles * self.M_k[k])


def build_temporal(m: int, factors: Sequence[int] | None = None) -> TemporalStructure:
    """Build the temporal structure for cycle length ``m``.

    Parameters
    ----------
    m : int
        Observations per cycle at the highest frequency; must be >= 1.
    factors : sequence of int, optional
        Whitelist of aggregation orders to keep.  Must contain ``m`` and 1
        and every member must divide ``m``.  By default all divisors of
        ``m`` are used.
    """
    require_integer("cycle length m", m, 1)
    m = int(m)
    if factors is None:
        kept = _divisors_desc(m)
    else:
        for k in factors:
            require_integer("aggregation order", k, 1)
        kept = sorted({int(k) for k in factors}, reverse=True)
        for k in kept:
            if m % k != 0:
                raise NotAFactor(f"{k} does not divide the cycle length {m}")
        if m not in kept or 1 not in kept:
            raise InvalidInput("factor whitelist must contain the cycle length and 1")

    M_k = {k: m // k for k in kept}
    # Aggregated values per cycle; equals the sum of the non-top factors
    # whenever the factor set is all divisors of m.
    k_star = sum(M_k[k] for k in kept[:-1])

    blocks = []
    for k in kept[:-1]:
        blocks.append(np.kron(np.eye(M_k[k]), np.ones((1, k))))
    agg = np.vstack(blocks) if blocks else np.zeros((0, m))
    summing = np.vstack([agg, np.eye(m)])
    kernel = np.hstack([np.eye(k_star), -agg])
    for a in (agg, summing, kernel):
        a.flags.writeable = False
    return TemporalStructure(
        m=m,
        factors=tuple(kept),
        k_star=k_star,
        M_k=M_k,
        agg_matrix=agg,
        summing_matrix=summing,
        kernel=kernel,
    )


def aggregate_series(ts: TemporalStructure, x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping sums of ``k`` consecutive values of ``x``.

    ``len(x)`` must be a whole number of cycles and ``k`` must be one of
    the structure's aggregation orders.  Element ``l`` of the result is
    the sum of ``x`` over positions ``(l-1)k+1 .. lk``.
    """
    x = np.asarray(x, dtype=float).ravel()
    require_integer("k", k, 1)
    if x.size % ts.m != 0:
        raise RaggedEdge(
            f"series length {x.size} is not a multiple of the cycle length {ts.m}"
        )
    if k not in ts.M_k:
        raise NotAFactor(f"{k} is not an aggregation order of this structure")
    return x.reshape(-1, k).sum(axis=1)


def build_full_temporal_agg(ts: TemporalStructure, N: int) -> sp.csr_matrix:
    """Aggregation matrix over ``N`` cycles, shape ``(N k*, N m)``.

    Level ``k`` (non-unit factors, descending: the level-blocked layout) is
    ``I_{N M_k} (x) ones(1, k)``: each row sums ``k`` consecutive raw values.
    """
    require_integer("N", N, 1)
    ks = np.array(ts.factors[:-1], dtype=int)
    row_len = np.repeat(ks, N * ts.m // ks)
    return sp.csr_matrix(
        (np.ones(ks.size * N * ts.m), np.tile(np.arange(N * ts.m), ks.size),
         np.r_[0, np.cumsum(row_len)]),
        shape=(row_len.size, N * ts.m),
    )


def build_full_temporal_kernel(ts: TemporalStructure, N: int) -> sp.csr_matrix:
    """Zero-constraints kernel over ``N`` cycles, shape ``(N k*, N(k*+m))``.

    Valid for the level-blocked stacking of all temporal aggregates over
    ``N`` cycles (every level's values in time order, descending level
    order, raw data last).
    """
    K = build_full_temporal_agg(ts, N)
    return sp.hstack([sp.identity(N * ts.k_star, format="csr"), -K], format="csr")


def _per_level(ts: TemporalStructure, values) -> np.ndarray:
    """Within-cycle vector holding ``values[j]`` at every position of level
    ``ts.factors[j]``."""
    return np.repeat(values, [ts.M_k[k] for k in ts.factors])


def _cycle_positions(ts: TemporalStructure, h: int, n: int) -> np.ndarray:
    """``(h, n (k*+m))``: where value ``v`` of one cycle's series-major
    layout sits, in cycle ``c``, in the level-blocked layout of ``h`` cycles."""
    cl = ts.cycle_len
    start = _per_level(ts, [ts.level_slice(k).start for k in ts.factors])
    M = _per_level(ts, [ts.M_k[k] for k in ts.factors])
    # Value u of cycle c sits at u + (h-1) start(u) + c M(u) of its series.
    pos = np.arange(cl) + (h - 1) * start + np.arange(h)[:, None] * M
    return (pos[:, None, :] + h * cl * np.arange(n)[:, None]).reshape(h, -1)


def whole_cycles(values, n: int, ts: TemporalStructure, what: str) -> tuple[np.ndarray, int]:
    """``(values, cycles)``: ``values`` as a finite float matrix
    (:func:`require_finite`), and its number of cycles; a matrix that is not
    ``n`` series by a whole number of cycles is :class:`DimensionMismatch`."""
    values = np.atleast_2d(require_finite(values, what))
    if values.ndim != 2 or values.shape[0] != n or values.shape[1] % ts.cycle_len:
        raise DimensionMismatch(f"{what} must be n series by a whole number of cycles")
    return values, values.shape[1] // ts.cycle_len


def full_summing(ts: TemporalStructure, N: int) -> sp.csr_matrix:
    """Summing matrix over ``N`` cycles, shape ``(N(k*+m), N m)``."""
    K = build_full_temporal_agg(ts, N)
    return sp.vstack([K, sp.identity(N * ts.m, format="csr")], format="csr")
