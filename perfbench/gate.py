"""Correctness gate: every output is checked before it counts as done.

The checks use numpy and scipy directly, never the package's own solvers,
so a defect in the package cannot hide itself:

* finite values;
* coherence, ``max|K y~| <= 1e-10 max|y~|`` (temporal rows only for a
  temporal-only method; the iterative heuristic is held to the
  ``threshold`` it reports, since it stops at its own rule);
* optimality of least-squares results,
  ``||S' W^-1 (y^ - y~)||_inf <= 1e-10 ||S' W^-1 y^||_inf`` with
  ``S = struct_perm @ struct_summing``, which holds only at the W-weighted
  projection;
* evaluation tables against an independent vectorised recomputation;
* on the default seed, agreement with outputs recorded from the seed
  commit within 1e-10 relative.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REL_TOL = 1e-10
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Gate:
    """Coherence and optimality checks for one cross-temporal structure."""

    def __init__(self, xts):
        self.K = sp.csr_matrix(xts.kernel)
        # The kernel stacks n_a h m cross-sectional rows above the temporal rows.
        n_cs_rows = xts.cs.n_a * xts.h * xts.ts.m
        self.K_temporal = self.K[n_cs_rows:]
        self.St = sp.csr_matrix((xts.struct_perm @ xts.struct_summing).T)

    def coherence(self, Y, temporal_only=False) -> float:
        """``max|K y|``, over the temporal rows only if asked."""
        K = self.K_temporal if temporal_only else self.K
        return float(np.max(np.abs(K @ np.ravel(Y))))

    def optimality(self, W, Y_hat, Y) -> float:
        """Relative size of ``S' W^-1 (y^ - y~)``; zero at the exact projection."""
        y_hat = np.ravel(Y_hat)
        rhs = np.column_stack([y_hat - np.ravel(Y), y_hat])
        if W.structure == "identity":
            z = rhs
        elif W.structure == "diagonal":
            z = rhs / W.diag_values[:, None]
        elif W.structure == "block-diagonal":
            z = spla.splu(sp.csc_matrix(W.matrix)).solve(rhs)
        else:
            z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(W.matrix), rhs)
        g = np.abs(self.St @ z).max(axis=0)
        return float(g[0] / g[1])

    def problems(self, Y, *, W=None, Y_hat=None, threshold=None,
                 temporal_only=False, ref=None):
        """Reasons ``Y`` is wrong; an empty list means it passed."""
        Y = np.asarray(Y, dtype=float)
        if not np.all(np.isfinite(Y)):
            return ["non-finite values"]
        out = []
        limit = threshold if threshold is not None else REL_TOL * np.max(np.abs(Y))
        resid = self.coherence(Y, temporal_only)
        if resid > limit:
            out.append(f"incoherent: max|Ky| {resid:.3e} > {limit:.3e}")
        if W is not None:
            opt = self.optimality(W, Y_hat, Y)
            if opt > REL_TOL:
                out.append(f"not optimal: {opt:.3e}")
        if ref is not None:
            dev = relative_deviation(Y, ref)
            if dev > REL_TOL:
                out.append(f"differs from the recorded output by {dev:.3e}")
        return out


def relative_deviation(Y, ref) -> float:
    Y, ref = np.asarray(Y, dtype=float), np.asarray(ref, dtype=float)
    if Y.shape != ref.shape:
        return float("inf")
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(Y - ref)) / scale) if scale else float(np.max(np.abs(Y)))


class Reference:
    """Outputs recorded from the seed commit on the default seed.

    ``get`` returns ``None`` on any other seed, where the gate relies on
    coherence and optimality alone.  In recording mode ``get`` stores the
    value it is given and returns ``None``.
    """

    def __init__(self, workload: str, seed: int, record: bool = False):
        self.path = REFERENCE_DIR / f"{workload}.npz"
        self.record = record
        self.recorded = {}
        self.data = None
        if not record and seed == DEFAULT_SEED:
            with np.load(self.path) as z:
                self.data = {k: z[k] for k in z.files}

    def get(self, key, value=None):
        if self.record:
            if key not in self.recorded:
                self.recorded[key] = np.array(value)
            return None
        if self.data is None:
            return None
        if key not in self.data:
            raise KeyError(f"{self.path.name} has no recorded output {key!r}")
        return self.data[key]

    def save(self):
        REFERENCE_DIR.mkdir(exist_ok=True)
        np.savez_compressed(self.path, **self.recorded)


# ---------------------------------------------------------------------------
# Evaluation tables


def avgrel_rows(errors: dict, procedures, ts, h: int, n_a: int):
    """Average relative MSE table, vectorised over cells.

    ``errors[proc]`` is ``(n, origins, h (k*+m))``, level-blocked.  Rows
    follow ``avgrel_table``: groups all/uts/bts, the benchmark procedure
    first, per level (finest first) one column per horizon and one for
    the level, then one for everything.
    """
    mse = {p: np.mean(e * e, axis=1) for p, e in errors.items()}
    base = mse[procedures[0]]
    n = base.shape[0]
    groups = {"all": slice(None)}
    if 0 < n_a < n:
        groups.update(uts=slice(0, n_a), bts=slice(n_a, None))
    rows = []
    for group, sel in groups.items():
        for p in procedures:
            L = np.log(mse[p][sel] / base[sel])
            vals = []
            for k in sorted(ts.factors):
                block = L[:, ts.level_slice(k, h)]
                vals += list(np.exp(block.mean(axis=0))) + [np.exp(block.mean())]
            vals.append(np.exp(L.mean()))
            rows.append((group, p, np.array(vals)))
    return rows


def report_problems(report: str, rows) -> list:
    """Compare a ``format_report`` text (4 decimals) with recomputed rows."""
    lines = report.splitlines()[1 : 1 + len(rows)]
    if len(lines) != len(rows):
        return ["report has too few rows"]
    for line, (group, proc, vals) in zip(lines, rows):
        tokens = line.split()
        if tokens[:2] != [group, proc]:
            return [f"report row {tokens[:2]} where {group}/{proc} was expected"]
        got = np.array([float(t.rstrip("*")) for t in tokens[2:]])
        if got.shape != vals.shape or np.max(np.abs(got - vals)) > 5.1e-5:
            return [f"report row {group}/{proc} disagrees with the recomputed table"]
    return []


def table_problems(rows, expected_rows, ref_values=None) -> list:
    """Compare a full-precision table with recomputed rows (and the reference)."""
    keys = [(g, p) for g, p, _ in expected_rows]
    if [tuple(r[:2]) for r in rows] != keys:
        return ["table rows differ from the expected group/procedure list"]
    got = np.array([[float(v) for v in r[2:]] for r in rows])
    want = np.array([v for _, _, v in expected_rows])
    out = []
    if got.shape != want.shape or relative_deviation(got, want) > REL_TOL:
        out.append("table disagrees with the recomputed table")
    if ref_values is not None and relative_deviation(got, ref_values) > REL_TOL:
        out.append("table differs from the recorded table")
    return out


# ---------------------------------------------------------------------------
# Long-format CSV files, parsed independently of ctrec.io


def read_values_csv(path, labels, ts) -> np.ndarray:
    """``series,level_k,index_within_level,value`` file as a level-blocked matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    index = {label: i for i, label in enumerate(labels)}
    cycles = sum(1 for r in rows if int(r[1]) == ts.m) // len(labels)
    start = {k: ts.level_slice(k, cycles).start for k in ts.factors}
    out = np.full((len(labels), cycles * ts.cycle_len), np.nan)
    for series, k, pos, value in rows:
        out[index[series], start[int(k)] + int(pos) - 1] = float(value)
    return out


def read_residuals_csv(path, labels, ts) -> np.ndarray:
    """Residual file as the ``n (k*+m) x N`` series-major matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    index = {label: i for i, label in enumerate(labels)}
    cl = ts.cycle_len
    n_cols = max(int(r[3]) for r in rows)
    start = {k: ts.level_slice(k).start for k in ts.factors}
    out = np.full((len(labels) * cl, n_cols), np.nan)
    for series, k, l, tau, value in rows:
        out[index[series] * cl + start[int(k)] + int(l) - 1, int(tau) - 1] = float(value)
    return out


def read_table_csv(path):
    """Rows of an ``evaluate --out`` table, header dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]
