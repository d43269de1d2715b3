"""Rolling-origin error bookkeeping and relative accuracy indices.

Errors are collected in a cube indexed by series, procedure, forecast
origin, temporal aggregation level and horizon within the level.  All
comparisons run through relative indices against a benchmark procedure
and their geometric means over arbitrary selections of cells; a geometric
mean over one cell is the relative index itself, and partitions compose
by count-weighted geometric averaging.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .crosstemporal import CrossTemporalStructure
from .errors import (
    BenchmarkZero, DimensionMismatch, EmptySelection, InvalidInput, require_finite, require_integer,
)
from .hierarchy import CrossSectionalStructure
from .temporal import TemporalStructure, whole_cycles

__all__ = [
    "ErrorCube",
    "accuracy_index",
    "relative_index",
    "avg_rel_index",
    "error_cube",
    "rolling_harness",
    "avgrel_table",
]

MEASURES = ("mse", "mae", "rmse")


@dataclass(frozen=True)
class ErrorCube:
    """Forecast errors of several procedures over a rolling experiment.

    ``errors[proc][k]`` is an array of shape ``(n_series, n_origins, h_k)``
    where ``h_k = M_k * h`` horizons are available at level ``k``.  The
    benchmark procedure is listed first.
    """

    procedures: tuple
    series_labels: tuple
    n_a: int
    factors: tuple
    horizons: dict
    errors: dict

    def __post_init__(self):
        if not self.procedures:
            raise InvalidInput("cube needs at least the benchmark procedure")
        if self.benchmark not in self.errors:
            raise InvalidInput("benchmark procedure has no recorded errors")
        for proc, by_level in self.errors.items():
            for k in self.factors:
                shape = by_level[k].shape
                expected = (len(self.series_labels), self.n_origins, self.horizons[k])
                if shape != expected:
                    raise DimensionMismatch(
                        f"{proc} level {k}: error block has shape {shape}, "
                        f"expected {expected}"
                    )

    @property
    def benchmark(self) -> str:
        return self.procedures[0]

    @property
    def n_origins(self) -> int:
        first = self.errors[self.procedures[0]][self.factors[0]]
        return first.shape[1]

    def series_index(self, i) -> int:
        """Row of the series with label or 0-based index ``i``."""
        index = isinstance(i, (int, np.integer))
        if not (0 <= i < len(self.series_labels) if index else i in self.series_labels):
            raise InvalidInput(f"unknown series {i!r}")
        return int(i) if index else self.series_labels.index(i)

    def series_group(self, group: str) -> list:
        if group == "all":
            return list(range(len(self.series_labels)))
        if group == "uts":
            return list(range(self.n_a))
        if group == "bts":
            return list(range(self.n_a, len(self.series_labels)))
        raise InvalidInput(f"unknown series group {group!r}")


def _accuracy(cube: ErrorCube, measure: str, j: str, k: int) -> np.ndarray:
    """Mean error index over origins of procedure ``j`` at level ``k``, one
    cell per (series, horizon): ``(n_series, h_k)``."""
    if measure not in MEASURES:
        raise InvalidInput(f"unknown measure {measure!r}")
    if j not in cube.errors:
        raise InvalidInput(f"unknown procedure {j!r}")
    e = cube.errors[j][k]
    if measure == "mae":
        return np.mean(np.abs(e), axis=1)
    mse = np.mean(e * e, axis=1)
    return np.sqrt(mse) if measure == "rmse" else mse


def _relative(num, den, k: int, rows, cols) -> np.ndarray:
    """Relative indices ``num / den`` on the cells ``rows x cols`` of level
    ``k`` accuracy arrays, under the zero rules of :func:`relative_index`."""
    num, den = num[np.ix_(rows, cols)], den[np.ix_(rows, cols)]
    zero = den == 0.0
    if zero.any():
        bad = zero & (num != 0.0)
        a, b = np.argwhere(bad if bad.any() else zero)[0]
        where = f"series {rows[a]}, level {k}, horizon {cols[b] + 1}"
        if bad.any():
            raise BenchmarkZero(f"benchmark index is zero for {where}")
        warnings.warn(
            f"benchmark and candidate are both exact for {where} and "
            f"{int(zero.sum()) - 1} more cell(s); counting them as 1",
            stacklevel=3,
        )
        num, den = np.where(zero, 1.0, num), np.where(zero, 1.0, den)
    return num / den


def _geometric_mean(ratios: np.ndarray, axis=None):
    """The log-ratio reduction: ``exp(mean(log r))``; a zero ratio gives 0."""
    with np.errstate(divide="ignore"):
        return np.exp(np.mean(np.log(ratios), axis=axis))


def _horizon_column(cube: ErrorCube, k: int, h: int) -> int:
    """0-based column of horizon ``h`` of level ``k``."""
    if k not in cube.factors or h not in range(1, cube.horizons[k] + 1):
        raise InvalidInput(f"level {k}, horizon {h} is not a cell of the cube")
    return int(h) - 1


def accuracy_index(
    cube: ErrorCube, measure: str, i, j: str, k: int, h: int
) -> float:
    """Mean error index over origins for one (series, level, horizon) cell."""
    col = _horizon_column(cube, k, h)
    return float(_accuracy(cube, measure, j, k)[cube.series_index(i), col])


def relative_index(
    cube: ErrorCube, measure: str, i, j: str, k: int, h: int
) -> float:
    """Accuracy of procedure ``j`` relative to the benchmark for one cell.

    A zero benchmark with a nonzero candidate is an error; two zeros
    carry no information and count as 1 (with a warning).
    """
    col = _horizon_column(cube, k, h)
    num = _accuracy(cube, measure, j, k)
    den = _accuracy(cube, measure, cube.benchmark, k)
    return float(_relative(num, den, k, [cube.series_index(i)], [col])[0, 0])


def _selection(cube: ErrorCube, series, levels, horizons):
    """Selected series rows and, per level, the 0-based horizon columns."""
    if series is None or isinstance(series, str):
        rows = cube.series_group(series or "all")
    else:
        rows = [cube.series_index(i) for i in series]
    levels = list(cube.factors) if levels is None else list(levels)
    blocks = []
    for k in levels:
        if k not in cube.factors:
            raise InvalidInput(f"level {k} is not in the cube")
        if horizons is None:
            lo, hi = 1, cube.horizons[k]
        elif isinstance(horizons, dict):
            lo, hi = horizons.get(k, (1, cube.horizons[k]))
        else:
            lo, hi = horizons
        blocks.append((k, np.arange(max(1, lo), min(hi, cube.horizons[k]) + 1) - 1))
    return np.asarray(rows, dtype=np.intp), blocks


def avg_rel_index(
    cube: ErrorCube,
    measure: str,
    j: str,
    series=None,
    levels=None,
    horizons=None,
) -> float:
    """Geometric mean of relative indices over a selection of cells.

    ``series`` may be ``"all"``, ``"uts"``, ``"bts"`` or an iterable of
    labels/indices; ``levels`` an iterable of aggregation orders;
    ``horizons`` a ``(lo, hi)`` range (clipped per level) or a per-level
    dict of ranges.
    """
    rows, blocks = _selection(cube, series, levels, horizons)
    if not rows.size or not any(cols.size for _, cols in blocks):
        raise EmptySelection("the selection matched no cells")
    ratios = [
        _relative(
            _accuracy(cube, measure, j, k),
            _accuracy(cube, measure, cube.benchmark, k),
            k, rows, cols,
        ).ravel()
        for k, cols in blocks
    ]
    return float(_geometric_mean(np.concatenate(ratios)))


# ---------------------------------------------------------------------------
# Rolling-origin harness


def error_cube(
    actuals: np.ndarray,
    outputs: dict,
    cs: CrossSectionalStructure,
    ts: TemporalStructure,
    h: int,
    start_cycle: int,
) -> ErrorCube:
    """Errors ``target - output`` of every procedure at every origin.

    Parameters
    ----------
    actuals : ndarray
        ``n x N_total(k*+m)`` level-blocked matrix of observed values over
        all cycles.
    outputs : mapping
        Procedure name to one ``n x h(k*+m)`` tableau per origin; the
        benchmark procedure comes first.  Origin ``t`` (0-based) forecasts
        cycles ``start_cycle + t .. start_cycle + t + h - 1`` (0-based).
    start_cycle : int
        0-based index of the first forecasted cycle of the first origin.
    """
    require_integer("start_cycle", start_cycle, 0)
    n = cs.n
    actuals, n_total = whole_cycles(actuals, n, ts, "actuals")
    q = len(next(iter(outputs.values()), ()))  # no procedure: ErrorCube says so
    shape = (n, h * ts.cycle_len)
    for name, tableaux in outputs.items():
        if len(tableaux) != q or any(np.shape(T) != shape for T in tableaux):
            raise DimensionMismatch(f"{name}: expected {q} tableaux of shape {shape}")
        for t, T in enumerate(tableaux):
            require_finite(T, f"{name} tableau {t + 1}")
    if start_cycle + q - 1 + h > n_total:
        raise InvalidInput(
            f"{q} origins of {h} cycles starting at cycle {start_cycle} do not "
            f"fit into {n_total} observed cycles"
        )
    horizons = {k: h * ts.M_k[k] for k in ts.factors}
    # target[:, t] is the level-blocked tableau of the cycles origin t forecasts.
    target = np.concatenate([
        actuals[:, ts.level_slice(k, n_total).start
                + (start_cycle + np.arange(q)[:, None]) * ts.M_k[k] + np.arange(horizons[k])]
        for k in ts.factors
    ], axis=2)
    errors = {}
    for name, tableaux in outputs.items():
        err = target - np.reshape(tableaux, (q, *shape)).transpose(1, 0, 2)
        errors[name] = {k: err[:, :, ts.level_slice(k, h)] for k in ts.factors}
    return ErrorCube(
        procedures=tuple(outputs),
        series_labels=tuple(cs.labels),
        n_a=cs.n_a,
        factors=tuple(ts.factors),
        horizons=horizons,
        errors=errors,
    )


def rolling_harness(
    actuals: np.ndarray,
    base_forecasts,
    procedures: dict,
    xts: CrossTemporalStructure,
    start_cycle: int,
    measure: str = "mse",
) -> tuple:
    """Run procedures over every origin; returns ``(cube, report)``.

    Parameters
    ----------
    actuals : ndarray
        ``n x N_total(k*+m)`` level-blocked matrix of observed values over
        all cycles.
    base_forecasts : sequence
        One ``(Y_hat, residuals)`` pair per origin; origin ``t`` (0-based)
        forecasts cycles ``start_cycle + t .. start_cycle + t + h - 1``
        (0-based cycles).
    procedures : mapping
        Name to ``f(Y_hat, residuals, xts) -> reconciled matrix``.  The
        benchmark (raw base forecasts) is recorded as ``"base"``.
    start_cycle : int
        0-based index of the first forecasted cycle of the first origin.
    """
    require_integer("start_cycle", start_cycle, 0)
    names = ["base"] + [p for p in procedures if p != "base"]
    outputs = {name: [] for name in names}
    for Y_hat, residuals in base_forecasts:
        Y_hat = np.atleast_2d(require_finite(Y_hat, "base forecasts"))
        outputs["base"].append(Y_hat)
        for name in names[1:]:
            proc = procedures[name]
            outputs[name].append(np.asarray(proc(Y_hat, residuals, xts), dtype=float))
    cube = error_cube(actuals, outputs, xts.cs, xts.ts, xts.h, start_cycle)
    return cube, format_report(*avgrel_table(cube, measure))


def avgrel_table(cube: ErrorCube, measure: str = "mse") -> tuple[list, list]:
    """Tabulate average relative indices per group, level and horizon.

    Returns ``(header, rows)`` where each row covers one (group,
    procedure) pair with per-horizon columns for every level, a per-level
    aggregate column, and a grand column over everything.
    """
    levels = sorted(cube.factors)  # finest frequency first, totals last
    header = ["group", "procedure"]
    for k in levels:
        header += [f"k{k}_h{h}" for h in range(1, cube.horizons[k] + 1)]
        header += [f"k{k}_all"]
    header += ["all"]
    acc = {
        proc: {k: _accuracy(cube, measure, proc, k) for k in levels}
        for proc in cube.procedures
    }
    cols = {k: np.arange(cube.horizons[k]) for k in levels}
    rows = []
    groups = ["all", "uts", "bts"] if cube.n_a and cube.n_a < len(
        cube.series_labels
    ) else ["all"]
    for group in groups:
        sel = np.asarray(cube.series_group(group), dtype=np.intp)
        for proc in cube.procedures:
            ratios = {
                k: _relative(acc[proc][k], acc[cube.benchmark][k], k, sel, cols[k])
                for k in levels
            }
            row = [group, proc]
            for k in levels:
                row += _geometric_mean(ratios[k], axis=0).tolist()
                row.append(float(_geometric_mean(ratios[k])))
            everything = np.concatenate([r.ravel() for r in ratios.values()])
            row.append(float(_geometric_mean(everything)))
            rows.append(row)
    return header, rows


def format_report(header: list, rows: list) -> str:
    """Human-readable table; indices above 1 are flagged with ``*``."""
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for row in rows:
        cells = [f"{row[0]:>12}", f"{row[1]:>12}"]
        for v in row[2:]:
            flag = "*" if v > 1.0 else " "
            cells.append(f"{v:>11.4f}{flag}")
        lines.append("  ".join(cells))
    lines.append("(* marks indices above 1: worse than the benchmark)")
    lines.append("grand percentage improvement over the benchmark, all series:")
    for row in rows:
        if row[0] != "all":
            continue
        lines.append(f"  {row[1]}: {(1.0 - row[-1]) * 100.0:+.2f}%")
    return "\n".join(lines)
