"""File formats: hierarchy specs, long-format value CSVs, config files.

The hierarchy spec is a small text file: a ``m = <int>`` line (plus an
optional ``factors = k1,k2,...`` whitelist) followed by either an
explicit aggregation matrix::

    m = 4
    [matrix]
    ,AA,AB,BA,BB,BC
    TOT,1,1,1,1,1
    A,1,1,0,0,0
    B,0,0,1,1,1

or a parent-child edge list compiled to the matrix by accumulating
weights along paths (bottoms are the nodes that never appear as parent)::

    m = 4
    [edges]
    node,parent,weight
    A,TOT,1
    AA,A,1
    ...

Values travel in long-format CSV with columns
``series,level_k,index_within_level,value`` (residual files add an
``origin_column`` before the value).  Keys define the position, row order
is free, and every key must appear exactly once.  Floats are printed with
17 significant digits so write/read round-trips are bit-identical.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .covariance import ResidualTableau
from .errors import DimensionMismatch, InvalidInput
from .hierarchy import CrossSectionalStructure, build_cross_sectional
from .temporal import TemporalStructure, build_temporal

__all__ = [
    "read_hierarchy",
    "write_hierarchy",
    "read_values",
    "write_values",
    "read_residuals",
    "write_residuals",
    "read_config",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class FormatError(InvalidInput):
    """Structural problem in an input file; names the offending key."""


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _parse_error(path, line: int, row: dict, fields) -> FormatError:
    """Error naming the first of the numeric ``fields`` (name, converter)
    of a CSV row that does not parse."""
    for name, convert in fields:
        try:
            convert(row[name])
        except (TypeError, ValueError):
            break
    return FormatError(f"{path}: line {line}: {name} {row[name]!r} is not a number")


def _csv_rows(path, required: set):
    """``(line, row)`` for every data row of a long-format CSV that has the
    ``required`` columns; a malformed line is a :class:`FormatError`."""
    reader = csv.DictReader(_read_text(path).splitlines())
    try:
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise FormatError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        # The DictReader's own count lags one line behind on a failed read.
        line = reader.reader.line_num
        raise FormatError(f"{path}: line {line}: {exc}") from None


_VALUE_FIELDS = (("level_k", int), ("index_within_level", int), ("value", float))
_RESIDUAL_FIELDS = _VALUE_FIELDS[:2] + (("origin_column", int), ("value", float))


# ---------------------------------------------------------------------------
# Hierarchy spec


def _compile_edges(rows: list) -> tuple[np.ndarray, list]:
    parents = {r[1] for r in rows}
    children = {}
    for node, parent, weight in rows:
        children.setdefault(parent, []).append((node, weight))
    nodes = {r[0] for r in rows} | parents
    bottoms = sorted(nodes - parents)
    uppers = [n for n in nodes if n in parents]

    # Order uppers top-down so totals come first.
    roots = [n for n in uppers if all(n != r[0] for r in rows)]
    ordered, queue = [], sorted(roots)
    seen = set(queue)
    while queue:
        cur = queue.pop(0)
        ordered.append(cur)
        for child, _ in sorted(children.get(cur, [])):
            if child in parents and child not in seen:
                seen.add(child)
                queue.append(child)
    ordered += sorted(set(uppers) - set(ordered))

    idx = {b: i for i, b in enumerate(bottoms)}
    C = np.zeros((len(ordered), len(bottoms)))

    def leaf_weights(node, weight, row):
        if node in idx:
            row[idx[node]] += weight
            return
        for child, w in children.get(node, []):
            leaf_weights(child, weight * w, row)

    for j, upper in enumerate(ordered):
        leaf_weights(upper, 1.0, C[j])
    return C, ordered + bottoms


def read_hierarchy(path) -> tuple[CrossSectionalStructure, TemporalStructure]:
    """Parse a hierarchy spec file into its two component structures."""
    text = _read_text(path)
    m = None
    factors = None
    section = None
    matrix_rows: list[list[str]] = []
    edge_rows: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() in ("[matrix]", "[edges]"):
            section = line.lower()[1:-1]
            continue
        if section is None:
            if "=" not in line:
                raise FormatError(
                    f"{path}: line {lineno}: expected key = value, got {raw!r}"
                )
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if key not in ("m", "factors"):
                raise FormatError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                if key == "m":
                    m = int(value)
                else:
                    factors = [int(v) for v in value.replace(" ", "").split(",") if v]
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: {key} = {value!r}: expected integers"
                ) from None
        elif section == "matrix":
            matrix_rows.append([c.strip() for c in line.split(",")])
        else:
            parts = [c.strip() for c in line.split(",")]
            if parts[0].lower() == "node":
                continue
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise FormatError(f"{path}: line {lineno}: expected node,parent,weight")
            try:
                edge_rows.append((parts[0], parts[1], float(parts[2])))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: weight {parts[2]!r} is not a number"
                ) from None
    if m is None:
        raise FormatError(f"{path}: hierarchy spec is missing the 'm =' line")
    ts = build_temporal(m, factors)
    if matrix_rows:
        header = matrix_rows[0]
        bottoms = header[1:]
        uppers = [r[0] for r in matrix_rows[1:]]
        if not uppers:
            raise FormatError(f"{path}: matrix block has no aggregate rows")
        try:
            C = np.array([[float(v) for v in r[1:]] for r in matrix_rows[1:]])
        except ValueError as exc:
            raise FormatError(f"{path}: matrix block: {exc}") from exc
        if C.shape[1] != len(bottoms):
            raise FormatError(f"{path}: matrix rows do not match the header width")
        cs = build_cross_sectional(C, uppers + bottoms)
    elif edge_rows:
        C, labels = _compile_edges(edge_rows)
        cs = build_cross_sectional(C, labels)
    else:
        raise FormatError(f"{path}: hierarchy spec has neither [matrix] nor [edges]")
    return cs, ts


def write_hierarchy(path, cs: CrossSectionalStructure, ts: TemporalStructure):
    """Serialize in the canonical matrix form (round-trips exactly)."""
    lines = [f"m = {ts.m}"]
    if ts.factors != tuple(k for k in range(ts.m, 0, -1) if ts.m % k == 0):
        lines.append("factors = " + ",".join(str(k) for k in ts.factors))
    lines.append("[matrix]")
    lines.append("," + ",".join(cs.bottom_labels))
    for j, up in enumerate(cs.upper_labels):
        lines.append(up + "," + ",".join(_fmt(v) for v in cs.agg_matrix[j]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Long-format value files


def write_values(path, values, cs: CrossSectionalStructure, ts: TemporalStructure):
    """Write a level-blocked value matrix (forecasts or actuals)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != cs.n or values.shape[1] % ts.cycle_len:
        raise DimensionMismatch(
            "value matrix must be n series by a whole number of cycles"
        )
    cycles = values.shape[1] // ts.cycle_len
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "level_k", "index_within_level", "value"])
        for i, label in enumerate(cs.labels):
            for k in ts.factors:
                slc = ts.level_slice(k, cycles)
                for pos, v in enumerate(values[i, slc], start=1):
                    w.writerow([label, k, pos, _fmt(v)])


def read_values(
    path, cs: CrossSectionalStructure, ts: TemporalStructure
) -> tuple[np.ndarray, int]:
    """Read a long-format value file; returns ``(matrix, cycles)``.

    Every ``(series, level, index)`` key must appear exactly once and the
    level blocks must cover whole cycles consistently.
    """
    entries = {}
    required = {"series", "level_k", "index_within_level", "value"}
    for line, row in _csv_rows(path, required):
        try:
            key = (row["series"], int(row["level_k"]), int(row["index_within_level"]))
            value = float(row["value"])
        except (TypeError, ValueError):
            raise _parse_error(path, line, row, _VALUE_FIELDS) from None
        if key in entries:
            raise FormatError(f"{path}: duplicate key {key}")
        entries[key] = value
    if not entries:
        raise FormatError(f"{path}: no data rows")
    label_set = set(cs.labels)
    seen_levels = {k for (_, k, _) in entries}
    if seen_levels != set(ts.factors):
        raise FormatError(
            f"{path}: level blocks {sorted(seen_levels)} do not cover the "
            f"factor set {sorted(ts.factors)}"
        )
    top_count = sum(1 for (_, k, _) in entries if k == ts.m)
    cycles, rem = divmod(top_count, cs.n)
    if rem or cycles < 1:
        raise FormatError(f"{path}: level {ts.m} has {top_count} entries, "
                          f"not a multiple of {cs.n} series")
    values = np.empty((cs.n, cycles * ts.cycle_len))
    for (series, k, pos), v in entries.items():
        if series not in label_set:
            raise FormatError(f"{path}: unknown series {series!r}")
        width = cycles * ts.M_k[k]
        if not (1 <= pos <= width):
            raise FormatError(
                f"{path}: index {pos} out of range 1..{width} at "
                f"({series}, {k})"
            )
    if len(entries) != cs.n * cycles * ts.cycle_len:
        for label in cs.labels:
            for k in ts.factors:
                for pos in range(1, cycles * ts.M_k[k] + 1):
                    if (label, k, pos) not in entries:
                        raise FormatError(
                            f"{path}: missing key ({label}, {k}, {pos})"
                        )
    for i, label in enumerate(cs.labels):
        for k in ts.factors:
            slc = ts.level_slice(k, cycles)
            for pos in range(cycles * ts.M_k[k]):
                values[i, slc.start + pos] = entries[(label, k, pos + 1)]
    if not np.all(np.isfinite(values)):
        key = next(key for key, v in entries.items() if not math.isfinite(v))
        raise FormatError(f"{path}: non-finite value at {key}")
    return values, cycles


def write_residuals(path, residuals: ResidualTableau, cs: CrossSectionalStructure):
    ts = residuals.ts
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "level_k", "index_within_level", "origin_column", "value"])
        for i, label in enumerate(cs.labels):
            block = residuals.series_block(i)
            for k in ts.factors:
                slc = ts.level_slice(k)
                for l in range(ts.M_k[k]):
                    for tau in range(residuals.n_cycles):
                        w.writerow(
                            [label, k, l + 1, tau + 1, _fmt(block[slc.start + l, tau])]
                        )


def read_residuals(
    path, cs: CrossSectionalStructure, ts: TemporalStructure
) -> ResidualTableau:
    entries = {}
    n_cols = 0
    required = {"series", "level_k", "index_within_level", "origin_column", "value"}
    for line, row in _csv_rows(path, required):
        try:
            key = (
                row["series"],
                int(row["level_k"]),
                int(row["index_within_level"]),
                int(row["origin_column"]),
            )
            value = float(row["value"])
        except (TypeError, ValueError):
            raise _parse_error(path, line, row, _RESIDUAL_FIELDS) from None
        if key[3] < 1:
            raise FormatError(
                f"{path}: line {line}: origin_column {row['origin_column']!r} "
                "is below 1"
            )
        if key in entries:
            raise FormatError(f"{path}: duplicate key {key}")
        entries[key] = value
        n_cols = max(n_cols, key[3])
    if not entries:
        raise FormatError(f"{path}: no data rows")
    cl = ts.cycle_len
    values = np.empty((cs.n * cl, n_cols))
    label_idx = {label: i for i, label in enumerate(cs.labels)}
    expected = cs.n * cl * n_cols
    if len(entries) != expected:
        for label in cs.labels:
            for k in ts.factors:
                for l in range(1, ts.M_k[k] + 1):
                    for tau in range(1, n_cols + 1):
                        if (label, k, l, tau) not in entries:
                            raise FormatError(
                                f"{path}: missing key ({label}, {k}, {l}, {tau})"
                            )
    for (series, k, l, tau), v in entries.items():
        if series not in label_idx:
            raise FormatError(f"{path}: unknown series {series!r}")
        if k not in ts.M_k or not (1 <= l <= ts.M_k[k]):
            raise FormatError(f"{path}: bad level/index ({series}, {k}, {l})")
        row = label_idx[series] * cl + ts.level_slice(k).start + l - 1
        values[row, tau - 1] = v
    return ResidualTableau(values, cs.n, ts)


# ---------------------------------------------------------------------------
# Config files


def read_config(path) -> dict:
    """Parse a ``key = value`` config file mirroring the CLI flags."""
    out = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out
