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

The matrix block is CSV, so a label that holds a comma or a quote is
quoted as ``csv.writer`` quotes it; cells are stripped of spaces.  The
other form is a parent-child edge list of CSV records.  Bottoms are the
nodes that never appear as parent; each upper's row, the weighted sum of
its children's rows, is computed once, in a walk without recursion::

    m = 4
    [edges]
    node,parent,weight
    A,TOT,1
    AA,A,1
    ...

An edge list that repeats a ``node,parent`` pair, or whose edges form a
cycle (a self-loop included), is a :class:`FormatError` naming the line
or a node on the cycle; so is a cycle length or aggregation order that
``build_temporal`` rejects.  A spec holds one structure section: a second
``[matrix]`` or ``[edges]`` line is a :class:`FormatError` naming it.  The
spec's header and config files share one ``key = value`` line parser: keys
ignore case and read ``-`` as ``_``, and a key given twice is a
:class:`FormatError` naming the line and the key.

Values travel in long-format CSV with columns
``series,level_k,index_within_level,value`` (residual files add an
``origin_column`` before the value).  Keys define the position; row and
column order are free, other columns are ignored, blank lines are
skipped, and every key must appear exactly once.  Floats are printed
with 17 significant digits so write/read round-trips are bit-identical.

One columnar reader serves value and residual files.  It reads a file
once and checks its header with ``csv.reader``.  The data rows of an
ASCII text with no ``"`` (what the writers give for unquoted labels) go
to numpy's C reader, ``np.loadtxt``, in one call.  Every other file, and
every file that numpy refuses or warns on, is tokenized by
``csv.reader`` and converted column by column by the rules of Python's
``int`` and ``float``: that path unquotes labels and takes ``1_000`` and
non-ASCII digits.  Where both take a file, they give bit-identical
columns (numpy parses floats with the same ``PyOS_string_to_double``),
so what is accepted and every message below do not depend on the path.
The keys map to one linear index into the output, which also finds
repeated, missing, unknown and out-of-range keys.  When a conversion or
check fails, the lines in memory are walked row by row, and the
:class:`FormatError` names the line, column or key of the first bad row;
only a file without one gets the message of the failed check.  Files
are UTF-8, with or without a byte-order mark.  The writers join each
file into one string, byte for byte what ``csv.writer`` writes.
"""

from __future__ import annotations

import csv
import warnings
from io import StringIO
from itertools import repeat
from pathlib import Path

import numpy as np

from .covariance import ResidualTableau
from .errors import CtrecError, DimensionMismatch, InvalidInput
from .hierarchy import CrossSectionalStructure, build_cross_sectional
from .temporal import TemporalStructure, _divisors_desc, build_temporal, whole_cycles

__all__ = [
    "read_hierarchy",
    "write_hierarchy",
    "read_values",
    "write_values",
    "read_residuals",
    "write_residuals",
    "write_table",
    "read_config",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class FormatError(InvalidInput):
    """Structural problem in an input file; names the offending key."""


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _lines(path):
    """``(number, line)`` of every line of the file that is neither blank nor a
    ``#`` comment, stripped of spaces."""
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _key_value(path, lineno: int, line: str, keys, first: dict) -> tuple[str, str]:
    """``(key, value)`` of a ``key = value`` line, both stripped; the key
    ignores case and reads ``-`` as ``_``.  A key outside ``keys``, or one
    in ``first``, the line of each key of the file read so far, is a
    :class:`FormatError`."""
    if "=" not in line:
        raise FormatError(f"{path}: line {lineno}: expected key = value, got {line!r}")
    key, _, value = line.partition("=")
    key = key.strip().lower().replace("-", "_")
    if key not in keys:
        raise FormatError(f"{path}: line {lineno}: unknown key {key!r}")
    if key in first:
        raise FormatError(
            f"{path}: line {lineno}: repeated key {key!r}, first given on line {first[key]}"
        )
    first[key] = lineno
    return key, value.strip()


# ---------------------------------------------------------------------------
# Hierarchy spec


def _compile_edges(path, edges: dict) -> tuple[np.ndarray, list]:
    """Aggregation matrix and labels of ``{(node, parent): weight}``."""
    children = {}
    for (node, parent), weight in edges.items():
        children.setdefault(parent, []).append((node, weight))
    child_nodes = {node for node, _ in edges}
    bottoms = sorted(child_nodes - children.keys())

    # Order uppers top-down so totals come first; ``ordered`` is the BFS queue.
    ordered = sorted(children.keys() - child_nodes)
    seen = set(ordered)
    for cur in ordered:
        for child, _ in sorted(children[cur]):
            if child in children and child not in seen:
                seen.add(child)
                ordered.append(child)
    ordered += sorted(children.keys() - seen)

    # A depth-first walk fills each upper's row, the weighted sum of its
    # children's rows, as it leaves the upper; a child on the walk closes a cycle.
    idx = {b: i for i, b in enumerate(bottoms)}
    C = np.zeros((len(ordered), len(bottoms)))
    rows, done = dict(zip(ordered, C)), set(bottoms)
    for upper in ordered:
        walk = {} if upper in done else {upper: iter(children[upper])}
        while walk:
            node, rest = next(reversed(walk.items()))
            child = next((c for c, _ in rest if c not in done), None)
            if child in walk:
                raise FormatError(f"{path}: edges form a cycle through {child!r}")
            if child is not None:
                walk[child] = iter(children[child])
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite C is rejected later
                for c, w in children[node]:  # a bottom adds w at its column, an upper w * row
                    rows[node][idx.get(c, slice(None))] += w * rows.get(c, 1.0)
            done.add(walk.popitem()[0])
    return C, ordered + bottoms


def read_hierarchy(path) -> tuple[CrossSectionalStructure, TemporalStructure]:
    """Parse a hierarchy spec file into its two component structures."""
    m = None
    factors = None
    section = None
    matrix_lines: list[str] = []
    edges: dict[tuple, float] = {}
    first: dict[str, int] = {}
    for lineno, line in _lines(path):
        if line.lower() in ("[matrix]", "[edges]"):
            if section is not None:
                raise FormatError(f"{path}: line {lineno}: second structure section {line}; "
                                  "a spec holds one [matrix] or [edges] section")
            section = line.lower()[1:-1]
            continue
        if section is None:
            key, value = _key_value(path, lineno, line, ("m", "factors"), first)
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
            matrix_lines.append(line)
        else:
            try:
                parts = [c.strip() for c in next(csv.reader([line]))]
            except csv.Error as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if parts[0].lower() == "node":
                continue
            if len(parts) not in (2, 3):
                raise FormatError(f"{path}: line {lineno}: expected node,parent,weight")
            node, parent, weight = (*parts, "1")[:3]
            if (node, parent) in edges:
                raise FormatError(f"{path}: line {lineno}: repeated edge {line!r}")
            try:
                edges[node, parent] = float(weight)
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: weight {weight!r} is not a number"
                ) from None
    if m is None:
        raise FormatError(f"{path}: hierarchy spec is missing the 'm =' line")

    def build(builder, *args):  # a structure's own errors, naming the file
        try:
            return builder(*args)
        except CtrecError as exc:
            raise FormatError(f"{path}: {exc}") from exc

    ts = build(build_temporal, m, factors)
    if matrix_lines:
        try:
            (_, *bottoms), *rows = [[c.strip() for c in r] for r in csv.reader(matrix_lines)]
            C = np.array([[float(v) for v in r[1:]] for r in rows])
        except (csv.Error, ValueError) as exc:
            raise FormatError(f"{path}: matrix block: {exc}") from exc
        uppers = [r[0] for r in rows]
        if not uppers:
            raise FormatError(f"{path}: matrix block has no aggregate rows")
        if C.shape[1] != len(bottoms):
            raise FormatError(f"{path}: matrix rows do not match the header width")
        labels = uppers + bottoms
    elif edges:
        C, labels = _compile_edges(path, edges)
    else:
        raise FormatError(f"{path}: hierarchy spec has neither [matrix] nor [edges]")
    return build(build_cross_sectional, C, labels), ts


def write_hierarchy(path, cs: CrossSectionalStructure, ts: TemporalStructure):
    """Serialize in the canonical matrix form (round-trips exactly)."""
    lines = [f"m = {ts.m}"]
    if list(ts.factors) != _divisors_desc(ts.m):
        lines.append("factors = " + ",".join(str(k) for k in ts.factors))
    lines.append("[matrix]")
    lines.append(_record(["", *cs.bottom_labels]))
    for j, up in enumerate(cs.upper_labels):
        # Quoted, a row of an upper label starting with '#' is not a comment.
        quoting = csv.QUOTE_ALL if up.lstrip().startswith("#") else csv.QUOTE_MINIMAL
        lines.append(_record([up, *map(_fmt, cs.agg_matrix[j])], quoting))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Long-format value files


def _record(cells, quoting=csv.QUOTE_MINIMAL) -> str:
    """One CSV record as ``csv.writer`` quotes it, without the line end."""
    buf = StringIO()
    csv.writer(buf, lineterminator="", quoting=quoting).writerow(cells)
    return buf.getvalue()


def _write_lines(path, lines: list) -> None:
    """Write CSV records with ``csv.writer``'s line end, in one join."""
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")


def write_table(path, header: list, rows: list) -> None:
    """Write an evaluation table: two label cells, then numbers."""
    _write_lines(
        path,
        [_record(header)] + [_record(row[:2] + [_fmt(v) for v in row[2:]]) for row in rows],
    )


def write_values(path, values, cs: CrossSectionalStructure, ts: TemporalStructure):
    """Write a level-blocked value matrix (forecasts or actuals)."""
    values, cycles = whole_cycles(values, cs.n, ts, "value matrix")
    lines = ["series,level_k,index_within_level,value"]
    for label, row in zip(cs.labels, values.tolist()):
        for k in ts.factors:
            prefix = _record([label, k])
            block = row[ts.level_slice(k, cycles)]
            lines += [f"{prefix},{pos},{v:.17g}" for pos, v in enumerate(block, start=1)]
    _write_lines(path, lines)


def _int(text) -> int:
    """``int(text)`` within the int64 range of the columnar reader."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is out of the int64 range")
    return value


def _row_fault(path, lines: list, int_fields: tuple) -> FormatError | None:
    """The :class:`FormatError` of the first data row of a long-format CSV,
    in file order, that is malformed, short or does not parse, has an
    ``origin_column`` below 1 or repeats a key; ``None`` if none does."""
    reader = csv.reader(lines)
    keys = set()
    try:
        header = next(reader)
        for row in filter(None, reader):
            cells = dict(zip(header, row))
            line = f"{path}: line {reader.line_num}:"
            key = [cells.get("series")]
            for name, parse in [*zip(int_fields, repeat(_int)), ("value", float)]:
                try:
                    key.append(parse(cells.get(name)))
                except (TypeError, ValueError):
                    return FormatError(f"{line} {name} {cells.get(name)!r} is not a number")
            if key[0] is None:
                return FormatError(f"{line} series is missing")
            key = tuple(key[:-1])
            if "origin_column" in int_fields and key[-1] < 1:
                return FormatError(
                    f"{line} origin_column {cells['origin_column']!r} is below 1"
                )
            if key in keys:
                return FormatError(f"{path}: duplicate key {key}")
            keys.add(key)
    except csv.Error as exc:
        return FormatError(f"{path}: line {reader.line_num}: {exc}")
    return None


def _loadtxt_columns(lines: list, usecols: list, int_fields: tuple):
    """The columns of the data lines, ``lines[1:]``, by numpy's C reader,
    as :func:`_csv_columns` gives them, or ``None`` where that reader
    fails, warns or may differ from ``csv.reader`` and Python's
    ``int``/``float``.  It is not tried on data lines with a quote (numpy
    does not unquote), a NUL (``csv.reader`` rejects it before Python
    3.11), a ``\\x1f`` (numpy strips it from a number as space, Python does
    not) or any non-ASCII character (numpy 2.4 reads U+01FE as the int 462
    and crashes on U+100031), nor on a line longer than the csv field limit.
    """
    # From the lines, not the raw text: splitlines also breaks at \x0b,
    # \x1c and U+2028, for example, where numpy would not.
    data = "\n".join(lines[1:])
    if (not data.isascii() or any(c in data for c in '"\x00\x1f')
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    dtype = [("series", object), *((name, np.int64) for name in int_fields),
             ("value", float)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as a file with no data rows warns
            table = np.loadtxt(StringIO(data), dtype=dtype, delimiter=",",
                               comments=None, usecols=usecols, ndmin=1)
    except (ValueError, Warning):  # a row numpy refuses: the csv path judges it
        return None
    return (table["series"].tolist(), np.array([table[name] for name in int_fields]),
            np.ascontiguousarray(table["value"]))


def _csv_columns(reader, usecols: list):
    """``(series, ints, values)`` of the rows left in ``reader``, blank rows
    skipped; raises ``IndexError`` on a short row and ``ValueError`` or
    ``OverflowError`` on a cell that does not convert."""
    rows = [row for row in reader if row]
    series, *ints, value = ([row[j] for row in rows] for j in usecols)
    return series, np.array(ints, dtype=np.int64), np.array(value, dtype=float)


def _read_long(path, int_fields: tuple):
    """The columns of a long-format CSV in file order, ``(series, ints,
    values, fault)``: the labels as a list, one int64 row per name in
    ``int_fields``, the float values, and ``fault(message)``, the error of
    a file whose columns fail a check.  A file that does not convert, or
    that fails a check, gets the error of its first bad row
    (:func:`_row_fault`) if it has one.
    """
    names = ("series", *int_fields, "value")
    lines = _read_text(path).splitlines()

    def fault(message: str) -> FormatError:
        return _row_fault(path, lines, int_fields) or FormatError(f"{path}: {message}")

    reader = csv.reader(lines)
    try:
        col = {name: j for j, name in enumerate(next(reader, []))}
        if not col.keys() >= set(names):
            raise FormatError(f"{path}: expected columns {sorted(names)}")
        usecols = [col[name] for name in names]
        columns = (_loadtxt_columns(lines, usecols, int_fields)
                   or _csv_columns(reader, usecols))
        return (*columns, fault)
    except (csv.Error, IndexError, ValueError, OverflowError):  # a bad row
        raise _row_fault(path, lines, int_fields) from None


def _series_index(cs: CrossSectionalStructure, series: list) -> np.ndarray:
    """Row of each label in ``cs``, -1 for an unknown one."""
    lookup = {label: i for i, label in enumerate(cs.labels)}
    return np.fromiter(
        map(lookup.get, series, repeat(-1)), dtype=np.int64, count=len(series)
    )


def _level_tables(ts: TemporalStructure, level: np.ndarray, cycles: int = 1):
    """Per entry of ``level``: ``M_k`` and the first column of level ``k``
    in the level-blocked layout of ``cycles`` cycles; both are 0 where
    ``level`` is not an aggregation order."""
    M = np.zeros(ts.m + 1, dtype=np.int64)
    start = np.zeros(ts.m + 1, dtype=np.int64)
    for k in ts.factors:
        M[k] = ts.M_k[k]
        start[k] = ts.level_slice(k, cycles).start
    k = np.where((level >= 0) & (level <= ts.m), level, 0)
    return M[k], start[k]


def _level_key(ts: TemporalStructure, col: int, cycles: int = 1) -> tuple:
    """``(k, index)`` of column ``col`` in the level-blocked layout."""
    for k in ts.factors:
        slc = ts.level_slice(k, cycles)
        if col < slc.stop:
            return k, col - slc.start + 1


def _coverage(index: np.ndarray) -> tuple[bool, int]:
    """Whether the non-negative ``index`` repeats a value and, if it does
    not, the smallest non-negative integer that it lacks.  No array larger
    than ``index`` is made, however large its values."""
    index = np.sort(index)
    gaps = np.flatnonzero(index != np.arange(index.size))
    return bool((index[1:] == index[:-1]).any()), int(gaps[0]) if gaps.size else index.size


def _scatter(fault, key, series: list, ints, value, index, total: int) -> np.ndarray:
    """``value`` placed at ``index`` of ``total`` cells, from rows that passed
    their own checks; else ``fault`` for a repeated key, for the first missing
    cell, named by the string ``key(cell)``, or for a non-finite value."""
    repeated, missing = _coverage(index)
    if repeated:
        raise fault("duplicate key")  # which one, _row_fault names
    if missing < total:
        raise fault(f"missing key {key(missing)}")
    finite = np.isfinite(value)
    if not finite.all():
        r = int(np.argmin(finite))
        raise fault(f"non-finite value at {(series[r], *ints[:, r].tolist())}")
    cells = np.empty(total)
    cells[index] = value
    return cells


_VALUE_INTS = ("level_k", "index_within_level")
_RESIDUAL_INTS = ("level_k", "index_within_level", "origin_column")


def read_values(
    path, cs: CrossSectionalStructure, ts: TemporalStructure
) -> tuple[np.ndarray, int]:
    """Read a long-format value file; returns ``(matrix, cycles)``.

    Every ``(series, level, index)`` key must appear exactly once and the
    level blocks must cover whole cycles consistently.
    """
    series, ints, value, fault = _read_long(path, _VALUE_INTS)
    level, pos = ints
    if not value.size:
        raise fault("no data rows")
    seen_levels = set(np.unique(level).tolist())
    if seen_levels != set(ts.factors):
        raise fault(
            f"level blocks {sorted(seen_levels)} do not cover the "
            f"factor set {sorted(ts.factors)}"
        )
    top_count = int(np.count_nonzero(level == ts.m))
    cycles, rem = divmod(top_count, cs.n)
    if rem or cycles < 1:
        raise fault(f"level {ts.m} has {top_count} entries, "
                    f"not a multiple of {cs.n} series")
    row = _series_index(cs, series)
    M, start = _level_tables(ts, level, cycles)
    bad = (row < 0) | (pos < 1) | (pos > cycles * M)
    if bad.any():
        r = np.argmax(bad)
        if row[r] < 0:
            raise fault(f"unknown series {series[r]!r}")
        raise fault(
            f"index {pos[r]} out of range 1..{cycles * M[r]} at "
            f"({series[r]}, {level[r]})"
        )
    width = cycles * ts.cycle_len

    def key(cell):
        i, col = divmod(cell, width)
        return "({}, {}, {})".format(cs.labels[i], *_level_key(ts, col, cycles))

    values = _scatter(fault, key, series, ints, value, row * width + start + pos - 1,
                      cs.n * width)
    return values.reshape(cs.n, width), cycles


def write_residuals(path, residuals: ResidualTableau, cs: CrossSectionalStructure):
    ts = residuals.ts
    if residuals.n != cs.n:
        raise DimensionMismatch(f"residual tableau has {residuals.n} series, "
                                f"the hierarchy {cs.n}")
    taus = range(1, residuals.n_cycles + 1)
    rows = iter(residuals.values.tolist())
    lines = ["series,level_k,index_within_level,origin_column,value"]
    for label in cs.labels:
        for k in ts.factors:
            prefix = _record([label, k])
            for l in range(1, ts.M_k[k] + 1):
                lines += [f"{prefix},{l},{tau},{v:.17g}" for tau, v in zip(taus, next(rows))]
    _write_lines(path, lines)


def read_residuals(
    path, cs: CrossSectionalStructure, ts: TemporalStructure
) -> ResidualTableau:
    """Read a long-format residual file.

    Every ``(series, level, index, origin_column)`` key must appear
    exactly once; the origin columns run from 1 to their largest value.
    """
    series, ints, value, fault = _read_long(path, _RESIDUAL_INTS)
    level, pos, origin = ints
    if not value.size:
        raise fault("no data rows")
    if origin.min() < 1:
        raise fault("origin_column below 1")
    n_cols = int(origin.max())
    cl = ts.cycle_len
    row = _series_index(cs, series)
    M, start = _level_tables(ts, level)
    bad = (row < 0) | (pos < 1) | (pos > M)
    if bad.any():
        r = np.argmax(bad)
        if row[r] < 0:
            raise fault(f"unknown series {series[r]!r}")
        raise fault(f"bad level/index ({series[r]}, {level[r]}, {pos[r]})")

    def key(cell):
        r, tau = divmod(cell, n_cols)
        i, within = divmod(r, cl)
        return "({}, {}, {}, {})".format(cs.labels[i], *_level_key(ts, within), tau + 1)

    position = row * cl + start + pos - 1
    # With more origin columns than rows, a key of the first position is
    # missing; only its rows are indexed, as the others' index could overflow.
    first = position == 0 if n_cols > value.size else slice(None)
    values = _scatter(fault, key, series, ints, value,
                      position[first] * n_cols + origin[first] - 1, cs.n * cl * n_cols)
    return ResidualTableau(values.reshape(cs.n * cl, n_cols), cs.n, ts)


# ---------------------------------------------------------------------------
# Config files


def read_config(path, keys) -> dict:
    """Parse a ``key = value`` config file; a key outside ``keys``, or one
    given twice, is a FormatError."""
    first: dict[str, int] = {}
    return dict(_key_value(path, lineno, line, keys, first) for lineno, line in _lines(path))
