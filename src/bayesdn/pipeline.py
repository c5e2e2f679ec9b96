"""Real-data ingestion and preprocessing.

CSV reading with missing-row accounting, trailing moving averages,
rank-based marginal Gaussianization, date-boundary phase splitting, and
the classical homogeneity test for two covariance matrices.

CSV conventions: comma separated, UTF-8 (a leading byte-order mark is
skipped), header row required, '.' decimal separator, dates in ISO-8601.
"""

from __future__ import annotations

import csv
import datetime
import math
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.special import chdtrc, ndtri

from .linalg import cholesky_pd, require_symmetric

__all__ = [
    "EmptyDataError",
    "ColumnError",
    "read_csv",
    "write_csv",
    "moving_average",
    "nonparanormal_transform",
    "boxs_m_test",
    "split_phases",
]


class EmptyDataError(ValueError):
    """The file contains a header but no data rows (or nothing at all)."""


class ColumnError(ValueError):
    """A data column that cannot be used; ``column`` is its index."""

    def __init__(self, column: int, problem: str):
        super().__init__(f"column {column} {problem}")
        self.column = column
        self.problem = problem


@dataclass(frozen=True)
class Dataset:
    """Numeric columns, optional parsed dates, and the dropped-row count."""

    columns: list[str]
    rows: np.ndarray
    dates: list[datetime.date] | None = None
    n_dropped: int = 0


def read_csv(path, date_column: str | None = None) -> Dataset:
    """Parse a headed CSV of numeric columns.

    Rows containing any blank cell are dropped and counted, and so are
    empty lines.  A non-blank cell that does not parse as a finite number
    is an error (``nan`` and ``inf`` included), as is a row with the wrong
    number of fields or a header that names one column twice.  An error in
    a row cites the physical line on which its record ends, since a quoted
    cell may span lines.

    The rows are parsed straight into one packed buffer.  When that pass
    meets anything but a numeric or blank row, or a non-finite value, the
    file is read again cell by cell to word its first error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated column name {repeated[0]!r} in header")
        date_idx = None
        if date_column is not None:
            if date_column not in header:
                raise ValueError(f"{path}: date column {date_column!r} not in header {header}")
            date_idx = header.index(date_column)
        value_idx = [k for k in range(len(header)) if k != date_idx]
        if len(value_idx) < 2:
            raise ValueError(f"{path}: need at least 2 numeric columns, found {len(value_idx)}")

        packed = _pack_rows(reader, len(header), value_idx, date_idx)
        if packed is None:
            _raise_first_error(path, fh, header, value_idx, date_idx)
    rows, dates, n_dropped = packed
    if rows.shape[0] == 0:
        raise EmptyDataError(f"{path}: no data rows (dropped {n_dropped})")
    return Dataset(
        columns=[header[k] for k in value_idx],
        rows=rows,
        dates=dates if date_idx is not None else None,
        n_dropped=n_dropped,
    )


def _is_blank(record: list[str]) -> bool:
    return any(cell.strip() == "" for cell in record)


def _pack_rows(reader, width: int, value_idx: list[int], date_idx: int | None):
    """``(rows, dates, n_dropped)`` from the data records, or None to word an error.

    Each kept row's values are appended to one ``array('d')`` by a single
    ``map``, so no per-row list of floats is ever held.  None means a
    record that is neither numeric nor blank (an empty line is blank),
    or a non-finite value.
    """
    buf = array("d")
    extend = buf.extend
    pick = itemgetter(*value_idx)
    dates: list[datetime.date] = []
    n_dropped = 0
    for record in reader:
        if len(record) != width:
            if record:
                return None
            n_dropped += 1
            continue
        try:
            if date_idx is not None:
                day = datetime.date.fromisoformat(record[date_idx].strip())
            extend(map(float, map(str.strip, pick(record))))
        except ValueError:
            if not _is_blank(record):
                return None
            del buf[len(buf) - len(buf) % len(value_idx):]
            n_dropped += 1
            continue
        if date_idx is not None:
            dates.append(day)
    rows = np.frombuffer(buf, dtype=float).reshape(-1, len(value_idx))
    if not np.isfinite(rows).all():
        return None
    return rows, dates, n_dropped


def _raise_first_error(path, fh, header: list[str], value_idx: list[int], date_idx):
    """Read the open file again, cell by cell, and raise its first error in file order."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    for record in reader:
        ln = reader.line_num
        if not record:
            continue
        if len(record) != len(header):
            raise ValueError(f"{path}:{ln}: expected {len(header)} fields, got {len(record)}")
        if _is_blank(record):
            continue
        for k in value_idx:
            cell = record[k].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{ln}: non-numeric value {cell!r} in column {header[k]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{ln}: non-finite value {cell!r} in column {header[k]!r}")
        if date_idx is not None:
            cell = record[date_idx].strip()
            try:
                datetime.date.fromisoformat(cell)
            except ValueError:
                raise ValueError(f"{path}:{ln}: bad ISO date {cell!r}") from None
    raise AssertionError(f"{path}: the packed pass refused a file the per-cell check accepts")


def write_csv(path, columns: list[str], rows: np.ndarray, dates=None, date_column="date") -> None:
    """Write numeric data so that a read-back reproduces it bit for bit.

    Floats are rendered with ``repr``, which round-trips exactly.
    """
    rows = np.asarray(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if dates is not None:
            writer.writerow([date_column] + list(columns))
            for date, row in zip(dates, rows):
                writer.writerow([date.isoformat()] + [repr(float(v)) for v in row])
        else:
            writer.writerow(list(columns))
            for row in rows:
                writer.writerow([repr(float(v)) for v in row])


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over ``window`` points; output shrinks by window - 1."""
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if series.ndim != 1:
        raise ValueError("series must be 1-d")
    if series.size < window:
        raise ValueError(f"series of length {series.size} shorter than window {window}")
    return np.convolve(series, np.ones(window), mode="valid") / window


def nonparanormal_transform(x: np.ndarray) -> np.ndarray:
    """Map every column through its shrunken empirical CDF to normal scores.

    Ranks (average rank on ties) are scaled by ``1 / (n + 1)`` and pushed
    through the standard normal quantile function, then each column is
    centered.  The result depends on the input only through the column
    orderings, so any strictly increasing per-column transformation of the
    input leaves it unchanged.  Every value must be finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-d")
    n = x.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 rows, got {n}")
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        if not np.all(np.isfinite(col)):
            raise ColumnError(j, "holds a non-finite value")
        if np.all(col == col[0]):
            raise ColumnError(j, "is constant")
        scores = ndtri(_average_ranks(col) / (n + 1))
        out[:, j] = scores - scores.mean()
    return out


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a finite column, ties sharing the mean of their ranks."""
    _, inv, counts = np.unique(col, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inv]


def boxs_m_test(
    s1: np.ndarray, n1: int, s2: np.ndarray, n2: int
) -> tuple[float, float]:
    """Homogeneity test for two covariance matrices (chi-square form).

    ``s1`` and ``s2`` are the unbiased sample covariances of groups of
    sizes ``n1`` and ``n2``.  Returns the scaled statistic and its
    chi-square p-value with p(p+1)/2 degrees of freedom.  The statistic of
    two equal covariances can round below 0; its p-value is then 1.
    """
    s1 = require_symmetric(s1, "s1")
    s2 = require_symmetric(s2, "s2")
    if s1.shape != s2.shape:
        raise ValueError("covariances must share dimensions")
    p = s1.shape[0]
    if min(n1, n2) <= p:
        raise ValueError(f"group sizes must exceed the dimension {p}")
    f1, f2 = n1 - 1, n2 - 1
    ftot = f1 + f2
    pooled = (f1 * s1 + f2 * s2) / ftot
    logdet1 = cholesky_pd(s1).logdet
    logdet2 = cholesky_pd(s2).logdet
    logdet_pooled = cholesky_pd(pooled).logdet
    m_stat = ftot * logdet_pooled - f1 * logdet1 - f2 * logdet2
    correction = (
        (2.0 * p * p + 3.0 * p - 1.0)
        / (6.0 * (p + 1.0))
        * (1.0 / f1 + 1.0 / f2 - 1.0 / ftot)
    )
    statistic = m_stat * (1.0 - correction)
    dof = p * (p + 1) / 2.0
    p_value = float(chdtrc(dof, max(statistic, 0.0)))
    return float(statistic), p_value


def split_phases(
    dataset: Dataset, boundaries: list[datetime.date], names: Sequence[str]
) -> dict[str, np.ndarray]:
    """Cut the dataset's rows into contiguous phases at the boundary dates.

    Returns ``{name: rows}`` in phase order, one name per phase.  Phase k
    covers rows with date >= boundary[k-1] and < boundary[k]; the first
    phase starts at the first row, the last ends at the last row.
    Boundaries must be sorted and fall inside the observed date range,
    and the rows' dates must not go backwards.  A phase shorter than
    p + 1 rows triggers a warning, since a sample covariance from it
    cannot be full rank.
    """
    if dataset.dates is None:
        raise ValueError("dataset has no date column")
    dates = dataset.dates
    for earlier, later in zip(dates, dates[1:]):
        if later < earlier:
            raise ValueError(f"dates must not go backwards: {earlier} is followed by {later}")
    first, last = dates[0], dates[-1]
    if sorted(boundaries) != list(boundaries):
        raise ValueError("boundaries must be sorted")
    for b in boundaries:
        if b <= first or b > last:
            raise ValueError(f"boundary {b} outside data range ({first} .. {last}]")
    cuts = [0]
    for b in boundaries:
        k = next(i for i, d in enumerate(dates) if d >= b)
        cuts.append(k)
    cuts.append(len(dates))
    if len(names) != len(cuts) - 1:
        raise ValueError(f"need {len(cuts) - 1} names, got {len(names)}")
    p = dataset.rows.shape[1]
    phases: dict[str, np.ndarray] = {}
    for name, start, stop in zip(names, cuts[:-1], cuts[1:]):
        if stop - start < p + 1:
            warnings.warn(
                f"phase {name!r} has {stop - start} rows, fewer than p + 1 = {p + 1}",
                stacklevel=2,
            )
        phases[name] = dataset.rows[start:stop]
    return phases
