"""CSV ingestion with per-column min-max rescaling to the unit cube."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset


class CsvFormatError(ValueError):
    """Malformed input file: structure, types, or degenerate columns."""


@dataclass(frozen=True)
class LoadedCsv:
    """A parsed dataset plus the rescaling metadata needed to map
    fitted coefficients back to the original feature units."""

    data: Dataset
    response_name: str
    feature_names: tuple[str, ...]
    feature_ranges: tuple[tuple[float, float], ...]
    dropped_columns: tuple[str, ...]


def _parse_cell(raw: str, row_num: int, col_name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvFormatError(
            f"non-numeric value {raw!r} at row {row_num}, column {col_name}") from None
    if not np.isfinite(value):
        raise CsvFormatError(
            f"non-finite value {raw!r} at row {row_num}, column {col_name}")
    return value


def load_csv(path, response_column: str) -> LoadedCsv:
    """Read a headered CSV into a Dataset on [0,1]^p.

    Every column but the response is a feature.  Features are min-max
    rescaled per column; constant feature columns are dropped with a
    warning.  Row numbers in errors count physical file lines, header
    included.
    """
    path = Path(path)
    if not path.exists():
        raise CsvFormatError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise CsvFormatError(f"duplicated column names in header: {repeated}")
        if response_column not in header:
            raise CsvFormatError(
                f"response column {response_column!r} not in header {header}")
        feature_columns = [h for h in header if h != response_column]
        if not feature_columns:
            raise CsvFormatError("no feature columns left")

        col_index = {name: header.index(name) for name in header}
        rows = []
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise CsvFormatError(
                    f"row {reader.line_num} has {len(record)} cells, expected {len(header)}")
            rows.append((reader.line_num, record))

    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows, got {len(rows)}")

    y = np.array([_parse_cell(rec[col_index[response_column]].strip(), num, response_column)
                  for num, rec in rows])
    raw = np.column_stack([
        np.array([_parse_cell(rec[col_index[name]].strip(), num, name)
                  for num, rec in rows])
        for name in feature_columns])

    if np.ptp(y) == 0.0:
        raise CsvFormatError("response column is constant")

    kept, dropped, ranges = [], [], []
    for j, name in enumerate(feature_columns):
        lo, hi = float(raw[:, j].min()), float(raw[:, j].max())
        if lo == hi:
            dropped.append(name)
            continue
        kept.append(j)
        ranges.append((lo, hi))
    if dropped:
        warnings.warn(f"dropping constant feature columns: {dropped}")
    if not kept:
        raise CsvFormatError("all feature columns are constant")

    X = raw[:, kept]
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    X = (X - lo) / (hi - lo)
    data = Dataset(X, y, omega_bounds=tuple((0.0, 1.0) for _ in kept))
    return LoadedCsv(
        data=data,
        response_name=response_column,
        feature_names=tuple(feature_columns[j] for j in kept),
        feature_ranges=tuple(ranges),
        dropped_columns=tuple(dropped),
    )
