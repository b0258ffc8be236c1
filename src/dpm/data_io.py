"""CSV ingestion: features keep their units, and their column ranges are the domain."""

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
    """A parsed dataset plus the names of its kept and dropped feature columns."""

    data: Dataset
    feature_names: tuple[str, ...]
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
    """Read a headered CSV into a Dataset whose domain is the box of its feature ranges.

    Every column but the response is a feature and keeps its values; its
    (min, max) is its side of ``omega_bounds``.  Constant feature columns
    are dropped with a warning.  Row numbers in errors count physical file
    lines, header included.
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

    return LoadedCsv(
        data=Dataset(raw[:, kept], y, omega_bounds=tuple(ranges)),
        feature_names=tuple(feature_columns[j] for j in kept),
        dropped_columns=tuple(dropped),
    )
