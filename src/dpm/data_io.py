"""CSV ingestion: features keep their units, and their column ranges are the domain."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import compress
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
    are dropped with a warning.  Each row's cells are parsed as it is
    read, so of several problems in the rows the first in file order is
    reported; row numbers count physical file lines, header included.
    """
    path = Path(path)
    if not path.exists():
        raise CsvFormatError(f"no such file: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvFormatError(f"{path} is empty") from None
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise CsvFormatError(f"duplicated column names in header: {repeated}")
        if response_column not in header:
            raise CsvFormatError(
                f"response column {response_column!r} not in header {header}")
        feature_columns = [h for h in header if h != response_column]
        if not feature_columns:
            raise CsvFormatError("no feature columns left")

        rows = []
        for record in reader:
            if not any(cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise CsvFormatError(
                    f"row {reader.line_num} has {len(record)} cells, expected {len(header)}")
            rows.append([_parse_cell(cell.strip(), reader.line_num, name)
                         for cell, name in zip(record, header)])

    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows, got {len(rows)}")
    table = np.array(rows)
    response = header.index(response_column)
    y, raw = table[:, response], np.delete(table, response, axis=1)
    if np.ptp(y) == 0.0:
        raise CsvFormatError("response column is constant")

    lo, hi = raw.min(axis=0), raw.max(axis=0)
    kept = lo < hi
    dropped = list(compress(feature_columns, ~kept))
    if dropped:
        warnings.warn(f"dropping constant feature columns: {dropped}")
    if not kept.any():
        raise CsvFormatError("all feature columns are constant")

    return LoadedCsv(
        data=Dataset(raw[:, kept], y, omega_bounds=list(zip(lo[kept], hi[kept]))),
        feature_names=tuple(compress(feature_columns, kept)),
        dropped_columns=tuple(dropped),
    )
