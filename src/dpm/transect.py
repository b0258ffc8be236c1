"""Tuning sweeps along log10(lambda_g) + log10(lambda_f) = c, and full grids.

Each cell cross-validates a double-penalty fit and reports Pearson
correlations between the response and the averaged out-of-fold
predictions of f, g, and their sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset
from .cv import CvCellError, CvConfig, LearnerPair, cross_validated_predictions


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("length mismatch")
    a0 = a - a.mean()
    b0 = b - b.mean()
    na = math.sqrt(float(a0 @ a0))
    nb = math.sqrt(float(b0 @ b0))
    if na == 0.0 or nb == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.clip(float(a0 @ b0) / (na * nb), -1.0, 1.0))


def default_lambda_f_grid(count: int = 25) -> tuple[float, ...]:
    return tuple(np.logspace(-4.0, 2.0, count))


@dataclass(frozen=True)
class TransectConfig:
    c: float = 0.0
    lambda_f_grid: tuple = field(default_factory=default_lambda_f_grid)
    pair: LearnerPair = field(default_factory=LearnerPair)

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError("transect offset c must be finite")
        grid = np.asarray(self.lambda_f_grid, dtype=float)
        if grid.size == 0 or not np.all((grid > 0.0) & np.isfinite(grid)):
            raise ValueError("lambda_f grid must be positive and finite")
        if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
            raise ValueError("lambda_f grid must be strictly increasing")
        for lf in self.lambda_f_grid:
            try:
                lg = self.lambda_g_for(float(lf))
            except OverflowError:
                lg = math.inf
            if not 0.0 < lg < math.inf:
                raise ValueError(f"transect offset c={self.c:g} gives lambda_g={lg:g} "
                                 f"at lambda_f={float(lf):g}; it must be positive and finite")

    def lambda_g_for(self, lambda_f: float) -> float:
        return 10.0 ** (self.c - math.log10(lambda_f))


@dataclass(frozen=True)
class DiagnosticRow:
    lambda_f: float
    lambda_g: float
    cor_f: float
    cor_g: float
    cor_total: float

    def __post_init__(self):
        for value in (self.cor_f, self.cor_g, self.cor_total):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"correlation {value} outside [-1, 1]")


def _cell(data: Dataset, pair: LearnerPair, lf: float, lg: float,
          cv: CvConfig) -> DiagnosticRow:
    f_avg, g_avg = cross_validated_predictions(data, pair, lf, lg, cv)
    try:
        cors = [pearson(data.y, pred) for pred in (f_avg, g_avg, f_avg + g_avg)]
    except ValueError as exc:              # a constant prediction has no correlation
        raise CvCellError(str(exc)) from exc
    return DiagnosticRow(lf, lg, *cors)


def transect_sweep(data: Dataset, config: TransectConfig,
                   cv: CvConfig) -> list[DiagnosticRow]:
    """One row per grid point.

    A cell whose fold fit fails, or whose out-of-fold prediction is
    constant, is skipped with a warning; invalid settings raise.
    """
    rows = []
    for lf in config.lambda_f_grid:
        lg = config.lambda_g_for(lf)
        try:
            rows.append(_cell(data, config.pair, float(lf), lg, cv))
        except CvCellError as exc:
            warnings.warn(f"transect cell lambda_f={lf:g} skipped: {exc}")
    return rows


@dataclass(frozen=True)
class GridSweepResult:
    rows: tuple[DiagnosticRow, ...]
    grid_max: float
    transect_rows: tuple[DiagnosticRow, ...] = ()
    transect_max: float | None = None

    @property
    def gap(self) -> float | None:
        if self.transect_max is None:
            return None
        return self.grid_max - self.transect_max


def grid_sweep(data: Dataset, lambda_f_grid, lambda_g_grid, cv: CvConfig,
               pair: LearnerPair | None = None,
               transect_c: float | None = None) -> GridSweepResult:
    """Full Cartesian sweep; with ``transect_c`` also reports how far the
    grid-wide best cor(y, f+g) sits above the best along that transect.

    The transect runs first, and a grid cell takes the transect row at its
    lambda_f when its lambda_g is within 1e-12 relative of the row's (log
    grids and ``10 ** (c - log10(lambda_f))`` can differ by an ulp).  The
    reused row carries the grid's own (lambda_f, lambda_g)."""
    pair = pair or LearnerPair()
    lf_grid = [float(v) for v in lambda_f_grid]
    lg_grid = [float(v) for v in lambda_g_grid]
    if not lf_grid or not lg_grid:
        raise ValueError("grids must be non-empty")
    transect_rows: tuple[DiagnosticRow, ...] = ()
    transect_max = None
    if transect_c is not None:
        config = TransectConfig(c=transect_c, lambda_f_grid=tuple(lf_grid), pair=pair)
        transect_rows = tuple(transect_sweep(data, config, cv))
        if transect_rows:
            transect_max = max(row.cor_total for row in transect_rows)
    on_transect = {row.lambda_f: row for row in transect_rows}

    rows = []
    for lf in lf_grid:
        for lg in lg_grid:
            done = on_transect.get(lf)
            if done is not None and math.isclose(lg, done.lambda_g, rel_tol=1e-12):
                rows.append(replace(done, lambda_g=lg))
                continue
            try:
                rows.append(_cell(data, pair, lf, lg, cv))
            except CvCellError as exc:
                warnings.warn(f"grid cell ({lf:g}, {lg:g}) skipped: {exc}")
    if not rows:
        raise CvCellError("every grid cell failed")
    grid_max = max(row.cor_total for row in rows)
    return GridSweepResult(tuple(rows), grid_max, transect_rows, transect_max)
