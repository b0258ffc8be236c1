"""Tuning sweeps along log10(lambda_g) + log10(lambda_f) = c, and full grids.

Each cell cross-validates a double-penalty fit and reports Pearson
correlations between the response and the averaged out-of-fold
predictions of f, g, and their sum.  Both sweeps check every cell before
any fold fit runs: its lambdas must pass ``LearnerPair.fitters``, and each
grid must be non-empty and strictly increasing, or a ValueError names the
cell.  A cell whose fold fit fails, or whose out-of-fold prediction is
constant, is skipped with a warning; CvCellError if every cell is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

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


def _checked(data: Dataset, pair: LearnerPair, cells: list[tuple[float, float]],
             kind: str) -> list[tuple[float, float]]:
    """``cells`` if there are any, ``pair`` builds fitters for each, and they
    increase strictly in (lambda_f, lambda_g) order, as they do when each
    grid is strictly increasing; else a ValueError naming the first bad cell."""
    if not cells:
        raise ValueError(f"the {kind} sweep has no cells; its grids must be non-empty")
    for prev, (lf, lg) in zip([None] + cells, cells):
        try:
            pair.fitters(data, lf, lg)
            if prev is not None and prev >= (lf, lg):
                raise ValueError("grids must be strictly increasing")
        except ValueError as exc:
            raise ValueError(f"{kind} cell ({lf:g}, {lg:g}): {exc}") from None
    return cells


def _sweep(data: Dataset, pair: LearnerPair, cells: list[tuple[float, float]],
           cv: CvConfig, kind: str, reuse=()) -> list[DiagnosticRow]:
    """One row per checked cell, in order.  A cell takes the row of
    ``reuse`` at its lambda_f when its lambda_g is within 1e-12 relative of
    the row's (log grids and ``10 ** (c - log10(lambda_f))`` can differ by
    an ulp), with the cell's own lambda_g."""
    done_at = {row.lambda_f: row for row in reuse}
    rows = []
    for lf, lg in cells:
        done = done_at.get(lf)
        if done is not None and math.isclose(lg, done.lambda_g, rel_tol=1e-12):
            rows.append(replace(done, lambda_g=lg))
            continue
        try:
            rows.append(_cell(data, pair, lf, lg, cv))
        except CvCellError as exc:
            warnings.warn(f"{kind} cell ({lf:g}, {lg:g}) skipped: {exc}")
    if not rows:
        raise CvCellError(f"every {kind} cell failed")
    return rows


def _transect_lambda_g(c: float, lambda_f: float) -> float:
    """10 ** (c - log10(lambda_f)); inf where that overflows or lambda_f <= 0."""
    try:
        return 10.0 ** (c - math.log10(lambda_f))
    except (OverflowError, ValueError):
        return math.inf


def transect_sweep(data: Dataset, lambda_f_grid, c: float, cv: CvConfig,
                   pair: LearnerPair | None = None) -> list[DiagnosticRow]:
    """One row per lambda_f, at lambda_g = 10 ** (c - log10(lambda_f))."""
    pair = pair or LearnerPair()
    cells = [(float(lf), _transect_lambda_g(c, float(lf))) for lf in lambda_f_grid]
    return _sweep(data, pair, _checked(data, pair, cells, "transect"), cv, "transect")


@dataclass(frozen=True)
class GridSweepResult:
    rows: tuple[DiagnosticRow, ...]
    transect_rows: tuple[DiagnosticRow, ...] = ()

    @property
    def grid_max(self) -> float:
        return max(row.cor_total for row in self.rows)

    @property
    def transect_max(self) -> float | None:
        return max((row.cor_total for row in self.transect_rows), default=None)

    @property
    def gap(self) -> float | None:
        return None if self.transect_max is None else self.grid_max - self.transect_max


def grid_sweep(data: Dataset, lambda_f_grid, lambda_g_grid, cv: CvConfig,
               pair: LearnerPair | None = None,
               transect_c: float | None = None) -> GridSweepResult:
    """Full Cartesian sweep.  With ``transect_c`` the transect runs first, the
    grid takes its rows where they match, and ``gap`` reports how far the
    grid-wide best cor(y, f+g) sits above the transect's best."""
    pair = pair or LearnerPair()
    lf_grid = [float(v) for v in lambda_f_grid]
    cells = [(lf, float(lg)) for lf in lf_grid for lg in lambda_g_grid]
    cells = _checked(data, pair, cells, "grid")
    transect_rows = () if transect_c is None else tuple(
        transect_sweep(data, lf_grid, transect_c, cv, pair))
    return GridSweepResult(tuple(_sweep(data, pair, cells, cv, "grid", transect_rows)),
                           transect_rows)
