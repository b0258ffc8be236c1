"""Seeded inputs and the timed units of each benchmark workload.

A workload turns a seed into a list of units (``make_inputs``) and runs
one unit at a time (``run_unit``); a pass runs every unit once, and the
runner times each unit on its own.  A unit returns a ``PassOutput``: the
deterministic numbers it produced, how many operations it attempted and
how many of them were skipped, and a prediction-error summary.  The
program under test only ever sees the generated inputs.

Each workload also names the traced functions it must call, so that a
refactor which moves work out of a layer cannot silently zero it out.
"""

from __future__ import annotations

import contextlib
import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# entry points are called through their modules, so the tracer's rebinding
# of dpm.* names reaches the calls made from here too
from dpm import cli, experiments, transect
from dpm.core import Dataset
from dpm.cv import CvConfig, LearnerPair

DEFAULT_SEED = 0


@dataclass(frozen=True)
class PassOutput:
    values: tuple[float, ...]   # every number the unit produced, in a fixed order
    ops: int                    # sweep cells or study replications attempted
    skipped: int                # cells that grid_sweep / transect_sweep skipped with a warning
    pred_err: float


def combine(outputs) -> PassOutput:
    """The output of a whole pass from the outputs of its units, in order."""
    return PassOutput(tuple(v for out in outputs for v in out.values),
                      sum(out.ops for out in outputs), sum(out.skipped for out in outputs),
                      float(np.mean([out.pred_err for out in outputs])))


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path, bool], list]   # seed, output dir, small -> units
    run_unit: Callable[[dict], PassOutput]
    expected_calls: tuple[str, ...]


def _count_skips(caught) -> int:
    return sum("skipped" in str(w.message) for w in caught)


# -- sweep_stumps -------------------------------------------------------------

# One unit is one grid sweep of one C11-style dataset.  A dataset's
# alternation count varies by about 15% (IQR/median) from one seed to the
# next, so a pass sweeps several datasets and each is timed on its own.
STUMPS_DATASETS = 4
# On the c=-2 family both cells converge without max-iter stops, and the
# transect cell repeats the grid cell.  The c=-1 partners of lambda_f
# values that keep the lasso non-trivial (lambda_g = 0.1 for lambda_f = 1)
# stop at max_iters on some folds only, which swings one sweep's cost by
# about 70% between datasets.
STUMPS_LF = (1.0,)
STUMPS_LG = (0.01,)
STUMPS_C = -2.0


def _stumps_inputs(seed: int, out_dir: Path, small: bool) -> list[dict]:
    units = []
    for child in np.random.SeedSequence(seed).spawn(1 if small else STUMPS_DATASETS):
        rng = np.random.default_rng(child)
        n = 60
        X = rng.uniform(0.0, 1.0, (n, 2))
        y = 2.5 * X[:, 0] + np.sin(2.0 * np.pi * X[:, 1]) + rng.normal(0.0, 0.15, n)
        cv = CvConfig(folds=3, repeats=1, seed=int(rng.integers(2 ** 31)))
        units.append({"data": Dataset(X, y, ((0.0, 1.0), (0.0, 1.0))), "cv": cv})
    return units


def _stumps_unit(inp: dict) -> PassOutput:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = transect.grid_sweep(inp["data"], STUMPS_LF, STUMPS_LG, inp["cv"],
                                     pair=LearnerPair("lasso", "stumps"), transect_c=STUMPS_C)
    rows = result.rows + result.transect_rows
    values = tuple(v for r in rows for v in (r.lambda_f, r.lambda_g, r.cor_f, r.cor_g, r.cor_total))
    ops = len(STUMPS_LF) * len(STUMPS_LG) + len(STUMPS_LF)
    return PassOutput(values, ops, _count_skips(caught), 1.0 - max(r.cor_total for r in rows))


# -- sweep_kernel_cli ---------------------------------------------------------

def _write_csv(path: Path, header, columns) -> None:
    # repr(float(v)): numpy 2 reprs np.float64 as "np.float64(...)",
    # which load_csv rejects as non-numeric
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _kernel_cli_inputs(seed: int, out_dir: Path, small: bool) -> list[dict]:
    rng = np.random.default_rng(seed)
    n = 40 if small else 120
    u = rng.uniform(0.0, 1.0, (n, 2))
    temp = 10.0 + 25.0 * u[:, 0]          # original units, rescaled by load_csv
    load = -1.0 + 2.0 * u[:, 1]
    y = (1.5 * u[:, 0] - 0.8 * u[:, 1] + np.sin(2.0 * np.pi * u[:, 0]) * np.cos(np.pi * u[:, 1])
         + rng.normal(0.0, 0.1, n))
    tag = "check" if small else f"seed{seed}"
    data_path = out_dir / f"kernel_cli_{tag}.csv"
    _write_csv(data_path, ("temp", "load", "y"), (temp, load, y))
    points = 3 if small else 10
    argv = ["transect", "--data", str(data_path), "--response", "y",
            "--interp", "linear", "--flex", "kernel", "--c", "-2",
            "--lf-grid", f"1e-3:1e1:{points}",
            "--cv-folds", "3" if small else "5", "--cv-repeats", "1",
            "--seed", str(seed), "--out", str(out_dir / f"kernel_cli_{tag}_rows.csv")]
    return [{"argv": argv, "rows_path": out_dir / f"kernel_cli_{tag}_rows.csv",
             "points": points}]


def _kernel_cli_unit(inp: dict) -> PassOutput:
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(inp["argv"])
    if code != 0:
        raise RuntimeError(f"dpm transect exited with code {code}")
    with inp["rows_path"].open(newline="") as fh:
        rows = [[float(v) for v in rec] for rec in list(csv.reader(fh))[1:]]
    return PassOutput(tuple(v for r in rows for v in r), inp["points"],
                      _count_skips(caught), 1.0 - max(r[4] for r in rows))


# -- study_gcv ----------------------------------------------------------------

def _gcv_inputs(seed: int, out_dir: Path, small: bool) -> list[dict]:
    return [{"reps": 1 if small else 10, "seed": seed}]


def _gcv_unit(inp: dict) -> PassOutput:
    result = experiments.run_example1(n=20, nu=3.5, phi=1.0, reps=inp["reps"], seed=inp["seed"])
    values = tuple(float(v) for row in result.rows for v in row)
    return PassOutput(values, inp["reps"], 0, float(np.mean(result.column("mspe"))))


# -- study_5d -----------------------------------------------------------------

def _five_d_inputs(seed: int, out_dir: Path, small: bool) -> list[dict]:
    return [{"reps": 2 if small else 40, "seed": seed}]


def _five_d_unit(inp: dict) -> PassOutput:
    result = experiments.run_example2(noise_sds=(0.1,), reps=inp["reps"], seed=inp["seed"])
    values = tuple(float(v) for row in result.rows for v in row)
    last = max(result.column("iteration"))
    pred = [row[result.columns.index("prediction")] for row in result.rows
            if row[result.columns.index("iteration")] == last]
    return PassOutput(values, inp["reps"], 0, float(np.mean(pred)))


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_stumps",
        _stumps_inputs, _stumps_unit,
        ("fit_lasso", "fit_boosted_stumps", "StumpEnsemble.predict",
         "fit_double_penalty", "cross_validated_predictions", "grid_sweep",
         "transect_sweep")),
    Workload(
        "sweep_kernel_cli",
        _kernel_cli_inputs, _kernel_cli_unit,
        ("load_csv", "matern_gram", "bessel_k", "cholesky_solve", "kernel_ridge_fit",
         "KernelRidgeModel.predict_unit", "fit_linear_ols", "fit_double_penalty",
         "cross_validated_predictions", "transect_sweep")),
    Workload(
        "study_gcv",
        _gcv_inputs, _gcv_unit,
        ("run_example1", "bessel_k", "matern_gram", "ProjectedKernel.__init__",
         "ProjectedKernel.gram", "gcv_select_lambda", "kernel_ridge_fit",
         "cholesky_solve", "KernelRidgeModel.predict_unit", "fit_linear_ols",
         "fit_double_penalty")),
    Workload(
        "study_5d",
        _five_d_inputs, _five_d_unit,
        ("run_example2", "maximin_lhs", "matern_gram", "bessel_k", "cholesky_solve",
         "fit_linear_ols")),
)}
