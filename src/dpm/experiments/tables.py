"""Sine-plus-linear alternation study: contraction slopes and iteration counts.

The model is y = beta1*x + beta2*sin(theta*x) + noise on [0,1].  Each
replication alternates exact least-squares sub-fits between the linear
and the sine direction, tracking the distance to the joint least-squares
solution after every sub-fit.  The log of the end-of-cycle distance is
regressed on the cycle index to estimate the contraction slope, which
theory predicts to be 2*log(psi(theta)).
"""

from __future__ import annotations

import time
from contextlib import suppress

import numpy as np

from ..fitter import estimate_convergence_slope
from ..separability import psi
from .results import ExperimentResult
from .testfuncs import sine_linear

_BETA = (1.0, 3.0)
_NOISE_VAR = 0.1
_TABLE1_THETAS = (2.0, 3.0, 3.5, 4.0)
_TABLE2_THETA = 3.0
_TABLE2_SIZES = (20, 50, 100, 150, 200)
# a replication stops once its distance to the joint solution is below this
_TOL = 1e-4
MAX_CYCLES = 5000


def _sine_linear_cell(theta: float, n: int, reps: int, seed: int) -> dict:
    """Run one (theta, n) cell; returns slope/iteration summaries.

    Iteration counts are sub-fits after the initial linear fit, which is
    how the alternation cost is tallied.  Replications whose distance
    sequence is too short for a slope fit are excluded from the slope
    mean (the count of usable replications is reported).
    """
    rng = np.random.default_rng(seed)
    noise_sd = float(np.sqrt(_NOISE_VAR))
    slopes = []
    sub_counts = []
    for _ in range(reps):
        x = rng.uniform(0.0, 1.0, n)
        s = np.sin(theta * x)
        y = sine_linear(theta, *_BETA, x) + rng.normal(0.0, noise_sd, n)
        target, *_ = np.linalg.lstsq(np.column_stack([x, s]), y, rcond=None)
        norm_x = float(np.sqrt(np.mean(x * x)))
        norm_s = float(np.sqrt(np.mean(s * s)))

        def dist(a1, a2):
            return abs(a1 - target[0]) * norm_x + abs(a2 - target[1]) * norm_s

        a1 = float(np.dot(y, x) / np.dot(x, x))
        a2 = 0.0
        n_sub = 0
        cycle_dists = []
        for _cycle in range(MAX_CYCLES):
            a2 = float(np.dot(y - a1 * x, s) / np.dot(s, s))
            n_sub += 1
            if dist(a1, a2) < _TOL:
                break
            a1 = float(np.dot(y - a2 * s, x) / np.dot(x, x))
            n_sub += 1
            cycle_dists.append(dist(a1, a2))
            if dist(a1, a2) < _TOL:
                break
        with suppress(ValueError):     # fewer than 3 distances above the floor
            slopes.append(estimate_convergence_slope(cycle_dists)[0])
        sub_counts.append(n_sub)
    return {
        "theta": float(theta),
        "n": int(n),
        "mean_slope": float(np.mean(slopes)) if slopes else float("nan"),
        "mean_iterations": float(np.mean(sub_counts)),
        "sd_iterations": float(np.std(sub_counts)),
        "reps_with_slope": len(slopes),
    }


def run_table1(n: int = 50, reps: int = 100, seed: int = 0) -> ExperimentResult:
    """Contraction rates across frequencies at a fixed sample size."""
    start = time.perf_counter()
    columns = ("theta", "psi", "two_log_psi", "mean_slope",
               "mean_iterations", "abs_diff", "reps_with_slope")
    rows = []
    for theta in _TABLE1_THETAS:
        cell = _sine_linear_cell(theta, n, reps, seed)
        target = 2.0 * float(np.log(psi(theta)))
        rows.append((
            float(theta),
            float(psi(theta)),
            target,
            cell["mean_slope"],
            cell["mean_iterations"],
            abs(target - cell["mean_slope"]),
            cell["reps_with_slope"],
        ))
    return ExperimentResult(
        name="table1",
        seed=seed,
        config={"thetas": [float(t) for t in _TABLE1_THETAS], "n": n, "reps": reps,
                "noise_var": _NOISE_VAR, "tol": _TOL,
                "beta": list(_BETA)},
        columns=columns,
        rows=tuple(rows),
        wall_time_s=time.perf_counter() - start,
    )


def run_table2(reps: int = 100, seed: int = 0) -> ExperimentResult:
    """Slope accuracy as the sample size grows, at a fixed frequency."""
    start = time.perf_counter()
    target = 2.0 * float(np.log(psi(_TABLE2_THETA)))
    columns = ("n", "mean_slope", "mean_iterations", "abs_diff",
               "reps_with_slope")
    rows = []
    for n in _TABLE2_SIZES:
        cell = _sine_linear_cell(_TABLE2_THETA, n, reps, seed)
        rows.append((
            int(n),
            cell["mean_slope"],
            cell["mean_iterations"],
            abs(target - cell["mean_slope"]),
            cell["reps_with_slope"],
        ))
    return ExperimentResult(
        name="table2",
        seed=seed,
        config={"sizes": [int(m) for m in _TABLE2_SIZES], "theta": _TABLE2_THETA,
                "reps": reps, "noise_var": _NOISE_VAR, "tol": _TOL,
                "two_log_psi": target},
        columns=columns,
        rows=tuple(rows),
        wall_time_s=time.perf_counter() - start,
    )
