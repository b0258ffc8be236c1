"""Five-dimensional study: affine fit plus kernel ridge over a maximin design.

For each noise level and replication, a fresh 50-point maximin Latin
hypercube is drawn, the response is the 5-D two-bump function plus
Gaussian noise, and the alternation (``fit_double_penalty`` with an
affine f and kernel ridge g) runs for a fixed number of iterations at
several ridge levels n*lambda.  Training error, prediction error on a
1000-point Halton set, and empirical L2 norms of the two components are
averaged over replications for every iterate.
"""

from __future__ import annotations

import time

import numpy as np

from ..classes import LinearFitter
from ..core import Dataset
from ..fitter import RecordingFitter, StoppingRule, fit_double_penalty
from ..kernels import KernelRidgeFitter, MaternSpec, matern_gram
from ..numerics import halton, maximin_lhs
from .results import ExperimentResult, check_count
from .testfuncs import sun5d

_P = 5
_BESSEL_ORDER = 3.5
_NLAMBDAS = (1.0, 0.1, 0.001, 1e-9)    # the ridge levels n*lambda
_ITERS = 5                             # alternation iterations at each level


def run_example2(noise_sds=(0.1, 0.01), n: int = 50, reps: int = 100,
                 seed: int = 0) -> ExperimentResult:
    """Each noise level uses generator seed ``seed + level_index``."""
    check_count("n", n)
    check_count("reps", reps)
    start = time.perf_counter()
    # nu - p/2 = 3.5 and phi makes the kernel argument equal the distance
    spec = MaternSpec(nu=_BESSEL_ORDER + _P / 2.0, p=_P,
                      phi=1.0 / (2.0 * np.sqrt(_BESSEL_ORDER)))
    x_test = halton(np.arange(1, 1001), _P)
    h_test = sun5d(x_test)
    bounds = tuple((0.0, 1.0) for _ in range(_P))
    stop = StoppingRule(max_iters=_ITERS, change_tol=0.0)

    sums = {(sd, nl, it): np.zeros(4)
            for sd in noise_sds for nl in _NLAMBDAS for it in range(1, _ITERS + 1)}
    for level, noise_sd in enumerate(noise_sds):
        rng = np.random.default_rng(seed + level)
        for _ in range(reps):
            X = maximin_lhs(n, _P, rng)
            y = sun5d(X) + rng.normal(0.0, noise_sd, n)
            data = Dataset(X, y, omega_bounds=bounds)
            K_test = matern_gram(spec, x_test, X)
            for nl in _NLAMBDAS:    # the rep's Gram is shared through data.derived
                fs = RecordingFitter(LinearFitter())
                gs = RecordingFitter(KernelRidgeFitter(spec, lam=nl / n))
                fit_double_penalty(data, fs, gs, stop)
                # f_0 starts the run, so iterate m pairs f_m with g_m
                for it, (f_m, g_m) in enumerate(zip(fs.members[1:], gs.members), start=1):
                    f_test = f_m(x_test)
                    g_test = K_test @ g_m.coefficients.alpha
                    sums[(noise_sd, nl, it)] += (
                        np.mean((y - f_m.fitted - g_m.fitted) ** 2),
                        np.mean((h_test - f_test - g_test) ** 2),
                        np.sqrt(np.mean(f_test ** 2)),
                        np.sqrt(np.mean(g_test ** 2)),
                    )

    columns = ("noise_sd", "n_lambda", "iteration", "training",
               "prediction", "linear_l2", "nonlinear_l2")
    rows = []
    for sd in noise_sds:
        for nl in _NLAMBDAS:
            for it in range(1, _ITERS + 1):
                vals = sums[(sd, nl, it)] / reps
                rows.append((float(sd), float(nl), it,
                             float(vals[0]), float(vals[1]),
                             float(vals[2]), float(vals[3])))
    return ExperimentResult(
        name="example2",
        seed=seed,
        config={"nlambdas": [float(v) for v in _NLAMBDAS],
                "noise_sds": [float(v) for v in noise_sds],
                "iters": _ITERS, "n": n, "reps": reps,
                "bessel_order": _BESSEL_ORDER},
        columns=columns,
        rows=tuple(rows),
        wall_time_s=time.perf_counter() - start,
    )
