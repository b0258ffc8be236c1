"""One-dimensional study: constrained line plus projected-kernel ridge.

Target is the bimodal test function on [0.5, 2.5].  The interpretable
class is {b1*x + b2 : b1^2 + b2^2 <= 100}; the flexible class is kernel
ridge under a Matern kernel projected to be orthogonal to the linear
span under the empirical measure of the training points.  The ridge
penalty is picked by GCV on the first residual and then frozen.
"""

from __future__ import annotations

import time

import numpy as np

from ..classes import LinearFitter
from ..core import Dataset
from ..fitter import StoppingRule, fit_double_penalty
from ..kernels import KernelRidgeFitter, MaternSpec, ProjectedKernel
from ..numerics import QuadratureRule
from .results import ExperimentResult
from .testfuncs import gramacy1d

_DOMAIN = (0.5, 2.5)
_NORM_BOUND = 10.0
_TEST_GRID = 201        # equispaced test points on the domain
_CHANGE_TOL = 1e-6      # the alternation's stopping tolerance


def run_example1(n: int = 20, nu: float = 3.5, phi: float = 1.0,
                 noise_var: float = 0.1, reps: int = 100,
                 seed: int = 0) -> ExperimentResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    spec = MaternSpec(nu=nu, p=1, phi=phi)
    x_test = np.linspace(_DOMAIN[0], _DOMAIN[1], _TEST_GRID)
    h_test = gramacy1d(x_test)
    noise_sd = float(np.sqrt(noise_var))

    columns = ("rep", "mspe", "iterations", "n_lambda", "ball_active")
    rows = []
    for rep in range(reps):
        x = rng.uniform(_DOMAIN[0], _DOMAIN[1], n)
        y = gramacy1d(x) + rng.normal(0.0, noise_sd, n)
        data = Dataset(x[:, None], y, omega_bounds=(_DOMAIN,))
        rule = QuadratureRule(data.unit_X.copy(), np.full(n, 1.0 / n))
        kernel = ProjectedKernel(spec, rule)
        fitter_f = LinearFitter(norm_bound=_NORM_BOUND)
        fitter_g = KernelRidgeFitter(kernel, lam=None)
        fit = fit_double_penalty(data, fitter_f, fitter_g,
                                 stop=StoppingRule(max_iters=500,
                                                   change_tol=_CHANGE_TOL))
        pred = fit.predict(x_test[:, None])
        mspe = float(np.mean((pred - h_test) ** 2))
        model = fit.f_hat.coefficients
        joint = np.append(model.beta, model.intercept)
        active = bool(np.sqrt(joint @ joint) >= _NORM_BOUND * (1.0 - 1e-12))
        rows.append((rep, mspe, fit.iterations,
                     float(fitter_g.lam * n), int(active)))

    mspes = np.array([r[1] for r in rows])
    iters = np.array([r[2] for r in rows])
    notes = (
        f"mean_mspe={mspes.mean():.6f}",
        f"mean_iterations={iters.mean():.4f}",
        f"frac_iters_le_3={float(np.mean(iters <= 3)):.4f}",
        f"ball_activations={int(sum(r[4] for r in rows))}",
    )
    return ExperimentResult(
        name="example1",
        seed=seed,
        config={"n": n, "nu": nu, "phi": phi, "noise_var": noise_var,
                "reps": reps, "test_grid": _TEST_GRID,
                "change_tol": _CHANGE_TOL, "norm_bound": _NORM_BOUND},
        columns=columns,
        rows=tuple(rows),
        wall_time_s=time.perf_counter() - start,
        notes=notes,
    )
