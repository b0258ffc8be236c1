"""L1-penalized linear fits by cyclic coordinate descent."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import Dataset, FunctionClassFitter, FunctionClassMember
from .linear import LinearModel

MAX_SWEEPS = 1000
TOL = 1e-8


@dataclass(frozen=True, eq=False)    # compared by identity: its fields are arrays
class LassoDesign:
    """X standardized once for every lasso fit on it.

    ``Z`` has zero-mean columns of unit empirical norm, from column means
    ``mean`` and scales ``scale``; constant columns stay zero in ``Z`` and
    are left out of ``active``, the indices of the columns coordinate
    descent updates.
    """

    Z: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    active: np.ndarray


def lasso_design(X: np.ndarray) -> LassoDesign:
    """Standardize X once for every lasso fit on it."""
    n = X.shape[0]
    mean = X.mean(axis=0)
    centered = X - mean
    scale = np.sqrt((centered ** 2).sum(axis=0) / n)
    active = scale > 0.0
    Z = np.zeros_like(centered)
    Z[:, active] = centered[:, active] / scale[active]
    return LassoDesign(Z, mean, scale, np.flatnonzero(active))


def fit_lasso(data: Dataset, residual: np.ndarray, lambda_f: float) -> FunctionClassMember:
    """Minimize (1/n)||r - a - Xb||^2 + lambda_f * ||b||_1 (standardized scale).

    The standardized features are built once per dataset object (see
    ``Dataset.derived``); the intercept is unpenalized.  Coordinate
    updates are the soft threshold b_j <- S(<z_j, rho>/n, lambda_f/2)
    since columns have unit empirical norm.  Stops when the largest
    coefficient change in a sweep drops below ``TOL``; a run that exhausts
    ``MAX_SWEEPS`` is returned with ``converged=False``.
    """
    if not 0.0 <= lambda_f < math.inf:      # NaN fails this too
        raise ValueError("lambda_f must be non-negative")
    residual = data.residual(residual)
    design = data.derived("lasso_design", lambda: lasso_design(data.X))
    n = data.n
    Z, scale, idx = design.Z, design.scale, design.active
    r_mean = residual.mean()
    rc = residual - r_mean

    beta = np.zeros(data.p)
    work = rc.copy()  # current partial residual rc - Z @ beta
    half = lambda_f / 2.0
    converged = False
    for _ in range(MAX_SWEEPS):
        biggest = 0.0
        for j in idx:
            zj = Z[:, j]
            rho = (work @ zj) / n + beta[j]   # <z_j, rc - sum_{k!=j} z_k b_k>/n
            new = math.copysign(max(abs(rho) - half, 0.0), rho)
            if new != beta[j]:
                work += zj * (beta[j] - new)
                biggest = max(biggest, abs(new - beta[j]))
                beta[j] = new
        if biggest < TOL:
            converged = True
            break

    # back to the original feature scale
    beta_orig = np.zeros(data.p)
    beta_orig[idx] = beta[idx] / scale[idx]
    intercept = float(r_mean - design.mean @ beta_orig)
    penalty = lambda_f * float(np.abs(beta).sum())
    model = LinearModel(beta_orig, intercept, converged=converged)
    return FunctionClassMember(model, penalty, model.predict(data.X))


class LassoFitter(FunctionClassFitter):
    """Lasso at a fixed ``lambda_f``."""

    def __init__(self, lambda_f: float):
        self.lambda_f = lambda_f

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        return fit_lasso(data, residual, self.lambda_f)
