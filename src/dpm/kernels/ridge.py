"""Kernel ridge regression with the closed-form dual update and GCV."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core import Dataset, FunctionClassFitter, FunctionClassMember, to_unit
from ..numerics import cholesky_solve
from .matern import MaternSpec
from .projection import ProjectedKernel

__all__ = ["KernelRidgeModel", "KernelRidgeFitter", "RidgeSystem", "kernel_ridge_fit",
           "gcv_select_lambda"]

KernelLike = Union[MaternSpec, ProjectedKernel]


@dataclass(frozen=True, eq=False)    # compared by identity: its fields include arrays
class KernelRidgeModel:
    """Dual-form ridge fit: alpha = (K + n*lambda*I + jitter*I)^{-1} residual."""

    centers: np.ndarray          # training points on the unit cube
    alpha: np.ndarray
    lam: float
    kernel: KernelLike
    jitter: float                # diagonal jitter the Cholesky solve needed; 0.0 if none
    lo: np.ndarray               # the training domain's box, which predict maps to the unit cube
    hi: np.ndarray

    def predict(self, points: np.ndarray) -> np.ndarray:
        return self.predict_unit(to_unit(points, self.lo, self.hi))

    def predict_unit(self, unit_points: np.ndarray) -> np.ndarray:
        return self.kernel.gram(unit_points, self.centers) @ self.alpha


@dataclass(frozen=True, eq=False)    # compared by identity: its fields include arrays
class RidgeSystem:
    """The ridge system K + n*lambda*I of one Gram matrix, factored once.

    ``inverse_factor`` is L^{-1} for the Cholesky factor L of
    K + (n*lambda + jitter)*I, from one ``cholesky_solve`` with no
    right-hand side; ``jitter`` is the diagonal jitter that solve needed.
    Each solve is then two matrix-vector products, L^{-T} (L^{-1} r).
    """

    gram: np.ndarray
    lam: float
    jitter: float
    inverse_factor: np.ndarray

    @classmethod
    def factor(cls, gram: np.ndarray, lam: float) -> "RidgeSystem":
        if not 0.0 < lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        n = gram.shape[0]
        solved = cholesky_solve(gram + n * lam * np.eye(n), np.empty((n, 0)))
        return cls(gram, lam, solved.jitter_used, solved.inverse_factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.inverse_factor.T @ (self.inverse_factor @ rhs)


def kernel_ridge_fit(kernel: KernelLike, data: Dataset, residual: np.ndarray,
                     system: RidgeSystem) -> FunctionClassMember:
    """Fit g by kernel ridge on a residual vector.

    ``system`` is K + n*lambda*I factored for K at ``data.unit_X``; lambda
    is read from it.  alpha = (K + n*lambda*I)^{-1} r on the rescaled
    design; the penalty recorded on the member is lambda * alpha^T K alpha
    and its ``fitted`` values are K alpha.  If the system only factored
    with added diagonal jitter, the model's ``jitter`` says how much.
    """
    model = KernelRidgeModel(data.unit_X, system.solve(data.residual(residual)), system.lam, kernel,
                             system.jitter, data.lo, data.hi)
    fitted = system.gram @ model.alpha
    # K is positive semidefinite: a negative alpha^T K alpha is rounding
    penalty = system.lam * max(float(model.alpha @ fitted), 0.0)
    return FunctionClassMember(model, penalty, fitted)


@dataclass(frozen=True)
class GcvPoint:
    lam: float
    n_lam: float
    score: float


def gcv_select_lambda(gram: np.ndarray, residual: np.ndarray) -> tuple[float, list[GcvPoint]]:
    """Pick lambda on a fixed grid by generalized cross validation.

    GCV(lambda) = (1/n)||(I-A)r||^2 / ((1/n) tr(I-A))^2 with the smoother
    A = K (K + n*lambda*I)^{-1}, scored at 20 log-spaced values of
    n*lambda in [1e-6, 1e2].  One eigendecomposition K = U diag(s) U^T
    gives I - A = U diag(n*lambda / (s + n*lambda)) U^T at every grid
    point (Golub, Heath & Wahba 1979).  K is positive semidefinite, so
    eigenvalues below 0 are rounding error and are clipped to 0; every
    weight then lies in (0, 1].  Ties go to the smaller lambda.
    """
    n = gram.shape[0]
    residual = np.asarray(residual, dtype=float).ravel()
    if residual.size != n:
        raise ValueError(f"residual has {residual.size} entries, the {n} x {n} Gram needs {n}")
    grid = np.logspace(-6.0, 2.0, 20) / n
    n_lam = n * grid
    s, U = np.linalg.eigh(gram)
    weights = n_lam[:, None] / (np.maximum(s, 0.0) + n_lam[:, None])
    z_sq = (U.T @ residual) ** 2
    scores = (weights ** 2 @ z_sq / n) / (weights.sum(axis=1) / n) ** 2
    curve = [GcvPoint(float(lam), float(nl), float(score))
             for lam, nl, score in zip(grid, n_lam, scores)]
    return float(grid[np.argmin(scores)]), curve


class KernelRidgeFitter(FunctionClassFitter):
    """Flexible class: kernel ridge with fixed or GCV-selected lambda.

    With ``lam=None`` the penalty is chosen by GCV on the first residual
    this fitter sees and frozen for later calls, matching the protocol of
    selecting lambda once at the start of the alternation.  The Gram
    matrix is built once per dataset object and kernel (see
    ``Dataset.derived``); the fitter keeps the ridge system it last
    factored and re-factors it when the Gram matrix or ``lam`` changes.
    So an alternation builds and factors each once.
    """

    def __init__(self, kernel: KernelLike, lam: Optional[float] = None):
        self.kernel = kernel
        self.lam = lam
        self.gcv_curve: Optional[list[GcvPoint]] = None
        self._system: Optional[RidgeSystem] = None

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        kernel = self.kernel
        gram = data.derived(("gram", kernel), lambda: kernel.gram(data.unit_X))
        if self.lam is None:
            self.lam, self.gcv_curve = gcv_select_lambda(gram, residual)
        system = self._system
        if system is None or system.gram is not gram or system.lam != self.lam:
            system = self._system = RidgeSystem.factor(gram, self.lam)
        return kernel_ridge_fit(kernel, data, residual, system)
