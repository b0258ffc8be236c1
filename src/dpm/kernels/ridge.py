"""Kernel ridge regression with the closed-form dual update and GCV."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core import Dataset, FunctionClassFitter, FunctionClassMember
from ..numerics import cholesky_solve
from .matern import MaternSpec, matern_gram
from .projection import ProjectedKernel

__all__ = ["KernelRidgeModel", "KernelRidgeFitter", "RidgeSystem", "kernel_ridge_fit",
           "gcv_select_lambda", "rkhs_norm_sq"]

KernelLike = Union[MaternSpec, ProjectedKernel]


def kernel_block(kernel: KernelLike, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    if isinstance(kernel, ProjectedKernel):
        return kernel.gram(A, B)
    if isinstance(kernel, MaternSpec):
        return matern_gram(kernel, A, B)
    raise TypeError(f"unsupported kernel type {type(kernel).__name__}")


@dataclass(frozen=True)
class KernelRidgeModel:
    """Dual-form ridge fit: alpha = (K + n*lambda*I + jitter*I)^{-1} residual."""

    centers: np.ndarray          # training points on the unit cube
    alpha: np.ndarray
    lam: float
    kernel: KernelLike
    gram_matrix: np.ndarray
    jitter: float                # diagonal jitter the Cholesky solve needed; 0.0 if none

    def predict_unit(self, unit_points: np.ndarray) -> np.ndarray:
        return kernel_block(self.kernel, unit_points, self.centers) @ self.alpha


def rkhs_norm_sq(model: KernelRidgeModel) -> float:
    """Squared RKHS norm of the fitted function: alpha^T K alpha."""
    return float(model.alpha @ model.gram_matrix @ model.alpha)


@dataclass(frozen=True)
class RidgeSystem:
    """The ridge system K + n*lambda*I of one Gram matrix, factored once.

    ``inverse_factor`` is L^{-1} for the Cholesky factor L of
    K + (n*lambda + jitter)*I, from one ``cholesky_solve`` against the
    identity; ``jitter`` is the diagonal jitter that solve needed.  Each
    solve is then two matrix-vector products, L^{-T} (L^{-1} r).  The
    explicit inverse that call also returns is not kept: products with it
    lose accuracy on near-singular systems.
    """

    gram: np.ndarray
    lam: float
    jitter: float
    inverse_factor: np.ndarray

    @classmethod
    def factor(cls, gram: np.ndarray, lam: float) -> "RidgeSystem":
        n = gram.shape[0]
        solved = cholesky_solve(gram + n * lam * np.eye(n), np.eye(n))
        return cls(gram, lam, solved.jitter_used, solved.inverse_factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.inverse_factor.T @ (self.inverse_factor @ rhs)


def kernel_ridge_fit(kernel: KernelLike, data: Dataset, residual: np.ndarray,
                     lam: float, system: RidgeSystem | None = None) -> FunctionClassMember:
    """Fit g by kernel ridge on a residual vector.

    alpha = (K + n*lambda*I)^{-1} r on the rescaled design; the penalty
    recorded on the member is lambda * alpha^T K alpha and its ``fitted``
    values are K alpha.  ``system`` is the factored system for K at
    ``data.unit_X`` and ``lam`` if the caller has it; otherwise K is built
    and factored here.  If the system only factors with added diagonal
    jitter, the model's ``jitter`` says how much.
    """
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    residual = np.asarray(residual, dtype=float).ravel()
    if residual.size != data.n:
        raise ValueError("residual length must match dataset")
    if system is None:
        system = RidgeSystem.factor(kernel_block(kernel, data.unit_X), lam)
    elif system.lam != lam or system.gram.shape[0] != data.n:
        raise ValueError("system was factored for another lambda or dataset size")
    K = system.gram
    model = KernelRidgeModel(data.unit_X, system.solve(residual), lam, kernel, K,
                             system.jitter)

    def evaluator(points, _model=model, _to_unit=data.to_unit):
        return _model.predict_unit(_to_unit(points))

    penalty = lam * rkhs_norm_sq(model)
    return FunctionClassMember("kernel-expansion", evaluator, penalty, coefficients=model,
                               fitted=K @ model.alpha)


@dataclass(frozen=True)
class GcvPoint:
    lam: float
    n_lam: float
    score: float
    valid: bool


def gcv_select_lambda(kernel: KernelLike, data: Dataset, residual: np.ndarray,
                      gram: np.ndarray | None = None) -> tuple[float, list[GcvPoint]]:
    """Pick lambda on a fixed grid by generalized cross validation.

    GCV(lambda) = (1/n)||(I-A)r||^2 / ((1/n) tr(I-A))^2 with the smoother
    A = K (K + n*lambda*I)^{-1}.  Grid points where tr(I-A) <= 0 are
    flagged invalid and skipped.  The grid is 20 log-spaced values of
    n*lambda in [1e-6, 1e2].  ``gram`` is K at ``data.unit_X`` if the
    caller has it.
    """
    residual = np.asarray(residual, dtype=float).ravel()
    n = data.n
    grid = np.logspace(-6.0, 2.0, 20) / n
    K = kernel_block(kernel, data.unit_X) if gram is None else gram
    curve: list[GcvPoint] = []
    best_lam, best_score = None, np.inf
    eye = np.eye(n)
    for lam in grid:
        n_lam = n * lam
        inv = cholesky_solve(K + n_lam * eye, eye).solution
        resid_vec = n_lam * (inv @ residual)
        tr = n_lam * float(np.trace(inv))
        if tr <= 0.0:
            curve.append(GcvPoint(float(lam), float(n_lam), float("nan"), False))
            continue
        score = float(np.mean(resid_vec ** 2)) / ((tr / n) ** 2)
        curve.append(GcvPoint(float(lam), float(n_lam), score, True))
        if score < best_score:
            best_score, best_lam = score, float(lam)
    if best_lam is None:
        raise ValueError("no valid grid point for GCV")
    return best_lam, curve


class KernelRidgeFitter(FunctionClassFitter):
    """Flexible class: kernel ridge with fixed or GCV-selected lambda.

    With ``lam=None`` the penalty is chosen by GCV on the first residual
    this fitter sees and frozen for later calls, matching the protocol of
    selecting lambda once at the start of the alternation.  The Gram
    matrix of the last dataset and its factored ridge system at the frozen
    lambda are kept, so an alternation builds and factors each once.
    """

    def __init__(self, kernel: KernelLike, lam: Optional[float] = None):
        self.kernel = kernel
        self.lam = lam
        self.gcv_curve: Optional[list[GcvPoint]] = None
        self._gram_cache: tuple[Optional[Dataset], Optional[np.ndarray]] = (None, None)
        self._system_cache: tuple[Optional[Dataset], Optional[RidgeSystem]] = (None, None)

    def _gram_for(self, data: Dataset) -> np.ndarray:
        cached_data, cached_K = self._gram_cache
        if cached_data is data:
            return cached_K
        K = kernel_block(self.kernel, data.unit_X)
        self._gram_cache = (data, K)
        return K

    def _system_for(self, data: Dataset) -> RidgeSystem:
        cached_data, system = self._system_cache
        if cached_data is data and system.lam == self.lam:
            return system
        system = RidgeSystem.factor(self._gram_for(data), self.lam)
        self._system_cache = (data, system)
        return system

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        if self.lam is None:
            self.lam, self.gcv_curve = gcv_select_lambda(
                self.kernel, data, residual, gram=self._gram_for(data))
        return kernel_ridge_fit(self.kernel, data, residual, self.lam,
                                system=self._system_for(data))
