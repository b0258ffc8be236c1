"""Linear and finite-basis least squares with optional norm-ball projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core import Dataset, FunctionClassFitter, FunctionClassMember
from ..numerics import tensor_or_qmc_rule, truncated_svd


@dataclass(frozen=True, eq=False)    # compared by identity: beta is an array
class LinearModel:
    beta: np.ndarray
    intercept: float
    converged: bool = True

    def predict(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        return pts @ self.beta + self.intercept


def _basis_columns(basis: Sequence[Callable], points: np.ndarray) -> np.ndarray:
    """Each basis function at ``points``, one column each.

    A basis function sees an (m, p) array, or a 1-D array when p = 1:
    an (m, 1) array is passed as its only column.
    """
    pts = np.asarray(points, dtype=float)
    arg = pts[:, 0] if pts.ndim == 2 and pts.shape[1] == 1 else pts
    return np.column_stack([np.asarray(phi(arg), dtype=float) for phi in basis])


@dataclass(frozen=True, eq=False)    # compared by identity: alpha is an array
class FiniteBasisModel:
    basis: tuple
    alpha: np.ndarray

    def predict(self, points: np.ndarray) -> np.ndarray:
        return _basis_columns(self.basis, points) @ self.alpha


def least_squares_matrix(design: np.ndarray) -> np.ndarray:
    """The (cols x n) matrix S with ``S @ rhs`` the minimum-norm least-squares solution.

    S is the pseudo-inverse V_r diag(1/s_r) U_r^T of the rank-r part that
    ``truncated_svd`` keeps, for full-rank and rank-deficient designs
    alike (Golub & Van Loan, Matrix Computations, 4th ed., section 5.5).
    """
    U, s, Vt = truncated_svd(design)
    return (Vt.T / s) @ U.T


def fit_linear_ols(data: Dataset, residual: np.ndarray, norm_bound: float = math.inf,
                   ridge_gamma: float = 0.0) -> FunctionClassMember:
    """Least-squares linear fit of a residual vector.

    Solves ``argmin ||r - Xb - a||_n^2`` as S r, the minimum-norm solution
    when [X, 1] is rank-deficient, with S from ``least_squares_matrix``
    built once per dataset object (see ``Dataset.derived``).  When
    ``ridge_gamma`` > 0 the objective gains ``(gamma/2)||f||_n^2``, which
    shrinks the OLS solution by 2/(2+gamma).  If the joint coefficient
    norm exceeds ``norm_bound`` the vector is rescaled onto the ball.
    Returns a FunctionClassMember carrying a LinearModel.
    """
    residual = np.asarray(residual, dtype=float).ravel()
    if residual.size != data.n:
        raise ValueError("residual length must match dataset")
    coef = data.derived("ls_solve", lambda: least_squares_matrix(
        np.hstack([data.X, np.ones((data.n, 1))]))) @ residual
    if ridge_gamma > 0.0:
        coef = coef * (2.0 / (2.0 + ridge_gamma))
    norm = float(np.sqrt(coef @ coef))
    if norm > norm_bound:
        coef = coef * (norm_bound / norm)
    model = LinearModel(coef[:data.p], float(coef[data.p]))
    fitted = model.predict(data.X)
    penalty = (ridge_gamma / 2.0) * float(fitted @ fitted) / data.n if ridge_gamma > 0.0 else 0.0
    return FunctionClassMember(model, penalty, fitted)


def fit_finite_basis(basis: Sequence[Callable], data: Dataset, residual: np.ndarray,
                     l2_bound: float = math.inf) -> FunctionClassMember:
    """Least squares over span{phi_1..phi_k} with optional L2-ball projection.

    The L2 norm of the fitted function is estimated by quadrature over the
    (rescaled) domain; if it exceeds ``l2_bound`` the coefficients are
    rescaled onto the ball.
    """
    residual = np.asarray(residual, dtype=float).ravel()
    alpha = least_squares_matrix(_basis_columns(basis, data.X)) @ residual
    if math.isfinite(l2_bound):
        rule = tensor_or_qmc_rule(data.p, 64 if data.p == 1 else 1024)
        vals = _basis_columns(basis, data.lo + rule.points * (data.hi - data.lo)) @ alpha
        norm = math.sqrt(max(rule.integrate(vals * vals), 0.0))
        if norm > l2_bound:
            alpha = alpha * (l2_bound / norm)
    model = FiniteBasisModel(tuple(basis), alpha)
    return FunctionClassMember(model, 0.0, model.predict(data.X))


class LinearFitter(FunctionClassFitter):
    """Interpretable class: linear (optionally ridge-penalized) fits."""

    def __init__(self, norm_bound: float = math.inf, ridge_gamma: float = 0.0):
        self.norm_bound = norm_bound
        self.ridge_gamma = ridge_gamma

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        return fit_linear_ols(data, residual, self.norm_bound, self.ridge_gamma)


class FiniteBasisFitter(FunctionClassFitter):
    def __init__(self, basis: Sequence[Callable], l2_bound: float = math.inf):
        self.basis = tuple(basis)
        self.l2_bound = l2_bound

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        return fit_finite_basis(self.basis, data, residual, self.l2_bound)
