"""Projected kernels: the RKHS orthogonal complement of the affine span.

For a base kernel Psi, a basis (e_k) of the affine functions on [0,1]^p,
and a quadrature rule with points s_i and weights w_i, the projected
kernel is

    Psi_F(x, y) = Psi(x, y) - sum_k e_k(x) m_k(y) - sum_k e_k(y) m_k(x)
                  + sum_{k,l} e_k(x) e_l(y) M_{kl},

with moments m_k(y) = int Psi(s, y) e_k(s) ds and
M_{kl} = int int Psi(s, t) e_k(s) e_l(t) ds dt evaluated under the rule.

The basis 1, sqrt(12) (x_j - 1/2) is orthonormalized under the rule's
discrete inner product before projecting: for the rank-revealing thin SVD
U s V^T of its weighted values sqrt(w_i) e(s_i), the basis combined by V / s
is rule-orthonormal (Golub & Van Loan, Matrix Computations, 4th ed., 5.5).
That makes the discrete orthogonality int Psi_F(., y) e_k identically zero
up to rounding for the same rule, which is the property downstream code
relies on.  The rule must span the affine functions: at least p + 1
points, not all on one hyperplane.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import as_points
from ..numerics import QuadratureRule, truncated_svd
from .matern import MaternSpec, matern_gram

__all__ = ["ProjectedKernel"]


def _affine_columns(points: np.ndarray) -> np.ndarray:
    """Columns 1 and sqrt(12) (x_j - 1/2), j = 1..p, at (m, p) points."""
    # orthonormal under the uniform measure, so the SVD below is well conditioned
    return np.column_stack([np.ones(points.shape[0]), math.sqrt(12.0) * (points - 0.5)])


class ProjectedKernel:
    """Matern kernel projected orthogonally to the affine functions.

    Heavy quadrature-grid quantities (kernel values on the rule's points,
    weighted basis, moment matrix M) are computed once at construction and
    cached; per-call work is one base Gram block plus rank-(p+1) updates.
    The base Gram block and the moments at the rule's own points are among
    the cached quantities, and a cross block against the rule's points
    takes the other side's moments from its own base block.
    """

    def __init__(self, base: MaternSpec, quadrature: QuadratureRule):
        if quadrature.dim != base.p:
            raise ValueError(f"quadrature dimension {quadrature.dim} != kernel dimension {base.p}")
        self.base = base
        self.quadrature = quadrature

        sq = quadrature.points
        wq = quadrature.weights
        raw = _affine_columns(sq)                          # (m, p+1) at rule points
        _, s, Vt = truncated_svd(np.sqrt(wq)[:, None] * raw)
        if s.size < raw.shape[1]:
            raise ValueError(
                f"a quadrature rule of {sq.shape[0]} points in dimension {base.p} does not "
                f"span the affine functions: it needs {base.p + 1} points not on one hyperplane")
        self._transform = Vt.T / s                    # columns of raw @ T are rule-orthonormal
        self._rule_points = sq
        self._weighted_basis = wq[:, None] * (raw @ self._transform)   # (m, d)
        psi_qq = matern_gram(base, sq)
        self._rule_gram = psi_qq
        self._rule_moments = psi_qq @ self._weighted_basis                  # (m, d)
        self._moment_matrix = self._weighted_basis.T @ psi_qq @ self._weighted_basis

    def _basis_at(self, points: np.ndarray) -> np.ndarray:
        return _affine_columns(points) @ self._transform

    def _moments_at(self, points: np.ndarray) -> np.ndarray:
        # m_k(y) = int Psi(s, y) e_k(s) ds under the attached rule
        if np.array_equal(points, self._rule_points):
            return self._rule_moments
        return matern_gram(self.base, points, self._rule_points) @ self._weighted_basis

    def gram(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Projected-kernel block between two point sets on [0,1]^p.

        A block of a point set with itself (``B`` omitted or equal to ``A``)
        is returned exactly symmetric: the rank-(p+1) updates cancel most of
        a nearly flat kernel, and their rounding would otherwise leave an
        asymmetry that a Cholesky factorization rejects.
        """
        A = as_points(A)
        square = B is None
        B = A if square else as_points(B)
        square = square or np.array_equal(A, B)
        if square and np.array_equal(A, self._rule_points):
            psi = self._rule_gram
        else:
            psi = matern_gram(self.base, A, None if square else B)
        ea = self._basis_at(A)
        eb = ea if square else self._basis_at(B)
        if not square and np.array_equal(B, self._rule_points):
            ma = psi @ self._weighted_basis        # psi is A's block against the rule
        else:
            ma = self._moments_at(A)
        mb = ma if square else self._moments_at(B)
        K = psi - ea @ mb.T - ma @ eb.T + ea @ self._moment_matrix @ eb.T
        return 0.5 * (K + K.T) if square else K

    def orthogonality_residual(self, y: np.ndarray) -> float:
        """max_k |int Psi_F(., y) e_k| under the attached rule (points as in ``gram``)."""
        vals = self.gram(y, self._rule_points)             # (len(y), m)
        return float(np.max(np.abs(vals @ self._weighted_basis)))
