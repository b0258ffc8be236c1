"""Projected kernels: the RKHS orthogonal complement of a finite span.

For a base kernel Psi, a basis (e_k) of the interpretable span, and a
quadrature rule with points s_i and weights w_i, the projected kernel is

    Psi_F(x, y) = Psi(x, y) - sum_k e_k(x) m_k(y) - sum_k e_k(y) m_k(x)
                  + sum_{k,l} e_k(x) e_l(y) M_{kl},

with moments m_k(y) = int Psi(s, y) e_k(s) ds and
M_{kl} = int int Psi(s, t) e_k(s) e_l(t) ds dt evaluated under the rule.

The supplied basis is re-orthonormalized under the rule's discrete inner
product (Cholesky-based Gram-Schmidt) before projecting.  That leaves the
projected span unchanged but makes the discrete orthogonality
int Psi_F(., y) e_k identically zero up to rounding for the same rule,
which is the property downstream code relies on.
"""

from __future__ import annotations

import numpy as np

from ..numerics import QuadratureRule
from .matern import MaternSpec, OrthonormalBasis, matern_gram, orthonormal_linear_basis

__all__ = ["ProjectedKernel"]


class ProjectedKernel:
    """Matern kernel projected orthogonally to a finite-dimensional span.

    Heavy quadrature-grid quantities (kernel values on the rule's points,
    weighted basis, moment matrix M) are computed once at construction and
    cached; per-call work is one base Gram block plus rank-(p+1) updates.
    The base Gram block and the moments at the rule's own points are among
    the cached quantities, and a cross block against the rule's points, on
    either side, takes the other side's moments from its own base block.
    """

    def __init__(self, base: MaternSpec, quadrature: QuadratureRule,
                 basis: OrthonormalBasis | None = None):
        if quadrature.dim != base.p:
            raise ValueError(f"quadrature dimension {quadrature.dim} != kernel dimension {base.p}")
        self.base = base
        self.quadrature = quadrature
        self.basis = basis if basis is not None else orthonormal_linear_basis(base.p)

        sq = quadrature.points
        wq = quadrature.weights
        raw = self.basis.evaluate(sq)                      # (m, d) raw basis at rule points
        gram = raw.T @ (wq[:, None] * raw)
        # Cholesky-based Gram-Schmidt: columns of raw @ T are rule-orthonormal
        L = np.linalg.cholesky(gram)
        self._transform = np.linalg.solve(L, np.eye(L.shape[0])).T
        self._rule_points = sq
        self._weighted_basis = wq[:, None] * (raw @ self._transform)   # (m, d)
        psi_qq = matern_gram(base, sq, sq)
        self._rule_gram = psi_qq
        self._rule_moments = psi_qq @ self._weighted_basis                  # (m, d)
        self._moment_matrix = self._weighted_basis.T @ psi_qq @ self._weighted_basis

    def _basis_at(self, points: np.ndarray) -> np.ndarray:
        return self.basis.evaluate(points) @ self._transform

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
        A = np.asarray(A, dtype=float)
        if A.ndim == 1:
            A = A[:, None]
        square = B is None
        B = A if square else np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        square = square or np.array_equal(A, B)
        if square and np.array_equal(A, self._rule_points):
            psi = self._rule_gram
        else:
            psi = matern_gram(self.base, A, B)
        ea = self._basis_at(A)
        eb = ea if square else self._basis_at(B)
        if not square and np.array_equal(B, self._rule_points):
            ma = psi @ self._weighted_basis        # psi is A's block against the rule
        else:
            ma = self._moments_at(A)
        if square:
            mb = ma
        elif ma is self._rule_moments:             # A is the rule: psi is its block against B
            mb = psi.T @ self._weighted_basis
        else:
            mb = self._moments_at(B)
        K = psi - ea @ mb.T - ma @ eb.T + ea @ self._moment_matrix @ eb.T
        return 0.5 * (K + K.T) if square else K

    def orthogonality_residual(self, y: np.ndarray) -> float:
        """max_k |int Psi_F(., y) e_k| under the attached rule."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        vals = self.gram(self._rule_points, y)             # (m, len(y))
        return float(np.max(np.abs(self._weighted_basis.T @ vals)))
