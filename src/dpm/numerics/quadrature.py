"""Quadrature rules on the unit cube: Gauss-Legendre, tensor grids, Halton.

All rules integrate against the uniform measure on [0,1]^p, so weights
sum to one.  Low dimensions get tensor Gauss-Legendre; higher dimensions
fall back to equal-weight Halton points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_legendre_01", "halton", "tensor_or_qmc_rule"]

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass(frozen=True, eq=False)    # compared by identity: its fields are arrays
class QuadratureRule:
    """Points in [0,1]^p with positive weights summing to one.

    Attributes
    ----------
    points : ndarray, shape (n, p)
        Quadrature nodes inside the unit cube.
    weights : ndarray, shape (n,)
        Positive weights normalized to the uniform probability measure.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (n, p)")
        wts = np.asarray(self.weights, dtype=float)
        if wts.shape != (pts.shape[0],):
            raise ValueError("weights must have one entry per point")
        if np.any(wts <= 0.0):
            raise ValueError("weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {wts.sum()!r}")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("points must lie in [0,1]^p")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of per-point function values."""
        return float(np.asarray(values, dtype=float) @ self.weights)


def gauss_legendre_01(n: int) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [0,1].

    Exact for polynomials of degree <= 2n-1 under the uniform measure.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.

    Returns
    -------
    QuadratureRule
        1-D rule with points of shape (n, 1).
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    x, w = np.polynomial.legendre.leggauss(int(n))
    return QuadratureRule(((x + 1.0) / 2.0)[:, None], w / 2.0)


def halton(index: int | np.ndarray, dims: int) -> np.ndarray:
    """Points of the Halton sequence (radical inverse per coordinate).

    Coordinate j uses the j-th prime as base.  Output depends only on
    (index, dims); there is no internal state.

    Parameters
    ----------
    index : int or array of int
        Position in the sequence, starting at 1.  An array of positions
        gives one point per entry, each equal to the scalar call's point.
    dims : int
        Number of coordinates, at most 20.

    Returns
    -------
    ndarray, shape index.shape + (dims,)
    """
    idx = np.asarray(index, dtype=np.int64)
    if np.any(idx < 1):
        raise ValueError(f"index starts at 1, got {index}")
    if not 1 <= dims <= len(_PRIMES):
        raise ValueError(f"dims must be in [1, {len(_PRIMES)}], got {dims}")
    # one digit of every coordinate per step; a coordinate whose digits ran
    # out adds exact zeros, so each entry is the sum its own digit loop makes
    bases = np.array(_PRIMES[:dims])
    frac = np.ones(dims)
    value = np.zeros(idx.shape + (dims,))
    i = np.broadcast_to(idx[..., None], value.shape)
    while i.any():
        frac /= bases
        i, digit = np.divmod(i, bases)
        value += frac * digit
    return value


def tensor_or_qmc_rule(p: int, budget: int) -> QuadratureRule:
    """Integration rule on [0,1]^p within a point budget.

    For p <= 2 a tensor Gauss-Legendre grid (side length floor(sqrt(budget))
    when p = 2), otherwise the first `budget` Halton points with equal
    weights.

    Parameters
    ----------
    p : int
        Dimension, at least 1.
    budget : int
        Target number of points; the Halton branch uses exactly this many.

    Returns
    -------
    QuadratureRule
    """
    if p < 1:
        raise ValueError(f"dimension must be at least 1, got {p}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if p == 1:
        return gauss_legendre_01(budget)
    if p == 2:
        side = max(1, math.isqrt(budget))
        rule = gauss_legendre_01(side)
        x = rule.points[:, 0]
        w = rule.weights
        pts = np.column_stack([np.repeat(x, side), np.tile(x, side)])
        wts = np.repeat(w, side) * np.tile(w, side)
        return QuadratureRule(pts, wts)
    pts = halton(np.arange(1, budget + 1), p)
    return QuadratureRule(pts, np.full(budget, 1.0 / budget))
