"""Isotropic Matern kernels on the unit cube.

The kernel with Sobolev smoothness nu in dimension p is

    Psi(s, t) = z^mu K_mu(z) / (Gamma(mu) 2^(mu-1)),   z = 2 sqrt(mu) phi ||s-t||,

with mu = nu - p/2 > 0 and K_mu the modified Bessel function of the
second kind.  Psi(s, s) = 1 by the small-argument limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import as_points
from ..numerics import bessel_k

__all__ = ["MaternSpec", "matern_gram"]


# Largest mu = nu - p/2 accepted.  Where K_mu(z) overflows the kernel is set
# to its limit 1.  Against 40-digit mpmath on 2,000 log-spaced z in
# [1e-12, 50], up to mu = 40 that costs at most 2.0e-15 and the kernel stays
# within 3.0e-15, but the limit alone is off by 1.6e-14 at mu = 42.5 and
# 4.5e-10 at 60.5.
_MU_MAX = 40.0


@dataclass(frozen=True)
class MaternSpec:
    """Matern kernel parameters: smoothness nu > p/2, dimension p, range phi."""

    nu: float
    p: int
    phi: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("dimension p must be at least 1")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got nu={self.nu}")
        if not self.mu > 0.0:
            raise ValueError(f"need nu > p/2, got nu={self.nu}, p={self.p}")
        if not 0.0 < self.phi < math.inf:
            raise ValueError(f"phi must be positive and finite, got phi={self.phi}")
        if not self.mu <= _MU_MAX:
            raise ValueError(f"mu = nu - p/2 = {self.mu} is above {_MU_MAX:g}: past it, "
                             "setting the kernel to 1 where K_mu overflows costs accuracy")

    @property
    def mu(self) -> float:
        return self.nu - self.p / 2.0

    def gram(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between two point sets; see ``matern_gram``."""
        return matern_gram(self, A, B)


def _kernel_of_distance(spec: MaternSpec, z: np.ndarray) -> np.ndarray:
    """Kernel values at a float array of Euclidean distances, which it overwrites.

    Distances that are not positive (and NaN) give the limit value 1; the
    gather and scatter they need are skipped when every distance is positive.
    """
    mu = spec.mu
    z *= 2.0 * math.sqrt(mu) * spec.phi
    if z.size and z.min() > 0.0:
        return _scaled_kernel(mu, z)
    out = np.ones_like(z)
    pos = z > 0.0
    if np.any(pos):
        out[pos] = _scaled_kernel(mu, z[pos])
    return out


def _scaled_kernel(mu: float, z: np.ndarray) -> np.ndarray:
    """Overwrite positive z with z^mu K_mu(z) / (Gamma(mu) 2^(mu-1)) in [0, 1]."""
    k = bessel_k(mu, z)
    # K_mu is inf only where z^mu is below 1e-300 or so, where for mu <= 40
    # the kernel is 1 within 2e-15; z^mu * inf would be NaN once z^mu underflows
    overflowed = np.isinf(k) if np.max(k) == math.inf else None
    with np.errstate(over="ignore", invalid="ignore"):
        np.power(z, mu, out=z)
        np.multiply(z, k, out=z)
        np.divide(z, math.gamma(mu) * 2.0 ** (mu - 1.0), out=z)
    # fmax sends NaN, from inf * 0 where z^mu overflows at huge z, to the limit 0
    np.fmin(np.fmax(z, 0.0, out=z), 1.0, out=z)
    if overflowed is not None:
        z[overflowed] = 1.0
    return z


def _distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of A and of B, one coordinate at a time."""
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"point sets differ in dimension: {A.shape[1]} and {B.shape[1]}")
    sq = np.zeros((A.shape[0], B.shape[0]))
    diff = np.empty_like(sq)
    for a, b in zip(A.T, B.T):
        np.subtract.outer(a, b, out=diff)
        np.square(diff, out=diff)
        sq += diff
    return np.sqrt(sq, out=sq)


def matern_gram(spec: MaternSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between two point sets (rows are points).

    Squared distances are summed one coordinate at a time into the (m, k)
    result, so no (m, k, p) difference array is built.  The coordinates are
    added in order, which for p < 8 is bit for bit the order in which numpy
    sums a short last axis; from p = 8 numpy sums pairwise, and the two
    orders can differ in the last few bits of a distance.

    With ``B`` omitted, or ``B is A``, the block is symmetric: the kernel
    is evaluated below the diagonal alone and mirrored, and the
    diagonal is the limit 1.  Since (a - b)^2 = (b - a)^2 exactly, that is
    the full evaluation bit for bit, at half the Bessel arguments.
    """
    square = B is None or B is A
    A = as_points(A)
    if not square:
        return _kernel_of_distance(spec, _distances(A, as_points(B)))
    z = _distances(A, A)
    lower = np.tri(A.shape[0], k=-1, dtype=bool)     # cheaper than np.tril_indices
    values = _kernel_of_distance(spec, z[lower])
    K = np.ones_like(z)
    K[lower] = values
    K.T[lower] = values
    return K
