"""Separability diagnostics between two function classes.

The headline quantity is the largest cosine between the spans, i.e. the
top canonical correlation under either the quadrature (L2) or the
empirical inner product; theta < 1 certifies identifiability of the
additive decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureRule

GRAM_JITTER = 1e-12


def psi(theta: float) -> float:
    """Analytic separability of {beta * x} vs {beta * sin(theta x)} on [0,1].

    psi(theta) = 2 sqrt(3 theta) |sin(theta) - theta cos(theta)|
                 / (theta^2 sqrt(2 theta - sin(2 theta)))
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    num = 2.0 * math.sqrt(3.0 * theta) * abs(math.sin(theta) - theta * math.cos(theta))
    den = theta ** 2 * math.sqrt(2.0 * theta - math.sin(2.0 * theta))
    return num / den


@dataclass(frozen=True, eq=False)    # compared by identity: its certificate holds arrays
class SeparabilityReport:
    theta_estimate: float
    method: str
    certificate: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if not -1e-10 <= self.theta_estimate <= 1.0 + 1e-10:
            raise ValueError(f"theta estimate {self.theta_estimate} outside [0,1]")


def _canonical_correlation(gram_f: np.ndarray, gram_g: np.ndarray,
                           cross: np.ndarray, method: str) -> SeparabilityReport:
    d1, d2 = cross.shape
    gram_f = gram_f + GRAM_JITTER * np.eye(d1)
    gram_g = gram_g + GRAM_JITTER * np.eye(d2)
    try:
        lf = np.linalg.cholesky(gram_f)
        lg = np.linalg.cholesky(gram_g)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"degenerate Gram matrix in {method}: {exc}") from exc
    # whitened cross-Gram B = Lf^{-1} C Lg^{-T}; its top singular value is
    # the canonical correlation, and its singular vectors give the pair
    b = np.linalg.solve(lf, np.linalg.solve(lg, cross.T).T)
    left, values, right = np.linalg.svd(b)
    coef_f = np.linalg.solve(lf.T, left[:, 0])
    coef_g = np.linalg.solve(lg.T, right[0])
    nf = float(np.sqrt(coef_f @ gram_f @ coef_f))
    ng = float(np.sqrt(coef_g @ gram_g @ coef_g))
    if nf > 0.0:
        coef_f = coef_f / nf
    if ng > 0.0:
        coef_g = coef_g / ng
    return SeparabilityReport(min(float(values[0]), 1.0 + 1e-10), method, (coef_f, coef_g))


def theta_l2_quadrature(basis_f: Sequence[Callable], basis_g: Sequence[Callable],
                        rule: QuadratureRule) -> SeparabilityReport:
    """Largest canonical correlation of two spans under a quadrature rule."""
    pts = rule.points if rule.dim > 1 else rule.points[:, 0]
    vf = np.column_stack([np.asarray(f(pts), dtype=float) for f in basis_f])
    vg = np.column_stack([np.asarray(g(pts), dtype=float) for g in basis_g])
    w = rule.weights[:, None]
    return _canonical_correlation(vf.T @ (w * vf), vg.T @ (w * vg), vf.T @ (w * vg),
                                  "l2-quadrature")


def empirical_theta(values_f: np.ndarray, values_g: np.ndarray) -> SeparabilityReport:
    """Largest canonical correlation under the empirical inner product."""
    vf = np.asarray(values_f, dtype=float)
    vg = np.asarray(values_g, dtype=float)
    if vf.ndim == 1:
        vf = vf[:, None]
    if vg.ndim == 1:
        vg = vg[:, None]
    if vf.shape[0] != vg.shape[0]:
        raise ValueError("evaluation matrices must share the sample dimension")
    n = vf.shape[0]
    return _canonical_correlation(vf.T @ vf / n, vg.T @ vg / n, vf.T @ vg / n,
                                  "empirical-canonical")
