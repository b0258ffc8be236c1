"""Separability diagnostics between two function classes.

The headline quantity is the largest cosine between the spans, that of
the smallest principal angle, under either the quadrature (L2) or the
empirical inner product; theta < 1 certifies identifiability of the
additive decomposition.  As in Bjorck & Golub (1973, Math. Comp. 27:579),
each span's weighted values sqrt(w) V go through one rank-revealing thin
SVD, with no Gram matrix and no jitter, and the cosines are the singular
values of Q_f^T Q_g for the orthonormal bases Q it gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureRule, truncated_svd


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


def _principal_angle(values_f: np.ndarray, values_g: np.ndarray,
                     method: str) -> SeparabilityReport:
    """Cosine of the smallest principal angle between the column spans.

    Each span's values V give Q = V T with orthonormal columns; the top
    singular pair (u, v) of Q_f^T Q_g gives the cosine, and T_f u and
    T_g v are the unit-norm pair of functions that attain it.
    """
    bases = []
    for side, values in (("f", values_f), ("g", values_g)):
        Q, s, Vt = truncated_svd(values)
        if not s.size:
            raise ValueError(f"the {side} span is zero at every point")
        bases.append((Q, Vt.T / s))
    (qf, tf), (qg, tg) = bases
    left, cosines, right = np.linalg.svd(qf.T @ qg)
    return SeparabilityReport(min(float(cosines[0]), 1.0), method,
                              (tf @ left[:, 0], tg @ right[0]))


def theta_l2_quadrature(basis_f: Sequence[Callable], basis_g: Sequence[Callable],
                        rule: QuadratureRule) -> SeparabilityReport:
    """Largest canonical correlation of two spans under a quadrature rule."""
    pts = rule.points if rule.dim > 1 else rule.points[:, 0]
    vf = np.column_stack([np.asarray(f(pts), dtype=float) for f in basis_f])
    vg = np.column_stack([np.asarray(g(pts), dtype=float) for g in basis_g])
    root_w = np.sqrt(rule.weights)[:, None]
    return _principal_angle(root_w * vf, root_w * vg, "l2-quadrature")


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
    root_w = 1.0 / math.sqrt(vf.shape[0])
    return _principal_angle(root_w * vf, root_w * vg, "empirical-canonical")
