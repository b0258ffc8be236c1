"""Benchmark test functions for the simulation studies."""

from __future__ import annotations

import numpy as np


def gramacy1d(x: np.ndarray) -> np.ndarray:
    """sin(10 pi x) / (2x) + (x - 1)^4 on [0.5, 2.5]."""
    x = np.asarray(x, dtype=float)
    return np.sin(10.0 * np.pi * x) / (2.0 * x) + (x - 1.0) ** 4


def sun5d(X: np.ndarray) -> np.ndarray:
    """2/(||x-0.5||+1) + 0.5/(||x-0.7||+1) on [0,1]^5."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    d1 = np.sqrt(np.sum((X - 0.5) ** 2, axis=1))
    d2 = np.sqrt(np.sum((X - 0.7) ** 2, axis=1))
    return 2.0 / (d1 + 1.0) + 0.5 / (d2 + 1.0)


def sine_linear(theta: float, beta1: float, beta2: float, x: np.ndarray) -> np.ndarray:
    """beta1 * x + beta2 * sin(theta x) on [0,1]."""
    x = np.asarray(x, dtype=float)
    return beta1 * x + beta2 * np.sin(theta * x)
