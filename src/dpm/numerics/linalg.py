"""Small dense symmetric linear algebra with explicit jitter handling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CholeskySolveResult", "cholesky_solve"]


def _require_symmetric(A: np.ndarray, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    scale = np.max(np.abs(A)) if A.size else 0.0
    if np.max(np.abs(A - A.T)) > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{name} must be symmetric")
    return A


@dataclass(frozen=True, eq=False)    # compared by identity: its fields include arrays
class CholeskySolveResult:
    solution: np.ndarray
    jitter_used: float
    inverse_factor: np.ndarray = field(repr=False)   # L^{-1}, L L^T = A + jitter_used*I


def cholesky_solve(A: np.ndarray, B: np.ndarray) -> CholeskySolveResult:
    """Solve A X = B for symmetric positive definite A.

    If A does not factor, a diagonal jitter is added: first a
    scale-relative floor, then 10 and 100 times it.  The jitter actually
    used (0.0 if none) is reported alongside the solution.  Numpy has no
    triangular solve, so the factor L is inverted once and the solution is
    L^{-T} (L^{-1} B); the result keeps L^{-1} for further right-hand sides.
    B may have zero columns, (n, 0): the call then only factors A, and
    returns L^{-1} and the jitter with an empty solution.
    """
    A = _require_symmetric(A, "A")
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    floor = 1e-14 * max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    attempts = [0.0, floor]
    for _ in range(2):
        attempts.append(attempts[-1] * 10.0)
    eye = np.eye(n)
    last_error = None
    for j in attempts:
        M = A + j * eye if j > 0.0 else A
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            last_error = exc
            continue
        L_inv = np.linalg.solve(L, eye)
        return CholeskySolveResult(L_inv.T @ (L_inv @ B), j, L_inv)
    raise np.linalg.LinAlgError(
        f"matrix ({n}x{n}) not positive definite after jitter escalation "
        f"to {attempts[-1]:g}: {last_error}")
