"""Space-filling designs on the unit cube."""

from __future__ import annotations

import numpy as np

__all__ = ["maximin_lhs"]


def _min_pairwise(design: np.ndarray) -> float:
    d = np.sqrt(((design[:, None] - design[None, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    return d.min()


def maximin_lhs(n: int, p: int, rng: np.random.Generator,
                restarts: int = 2, swaps: int = 150) -> np.ndarray:
    """Maximin Latin hypercube design: n points in [0,1]^p.

    Each of `restarts` random LHS candidates is improved by `swaps`
    proposed within-column pair swaps (accepted when the minimum pairwise
    distance increases); the best candidate overall is returned.  Every
    column of the result hits each of the n equal bins exactly once.
    """
    if n < 2:
        raise ValueError(f"need at least two points, got n={n}")
    if p < 1:
        raise ValueError(f"dimension must be at least 1, got p={p}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    best, best_score = None, -1.0
    for _ in range(restarts):
        design = (np.argsort(rng.random((p, n)), axis=1).T + rng.random((n, p))) / n
        current = _min_pairwise(design)
        for _ in range(swaps):
            j = rng.integers(p)
            a, b = rng.integers(n, size=2)
            candidate = design.copy()
            candidate[[a, b], j] = candidate[[b, a], j]
            score = _min_pairwise(candidate)
            if score > current:
                design, current = candidate, score
        if current > best_score:
            best_score, best = current, design
    return best
