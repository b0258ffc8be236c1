"""Space-filling designs on the unit cube."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["maximin_lhs"]


def maximin_lhs(n: int, p: int, rng: np.random.Generator,
                restarts: int = 2, swaps: int = 150) -> np.ndarray:
    """Maximin Latin hypercube design: n points in [0,1]^p.

    Each of `restarts` random LHS candidates is improved by `swaps`
    proposed within-column pair swaps (accepted when the minimum pairwise
    distance increases); the best candidate overall is returned.  Every
    column of the result hits each of the n equal bins exactly once.

    Scoring is incremental: each restart builds the squared distance
    matrix once, in O(n^2 p), and a proposal swapping rows a and b
    recomputes only their rows and columns, in O(np + n^2) (the copy and
    the minimum).  Distances the swap leaves alone are never recomputed,
    new ones are summed as the full matrix sums them, and sqrt is
    monotone and correctly rounded, so the designs equal those of
    re-scoring every candidate in full.
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
        d2 = ((design[:, None] - design[None, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        current = math.sqrt(d2.min())
        for _ in range(swaps):
            j = rng.integers(p)
            a, b = rng.integers(n, size=2)
            candidate = design.copy()
            candidate[a, j], candidate[b, j] = design[b, j], design[a, j]
            row_a = ((candidate[a] - candidate) ** 2).sum(-1)
            row_b = ((candidate[b] - candidate) ** 2).sum(-1)
            row_a[a] = row_b[b] = np.inf
            cand_d2 = d2.copy()
            cand_d2[a] = cand_d2[:, a] = row_a
            cand_d2[b] = cand_d2[:, b] = row_b
            score = math.sqrt(cand_d2.min())
            if score > current:
                design, d2, current = candidate, cand_d2, score
        if current > best_score:
            best_score, best = current, design
    return best
