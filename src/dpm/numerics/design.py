"""Space-filling designs on the unit cube."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["maximin_lhs"]

_RESTARTS = 2     # random starting designs
_SWAPS = 150      # proposed swaps per start


def maximin_lhs(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Maximin Latin hypercube design: n points in [0,1]^p.

    Each of `_RESTARTS` random LHS candidates is improved by `_SWAPS`
    proposed within-column pair swaps (accepted when the minimum pairwise
    distance increases); the best candidate overall is returned.  Every
    column of the result hits each of the n equal bins exactly once.

    Each restart builds the squared distance matrix once, in O(n^2 p),
    and keeps the index pairs that attain its minimum (the closest
    pairs), rebuilt only when a swap is accepted.  A proposal swapping
    column j of rows a and b is rejected without scoring when a == b (the
    design is unchanged) or when some closest pair contains neither a nor
    b: that pair's distance is unchanged, so the candidate's minimum
    cannot exceed the current one (the exchange argument of Morris &
    Mitchell 1995).  The check is O(1) per closest pair, and most
    proposals end there.  The rest recompute only rows and columns a and
    b, in O(np + n^2) (the copy and the minimum).  Distances the swap
    leaves alone are never recomputed, new ones are summed as the full
    matrix sums them, and sqrt is monotone and correctly rounded, so the
    designs equal those of re-scoring every candidate in full.

    A restart's swaps are drawn in one call, `integers(0, high)` with high
    = (p, n, n) tiled `_SWAPS` times.  numpy draws a bounded-integer array
    element by element from the same stream, so the draws and the
    generator's state afterwards equal those of per-swap calls
    `integers(p)` and `integers(n, size=2)`; `tests/test_numerics.py`
    pins this.
    """
    if n < 2:
        raise ValueError(f"need at least two points, got n={n}")
    if p < 1:
        raise ValueError(f"dimension must be at least 1, got p={p}")
    best, best_score = None, -1.0
    for _ in range(_RESTARTS):
        design = (np.argsort(rng.random((p, n)), axis=1).T + rng.random((n, p))) / n
        d2 = ((design[:, None] - design[None, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        min_sq = d2.min()
        current = math.sqrt(min_sq)
        closest = np.argwhere(d2 == min_sq).tolist()
        proposals = rng.integers(0, np.tile((p, n, n), _SWAPS)).reshape(_SWAPS, 3)
        for j, a, b in proposals.tolist():
            if a == b or not all(a in pair or b in pair for pair in closest):
                continue
            candidate = design.copy()
            candidate[a, j], candidate[b, j] = design[b, j], design[a, j]
            row_a = ((candidate[a] - candidate) ** 2).sum(-1)
            row_b = ((candidate[b] - candidate) ** 2).sum(-1)
            row_a[a] = row_b[b] = np.inf
            cand_d2 = d2.copy()
            cand_d2[a] = cand_d2[:, a] = row_a
            cand_d2[b] = cand_d2[:, b] = row_b
            cand_sq = cand_d2.min()
            score = math.sqrt(cand_sq)
            if score > current:
                design, d2, current = candidate, cand_d2, score
                closest = np.argwhere(d2 == cand_sq).tolist()
        if current > best_score:
            best_score, best = current, design
    return best
