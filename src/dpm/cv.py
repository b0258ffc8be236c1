"""Repeated K-fold cross-validation of double-penalty fits.

Predictions are strictly out-of-fold: each observation's value comes
from models trained on folds that exclude it, then gets averaged over
repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classes import LassoFitter, LinearFitter, StumpFitter
from .core import Dataset, FunctionClassFitter
from .fitter import fit_double_penalty
from .kernels import KernelRidgeFitter, MaternSpec

INTERP_CHOICES = ("linear", "lasso")
FLEX_CHOICES = ("kernel", "stumps")


@dataclass(frozen=True)
class CvConfig:
    folds: int = 5
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class LearnerPair:
    """Which interpretable / flexible class the sweep fits.

    ``lambda_f`` maps to the lasso penalty for "lasso" and to the ridge
    curvature for "linear"; ``lambda_g`` is the ridge penalty for
    "kernel" and the leaf shrinkage for "stumps".  For "kernel",
    ``lambda_g=None`` picks the ridge penalty by GCV.
    """

    interp: str = "lasso"
    flex: str = "stumps"

    def __post_init__(self):
        if self.interp not in INTERP_CHOICES:
            raise ValueError(f"interp must be one of {INTERP_CHOICES}")
        if self.flex not in FLEX_CHOICES:
            raise ValueError(f"flex must be one of {FLEX_CHOICES}")

    def fitters(self, data: Dataset, lambda_f: float,
                lambda_g: Optional[float]) -> tuple[FunctionClassFitter, FunctionClassFitter]:
        if lambda_g is None and self.flex != "kernel":
            raise ValueError("lambda_g=None (GCV) needs the kernel class")
        lambda_g_ok = lambda_g is None or 0 < lambda_g < math.inf
        if not (0 <= lambda_f < math.inf and lambda_g_ok):
            raise ValueError("lambda_f must be finite and >= 0, lambda_g positive and finite")
        if self.interp == "linear":
            fitter_f = LinearFitter(ridge_gamma=lambda_f)
        else:
            fitter_f = LassoFitter(lambda_f)
        if self.flex == "stumps":
            fitter_g = StumpFitter(lambda_g)
        else:
            spec = MaternSpec(nu=3.5 + data.p / 2.0, p=data.p, phi=1.0)
            fitter_g = KernelRidgeFitter(spec, lam=lambda_g)
        return fitter_f, fitter_g


class CvCellError(RuntimeError):
    """A sweep cell failed: a fold fit raised (the message names the repeat
    and fold), or an out-of-fold prediction was constant."""


def fold_indices(n: int, cv: CvConfig) -> list[list[np.ndarray]]:
    """Per-repeat uniform random partitions into ``cv.folds`` test folds."""
    if n < cv.folds:
        raise ValueError(f"n={n} is smaller than folds={cv.folds}")
    rng = np.random.default_rng(cv.seed)
    out = []
    for _ in range(cv.repeats):
        perm = rng.permutation(n)
        out.append(np.array_split(perm, cv.folds))
    return out


def _training_folds(data: Dataset,
                    cv: CvConfig) -> list[list[tuple[Dataset, np.ndarray, np.ndarray]]]:
    """Per repeat, each fold's (training subset, test indices, held-out points)."""
    everything = np.arange(data.n)
    return [[(data.subset(np.setdiff1d(everything, test_idx)), test_idx, data.X[test_idx])
             for test_idx in folds]
            for folds in fold_indices(data.n, cv)]


def cross_validated_predictions(data: Dataset, pair: LearnerPair,
                                lambda_f: float, lambda_g: float,
                                cv: CvConfig) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold f and g predictions, averaged across repeats.

    Every call on the same dataset object and ``cv`` fits on the same
    training subsets and predicts at the same held-out points, so sweep
    cells share what fitters derive from them: a kernel g, for one, builds
    each fold's held-out block once (see ``CrossBlock``).
    """
    f_sum = np.zeros(data.n)
    g_sum = np.zeros(data.n)
    splits = data.derived(("folds", cv), lambda: _training_folds(data, cv))
    for repeat, folds in enumerate(splits):
        for fold, (train, test_idx, held_out) in enumerate(folds):
            fitter_f, fitter_g = pair.fitters(train, lambda_f, lambda_g)
            try:
                fit = fit_double_penalty(train, fitter_f, fitter_g)
            except Exception as exc:
                raise CvCellError(
                    f"fit failed at repeat {repeat}, fold {fold}: {exc}") from exc
            f_sum[test_idx] += fit.f_hat(held_out)
            g_sum[test_idx] += fit.g_hat(held_out)
    return f_sum / cv.repeats, g_sum / cv.repeats
