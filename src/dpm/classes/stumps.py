"""Gradient-boosted depth-1 regression stumps with L2 leaf shrinkage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Dataset, FunctionClassFitter, FunctionClassMember

MAX_ROUNDS = 10
LEARNING_RATE = 0.3


@dataclass(frozen=True)
class Stump:
    feature: int
    threshold: float
    left_value: float   # x[feature] <= threshold
    right_value: float


@dataclass(frozen=True)
class StumpEnsemble:
    rounds: tuple[Stump, ...]

    def predict(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(points.shape[0])
        for st in self.rounds:
            go_left = points[:, st.feature] <= st.threshold
            out += np.where(go_left, st.left_value, st.right_value)
        return out


@dataclass(frozen=True, eq=False)    # compared by identity: its fields include arrays
class SplitTable:
    """What every boosting round on one design matrix shares.

    ``order`` and ``xs`` are each feature's stable sort order and sorted
    values, one contiguous row per feature; ``invalid`` marks the cuts
    between equal sorted values (``None`` when there are none), and
    ``has_cut`` says whether any cut is valid.  ``den_l`` and ``den_r`` are
    n_L + n*lambda_g and n_R + n*lambda_g for the cut after each sorted
    row, and ``XT`` is a contiguous copy of X transposed.
    """

    order: np.ndarray
    xs: np.ndarray
    invalid: Optional[np.ndarray]
    has_cut: bool
    den_l: np.ndarray
    den_r: np.ndarray
    XT: np.ndarray


def split_table(X: np.ndarray, lambda_g: float) -> SplitTable:
    """Sort the columns of X once for every boosting fit at ``lambda_g``."""
    if not 0.0 <= lambda_g < math.inf:      # NaN fails this too
        raise ValueError("lambda_g must be non-negative and finite")
    XT = np.ascontiguousarray(X.T)
    n = XT.shape[1]
    order = np.argsort(XT, axis=1, kind="stable")
    xs = np.take_along_axis(XT, order, axis=1)
    valid = xs[:, :-1] < xs[:, 1:]  # a cut lies between distinct values
    n_left = np.arange(1.0, n)
    n_lambda = n * lambda_g
    return SplitTable(order, xs, None if valid.all() else ~valid, bool(valid.any()),
                      n_left + n_lambda, (n - n_left) + n_lambda, XT)


def _best_stump(table: SplitTable, resid: np.ndarray):
    # maximize sum_L^2/(n_L + n*lambda) + sum_R^2/(n_R + n*lambda) over every
    # valid (feature, cut); the first maximum in (feature, cut) order wins
    csum = resid.take(table.order)
    np.add.accumulate(csum, axis=1, out=csum)  # cumsum without its call overhead
    sl = csum[:, :-1]
    sr = csum[:, -1:] - sl
    gain = np.square(sl)
    gain /= table.den_l
    np.square(sr, out=sr)
    sr /= table.den_r
    gain += sr
    if table.invalid is not None:
        gain[table.invalid] = -np.inf
    j, i = divmod(int(gain.argmax()), gain.shape[1])
    left = csum[j, i]
    return (j, float(0.5 * (table.xs[j, i] + table.xs[j, i + 1])),
            float(left / table.den_l[i]), float((csum[j, -1] - left) / table.den_r[i]))


def fit_boosted_stumps(data: Dataset, residual: np.ndarray,
                       lambda_g: float) -> FunctionClassMember:
    """Greedy boosted stumps on a residual vector.

    The split table is built once per dataset object and ``lambda_g`` (see
    ``Dataset.derived``).  Each of ``MAX_ROUNDS`` rounds fits the
    least-squares stump with shrunk leaves ``sum(resid in leaf) / (count +
    n*lambda_g)``, scaled by ``LEARNING_RATE``, and updates the residual.
    Penalty value is lambda_g times the sum of squared (stored, rate-scaled)
    leaf values.  If no feature has a cut (every feature constant, or a
    single row) the ensemble falls back to shrunk-mean single leaves.
    """
    resid = data.residual(residual).copy()
    table = data.derived(("split_table", lambda_g), lambda: split_table(data.X, lambda_g))
    n_lambda = data.n * lambda_g
    stumps = []
    fitted = np.zeros(data.n)  # summed in round order, as StumpEnsemble.predict does
    for _ in range(MAX_ROUNDS):
        if table.has_cut:
            j, thr, left, right = _best_stump(table, resid)
            st = Stump(j, thr, LEARNING_RATE * left, LEARNING_RATE * right)
        else:
            value = LEARNING_RATE * float(resid.sum() / (data.n + n_lambda))
            st = Stump(0, np.inf, value, value)
        pred = np.where(table.XT[st.feature] <= st.threshold, st.left_value, st.right_value)
        resid -= pred
        fitted += pred
        stumps.append(st)
    ensemble = StumpEnsemble(tuple(stumps))
    penalty = lambda_g * float(sum(s.left_value ** 2 + s.right_value ** 2 for s in stumps))
    return FunctionClassMember(ensemble, penalty, fitted)


class StumpFitter(FunctionClassFitter):
    """Boosted stumps at a fixed ``lambda_g``."""

    def __init__(self, lambda_g: float):
        self.lambda_g = lambda_g

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        return fit_boosted_stumps(data, residual, self.lambda_g)
