"""Gradient-boosted depth-1 regression stumps with L2 leaf shrinkage."""

from __future__ import annotations

from dataclasses import dataclass

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
    learning_rate: float
    lambda_g: float

    def predict(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        out = np.zeros(pts.shape[0])
        for st in self.rounds:
            go_left = pts[:, st.feature] <= st.threshold
            out += np.where(go_left, st.left_value, st.right_value)
        return out


def _presort(X: np.ndarray):
    # sort once per fit; every boosting round reuses the same order
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    return order, xs, xs[:-1] < xs[1:]  # a cut lies between distinct values


def _leaf_denominators(n: int, n_lambda: float):
    # n_L + n*lambda and n_R + n*lambda for the cut after each sorted row
    n_left = np.arange(1.0, n)[:, None]
    return n_left + n_lambda, (n - n_left) + n_lambda


def _best_stump(order, xs, valid, resid: np.ndarray, den_l, den_r):
    # maximize sum_L^2/(n_L + n*lambda) + sum_R^2/(n_R + n*lambda) over every
    # valid (cut, feature); the first maximum in (feature, cut) order wins
    csum = np.cumsum(resid[order], axis=0)
    sl = csum[:-1]
    sr = csum[-1] - sl
    gain = np.where(valid, sl ** 2 / den_l + sr ** 2 / den_r, -np.inf)
    j, i = divmod(int(np.argmax(gain.T)), gain.shape[0])
    return (j, float(0.5 * (xs[i, j] + xs[i + 1, j])),
            float(sl[i, j] / den_l[i, 0]), float(sr[i, j] / den_r[i, 0]))


def fit_boosted_stumps(data: Dataset, residual: np.ndarray, lambda_g: float) -> FunctionClassMember:
    """Greedy boosted stumps on a residual vector.

    Each of ``MAX_ROUNDS`` rounds fits the least-squares stump with shrunk
    leaves ``sum(resid in leaf) / (count + n*lambda_g)``, scaled by
    ``LEARNING_RATE``, and updates the residual.  Penalty value is lambda_g
    times the sum of squared (stored, rate-scaled) leaf values.  If no
    feature has a cut (every feature constant, or a single row) the
    ensemble falls back to shrunk-mean single leaves.
    """
    if lambda_g < 0.0:
        raise ValueError("lambda_g must be non-negative")
    resid = np.asarray(residual, dtype=float).ravel().copy()
    if resid.size != data.n:
        raise ValueError("residual length must match dataset")
    X = data.X
    n_lambda = data.n * lambda_g
    order, xs, valid = _presort(X)
    has_cut = valid.any()
    den_l, den_r = _leaf_denominators(data.n, n_lambda)
    stumps = []
    fitted = np.zeros(data.n)  # summed in round order, as StumpEnsemble.predict does
    for _ in range(MAX_ROUNDS):
        if has_cut:
            j, thr, left, right = _best_stump(order, xs, valid, resid, den_l, den_r)
            st = Stump(j, thr, LEARNING_RATE * left, LEARNING_RATE * right)
        else:
            value = LEARNING_RATE * float(resid.sum() / (data.n + n_lambda))
            st = Stump(0, np.inf, value, value)
        pred = np.where(X[:, st.feature] <= st.threshold, st.left_value, st.right_value)
        resid -= pred
        fitted += pred
        stumps.append(st)
    ensemble = StumpEnsemble(tuple(stumps), LEARNING_RATE, lambda_g)
    penalty = lambda_g * float(sum(s.left_value ** 2 + s.right_value ** 2 for s in stumps))
    return FunctionClassMember("stump-ensemble", ensemble.predict, penalty,
                               coefficients=ensemble, fitted=fitted)


class StumpFitter(FunctionClassFitter):
    def __init__(self, lambda_g: float):
        self.lambda_g = lambda_g

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        return fit_boosted_stumps(data, residual, self.lambda_g)
