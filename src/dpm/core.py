"""Core data model: datasets, empirical geometry, fitting contracts."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def empirical_inner(a: np.ndarray, b: np.ndarray) -> float:
    """(1/n) sum a_i b_i."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"need equal-length vectors, got {a.shape} and {b.shape}")
    return float(a @ b) / a.size


def empirical_norm(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("need a non-empty vector")
    return float(np.sqrt((a @ a) / a.size))


def objective(data: "Dataset", f_vals: np.ndarray, g_vals: np.ndarray,
              lf_val: float, lg_val: float) -> float:
    """(1/n) sum (y_i - f_i - g_i)^2 + L_f + L_g."""
    resid = data.y - np.asarray(f_vals, float) - np.asarray(g_vals, float)
    if resid.shape != data.y.shape:
        raise ValueError("f and g values must match the dataset length")
    return empirical_inner(resid, resid) + lf_val + lg_val


def as_points(points: np.ndarray) -> np.ndarray:
    """Points as a float (m, p) array: a 1-D array or a scalar is one column (p = 1)."""
    points = np.asarray(points, dtype=float)
    return points.reshape(-1, 1) if points.ndim < 2 else points


def basis_columns(basis: Sequence[Callable], points: np.ndarray) -> np.ndarray:
    """Each basis function at ``as_points(points)``, or its column if p = 1: a float column each."""
    pts = as_points(points)
    arg = pts[:, 0] if pts.shape[1] == 1 else pts
    return np.column_stack([np.asarray(phi(arg), dtype=float) for phi in basis])


def to_unit(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Points of the box [lo, hi] (see ``as_points``) on the unit cube."""
    return (as_points(points) - lo) / (hi - lo)


class Dataset:
    """Design points in a rectangular domain plus responses.

    Kernels see the affine rescaling of the domain to the unit cube,
    `unit_X`; the other classes fit `X` in its own units.  `omega_bounds`
    defaults to [0,1]^p, in which case `unit_X` equals `X`; `lo` and `hi`
    hold its lower and upper corners as arrays.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray,
                 omega_bounds: Optional[Sequence[tuple[float, float]]] = None):
        X = as_points(X)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.size or y.size < 1:
            raise ValueError(f"inconsistent shapes: X {X.shape}, y {y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        p = X.shape[1]
        if omega_bounds is None:
            omega_bounds = [(0.0, 1.0)] * p
        bounds = [(float(lo), float(hi)) for lo, hi in omega_bounds]
        if len(bounds) != p or not all(-np.inf < lo < hi < np.inf for lo, hi in bounds):
            raise ValueError("omega_bounds needs one (lo, hi) pair per dimension, "
                             "finite with lo < hi")
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        tol = 1e-9 * np.maximum(hi - lo, 1.0)
        if np.any(X < lo - tol) or np.any(X > hi + tol):
            raise ValueError("design points fall outside omega_bounds")
        self.X = X
        self.y = y
        self.omega_bounds = tuple(bounds)
        self.lo, self.hi = lo, hi
        self._derived: dict = {}

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def unit_X(self) -> np.ndarray:
        """X on the unit cube, computed once and read-only."""
        def build():
            unit = to_unit(self.X, self.lo, self.hi)
            unit.flags.writeable = False
            return unit
        return self.derived("unit_X", build)

    def residual(self, values: np.ndarray) -> np.ndarray:
        """``values`` as the float vector of length n that every fitter reads."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size != self.n:
            raise ValueError("residual length must match dataset")
        return values

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.omega_bounds)

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once for this object and ``key``.

        What depends only on the data (a split table, a Gram matrix, the
        CV folds) is built once and shared by every fit on this object; a
        new object, even with equal values, builds its own.  Nothing is
        rebuilt, so X and y must not be changed in place.  A ``build``
        that raises stores nothing.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


@dataclass(frozen=True)
class FunctionClassMember:
    """A fitted function of one class, with its penalty value.

    `coefficients` is the class's fitted model; its `predict` maps points
    in the original domain, an (m, p) float array, to fitted values.
    Calling the member calls it on ``as_points(points)``.  `fitted` holds the
    member's values at the training points `data.X` of the fit that made
    it, and must equal `member(data.X)` exactly; the alternation reads it
    instead of re-evaluating the member.  It takes no part in comparisons.
    """

    coefficients: object
    penalty_value: float
    fitted: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if not self.penalty_value >= 0.0:
            raise ValueError("penalty_value must be non-negative")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.coefficients.predict(as_points(points))


class FunctionClassFitter(ABC):
    """Solve argmin over the class of ||r - h||_n^2 + L(h) for residual r.

    Implementations must never return a member whose penalized objective
    on the residual exceeds that of the zero function, and return the
    member's values at `data.X` as its `fitted`.
    """

    @abstractmethod
    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        ...


@dataclass(frozen=True)
class TraceRecord:
    """One Algorithm-1 iteration: objective, changes and penalties."""

    iteration: int
    objective: float
    delta_f: float
    delta_g: float
    penalty_f: float
    penalty_g: float


STOP_REASONS = ("max-iters", "change-tol")


@dataclass(frozen=True)
class AdditiveFit:
    f_hat: FunctionClassMember
    g_hat: FunctionClassMember
    trace: tuple[TraceRecord, ...] = field(default_factory=tuple)
    stop_reason: str = "max-iters"

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop_reason {self.stop_reason!r}")

    def predict(self, points: np.ndarray) -> np.ndarray:
        return self.f_hat(points) + self.g_hat(points)

    @property
    def iterations(self) -> int:
        return len(self.trace)

