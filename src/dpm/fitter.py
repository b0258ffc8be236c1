"""Algorithm 1: cyclic alternating penalized fits with tracing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    AdditiveFit,
    Dataset,
    FunctionClassFitter,
    FunctionClassMember,
    TraceRecord,
    empirical_norm,
    objective,
)


@dataclass(frozen=True)
class StoppingRule:
    """Stop on iteration cap or small iterate change.

    ``max_iters`` (at least 1) always caps the run.  ``change_tol``
    applies to ||f_m - f_{m-1}||_n + ||g_m - g_{m-1}||_n; 0 turns it off.
    """

    max_iters: int = 500
    change_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.change_tol >= 0.0:     # NaN fails this too
            raise ValueError(f"change_tol must be non-negative, got {self.change_tol}")


class FitterError(RuntimeError):
    """A class fitter failed mid-run; carries the partial trace."""

    def __init__(self, message: str, partial_trace: tuple[TraceRecord, ...]):
        super().__init__(message)
        self.partial_trace = partial_trace


def fit_double_penalty(data: Dataset, fitter_f: FunctionClassFitter,
                       fitter_g: FunctionClassFitter,
                       stop: StoppingRule = StoppingRule()) -> AdditiveFit:
    """Alternate penalized fits of f and g (Algorithm 1 of the method).

    Starts from f_0 = argmin ||y - f||_n^2 + L_f(f); iteration m fits
    g_m on y - f_{m-1} and then f_m on y - g_m.  The trace records the
    objective, change norms, and penalties per iteration; wrap a fitter
    in ``RecordingFitter`` to keep the iterates themselves.
    """
    y = data.y
    trace: list[TraceRecord] = []

    def run_fit(fitter, residual, stage):
        try:
            return fitter.fit(data, residual)
        except Exception as exc:
            raise FitterError(f"{stage} fitter failed at iteration {len(trace) + 1}: {exc}",
                              tuple(trace)) from exc

    f_member = run_fit(fitter_f, y, "f")
    f_vals = f_member.fitted
    g_vals = np.zeros(data.n)  # g_0 = 0; the first iteration sets g_member

    stop_reason = "max-iters"
    for _ in range(stop.max_iters):
        g_member = run_fit(fitter_g, y - f_vals, "g")
        f_member = run_fit(fitter_f, y - g_member.fitted, "f")

        delta_f = empirical_norm(f_member.fitted - f_vals)
        delta_g = empirical_norm(g_member.fitted - g_vals)
        f_vals, g_vals = f_member.fitted, g_member.fitted

        obj = objective(data, f_vals, g_vals, f_member.penalty_value, g_member.penalty_value)
        trace.append(TraceRecord(len(trace) + 1, obj, delta_f, delta_g,
                                 f_member.penalty_value, g_member.penalty_value))

        if stop.change_tol > 0.0 and delta_f + delta_g < stop.change_tol:
            stop_reason = "change-tol"
            break

    return AdditiveFit(f_member, g_member, tuple(trace), stop_reason)


class RecordingFitter(FunctionClassFitter):
    """Pass-through fitter that keeps every member its inner fitter returns.

    f's list starts with f_0, so iterate m of ``fit_double_penalty`` pairs
    ``f.members[m]`` with ``g.members[m - 1]``.
    """

    def __init__(self, inner: FunctionClassFitter):
        self.inner = inner
        self.members: list[FunctionClassMember] = []

    def fit(self, data: Dataset, residual: np.ndarray) -> FunctionClassMember:
        member = self.inner.fit(data, residual)
        self.members.append(member)
        return member


def _finite_sequence(values: Sequence[float], name: str) -> np.ndarray:
    """The values as a float array, or ValueError at the first non-finite one (from 1)."""
    values = np.asarray(list(values), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} {bad[0] + 1} is {values[bad[0]]}; need finite values")
    return values


_SLOPE_FLOOR = 1e-10     # errors at or below this leave the slope fit
_BURN_IN = 3             # leading iterations the window drops when it can spare them


def estimate_convergence_slope(errors: Sequence[float]) -> tuple[float, float, int]:
    """OLS slope of log(error_m) against m over the usable window.

    Iterations are numbered from 1; the window keeps m > burn_in with
    error above 1e-10.  burn_in = min(3, i), where i is the 0-based index
    of the third-to-last error above 1e-10: up to 3 leading iterations
    go, as many as leave 3 points.  Fewer than 3 errors above 1e-10 is an
    error, and so is a non-finite error.  Returns the slope, the intercept
    and the points used.
    """
    errors = _finite_sequence(errors, "error")
    above = np.flatnonzero(errors > _SLOPE_FLOOR)
    if above.size < 3:
        raise ValueError(f"only {above.size} usable errors (above {_SLOPE_FLOOR}); "
                         "need at least 3")
    kept = above[above >= min(_BURN_IN, above[-3])]
    slope, intercept = np.polyfit(kept + 1, np.log(errors[kept]), 1)
    return float(slope), float(intercept), int(kept.size)


@dataclass(frozen=True)
class RateBoundReport:
    passed: bool
    rate: float
    rule: str
    checked: int
    first_violation: Optional[int]
    worst_ratio: float


_EXPONENTS = {
    "theorem1": lambda m: 2 * m - 6,
    "theorem3": lambda m: m - 1,
}


def verify_rate_bound(distances: Sequence[float], rate: float,
                      offset_exponent_rule: str = "theorem1",
                      tol: float = 0.1) -> RateBoundReport:
    """Check d_m <= rate^exponent(m) * d_1 * (1 + tol) over distances d_1, d_2, ...

    The exponent is 2m - 6 for the separability-based bound and m - 1 for
    the strong-convexity bound.  An empty sequence, a non-finite distance
    or a ``tol`` that is negative or not finite is an error.
    """
    if offset_exponent_rule not in _EXPONENTS:
        raise ValueError(f"unknown rule {offset_exponent_rule!r}")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must be in (0, 1)")
    if not 0.0 <= tol < math.inf:       # NaN fails this too
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    dists = _finite_sequence(distances, "distance").tolist()
    if not dists:
        raise ValueError("need at least one distance")
    exponent = _EXPONENTS[offset_exponent_rule]
    d1 = dists[0]
    first_violation = None
    worst = 0.0
    for m, d in enumerate(dists, start=1):
        bound = rate ** exponent(m) * d1 * (1.0 + tol)
        if d1 == 0.0:
            ratio = 0.0 if d == 0.0 else math.inf
        else:
            ratio = d / (rate ** exponent(m) * d1)
        worst = max(worst, ratio)
        if d > bound and first_violation is None:
            first_violation = m
    return RateBoundReport(first_violation is None, rate, offset_exponent_rule,
                           len(dists), first_violation, worst)
