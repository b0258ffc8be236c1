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
    TraceRecord,
    empirical_norm,
    objective,
)


@dataclass(frozen=True)
class StoppingRule:
    """Stop on iteration cap or small iterate change.

    ``max_iters`` (at least 1) always caps the run.  ``change_tol``
    applies to ||f_m - f_{m-1}||_n + ||g_m - g_{m-1}||_n.
    """

    max_iters: int = 500
    change_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class FitterError(RuntimeError):
    """A class fitter failed mid-run; carries the partial trace."""

    def __init__(self, message: str, partial_trace: tuple[TraceRecord, ...]):
        super().__init__(message)
        self.partial_trace = partial_trace


def fit_double_penalty(data: Dataset, fitter_f: FunctionClassFitter,
                       fitter_g: FunctionClassFitter,
                       stop: StoppingRule = StoppingRule(),
                       reference: Optional[tuple[np.ndarray, np.ndarray]] = None) -> AdditiveFit:
    """Alternate penalized fits of f and g (Algorithm 1 of the method).

    Starts from f_0 = argmin ||y - f||_n^2 + L_f(f); iteration m fits
    g_m on y - f_{m-1} and then f_m on y - g_m.  The trace records the
    objective, change norms, and penalties per iteration; when
    ``reference`` holds training-point values (f_ref, g_ref) of a known
    solution, each record also carries the distance
    ||f_m - f_ref||_n + ||g_m - g_ref||_n.
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
        ref_dist = None
        if reference is not None:
            ref_dist = (empirical_norm(f_vals - reference[0])
                        + empirical_norm(g_vals - reference[1]))
        trace.append(TraceRecord(len(trace) + 1, obj, delta_f, delta_g,
                                 f_member.penalty_value, g_member.penalty_value, ref_dist))

        if stop.change_tol > 0.0 and delta_f + delta_g < stop.change_tol:
            stop_reason = "change-tol"
            break

    return AdditiveFit(f_member, g_member, tuple(trace), stop_reason)


_SLOPE_FLOOR = 1e-10     # errors at or below this leave the slope fit


def estimate_convergence_slope(errors: Sequence[float],
                               burn_in: int = 3) -> tuple[float, float, int]:
    """OLS slope of log(error_m) against m over the usable window.

    Iterations are numbered from 1; the window keeps m > burn_in with
    error above 1e-10.  Fewer than 3 usable points is an error.
    """
    errors = np.asarray(list(errors), dtype=float)
    m = np.arange(1, errors.size + 1)
    keep = (m > burn_in) & (errors > _SLOPE_FLOOR)
    if keep.sum() < 3:
        raise ValueError(f"only {int(keep.sum())} usable iterations "
                         f"(burn_in={burn_in}, floor={_SLOPE_FLOOR}); need at least 3")
    slope, intercept = np.polyfit(m[keep], np.log(errors[keep]), 1)
    return float(slope), float(intercept), int(keep.sum())


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


def verify_rate_bound(trace: Sequence[TraceRecord], rate: float,
                      offset_exponent_rule: str = "theorem1",
                      tol: float = 0.1) -> RateBoundReport:
    """Check d_m <= rate^exponent(m) * d_1 * (1 + tol) along a trace.

    The exponent is 2m - 6 for the separability-based bound and m - 1 for
    the strong-convexity bound.  The trace must carry reference distances.
    """
    if offset_exponent_rule not in _EXPONENTS:
        raise ValueError(f"unknown rule {offset_exponent_rule!r}")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must be in (0, 1)")
    dists = [(rec.iteration, rec.ref_distance) for rec in trace]
    if not dists or any(d is None for _, d in dists):
        raise ValueError("trace must contain reference distances for every iteration")
    exponent = _EXPONENTS[offset_exponent_rule]
    d1 = dists[0][1]
    first_violation = None
    worst = 0.0
    for m, d in dists:
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
