"""Alternating fit loop, slope estimation, and rate-bound verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpm.classes import (
    FiniteBasisFitter,
    LassoFitter,
    LinearFitter,
    StumpFitter,
    fit_linear_ols,
)
from dpm.core import AdditiveFit, Dataset, TraceRecord, empirical_inner, empirical_norm
from dpm.fitter import (
    FitterError,
    RecordingFitter,
    StoppingRule,
    estimate_convergence_slope,
    fit_double_penalty,
    verify_rate_bound,
)
from dpm.kernels import KernelRidgeFitter, MaternSpec, ProjectedKernel
from dpm.numerics import QuadratureRule, tensor_or_qmc_rule


def _sine_data(n=40, theta=3.0, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = 1.0 * x + 3.0 * np.sin(theta * x) + rng.normal(0, 0.3, n)
    return Dataset(x[:, None], y), x


class ZeroFitter:
    def fit(self, data, residual):
        return fit_linear_ols(data, np.zeros(data.n))


class FailingFitter:
    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def fit(self, data, residual):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise np.linalg.LinAlgError("synthetic failure")
        return fit_linear_ols(data, np.zeros(data.n))


def _fitter(kind, data, nu):
    spec = MaternSpec(nu=nu + data.p / 2.0, p=data.p, phi=1.0)
    if kind == "linear":
        return LinearFitter(ridge_gamma=0.5)
    if kind == "finite-basis":
        # the basis sees a 1-D array when p = 1
        def cols(t):
            return np.reshape(t, (len(t), -1))
        return FiniteBasisFitter([lambda t: np.sin(3.0 * cols(t)[:, 0]),
                                  lambda t: cols(t)[:, -1] ** 2], l2_bound=1.0)
    if kind == "lasso":
        return LassoFitter(0.05)
    if kind == "stumps":
        return StumpFitter(0.01)
    if kind == "kernel":
        return KernelRidgeFitter(spec, lam=1e-3)
    # projected kernel with the training points as its rule, as in example1
    rule = QuadratureRule(data.unit_X.copy(), np.full(data.n, 1.0 / data.n))
    return KernelRidgeFitter(ProjectedKernel(spec, rule), lam=None)


class TestFittedValues:
    KINDS = ("linear", "finite-basis", "lasso", "stumps", "kernel", "projected-kernel")

    @given(st.sampled_from(KINDS), st.integers(8, 40), st.integers(1, 3),
           st.sampled_from([2.5, 3.0, 3.7]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_fitted_equals_evaluation_at_training_points(self, kind, n, p, nu, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 2.0, (n, p))
        y = X @ rng.normal(size=p) + np.sin(4.0 * X[:, 0]) + rng.normal(0, 0.2, n)
        data = Dataset(X, y, omega_bounds=[(-1.0, 2.0)] * p)
        fitter = _fitter(kind, data, nu)
        for residual in (y, y - 0.5 * X[:, -1]):   # a second fit reuses the caches
            member = fitter.fit(data, residual)
            assert np.array_equal(member.fitted, member(data.X))
            if p == 1:   # a 1-D array of points when p = 1
                assert np.array_equal(member.fitted, member(data.X[:, 0]))

    def test_fitted_takes_no_part_in_comparison(self):
        data, _ = _sine_data(n=10)
        member = LinearFitter().fit(data, data.y)
        assert "fitted" not in repr(member)
        assert member == dataclasses.replace(member, fitted=None)


def _contract_fitters(p):
    """One fitter of every class and option the contract covers, at dimension p."""
    def coordinate(j):
        return lambda t: t if t.ndim == 1 else t[:, j]
    first = coordinate(0)
    spec = MaternSpec(nu=3.0 + p / 2.0, p=p, phi=1.0)      # integer order 3
    projected = ProjectedKernel(spec, tensor_or_qmc_rule(p, 64))
    return {
        "linear": LinearFitter(),
        # the linear fit without an intercept
        "finite-basis-coordinates": FiniteBasisFitter([coordinate(j) for j in range(p)]),
        "linear-ridge": LinearFitter(ridge_gamma=0.7),
        "linear-ball": LinearFitter(norm_bound=0.1),
        "finite-basis-ball": FiniteBasisFitter([lambda t: np.ones(len(t)),
                                                lambda t: np.sin(5.0 * first(t))], l2_bound=0.2),
        "lasso": LassoFitter(0.05),
        "stumps": StumpFitter(0.01),
        "kernel": KernelRidgeFitter(spec, lam=1e-2),
        "projected-kernel": KernelRidgeFitter(projected, lam=1e-2),
    }


class TestFitterContract:
    """||r - h||_n^2 + L(h) never exceeds the zero function's ||r||_n^2."""

    @given(st.integers(2, 40), st.integers(1, 3), st.floats(1e-3, 1e3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_no_member_is_worse_than_the_zero_function(self, n, p, scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (n, p))
        residual = scale * (np.sin(6.0 * X[:, 0]) + rng.normal(size=n))
        data = Dataset(X, residual)
        zero = empirical_inner(residual, residual)
        for name, fitter in _contract_fitters(p).items():
            member = fitter.fit(data, residual)
            left = residual - member.fitted
            value = empirical_inner(left, left) + member.penalty_value
            assert value <= zero * (1.0 + 1e-12) + 1e-15, (name, value, zero)
            assert np.array_equal(member.fitted, member(data.X)), name


class TestStoppingRule:
    def test_defaults(self):
        rule = StoppingRule()
        assert rule.max_iters == 500
        assert rule.change_tol == pytest.approx(1e-6)

    def test_all_criteria_disabled_rejected(self):
        with pytest.raises(ValueError):
            StoppingRule(max_iters=0, change_tol=0.0)

    @pytest.mark.parametrize("change_tol", [-1.0, -1e-300, float("nan"), -float("inf")])
    def test_negative_or_nan_change_tol_rejected(self, change_tol):
        # no change norm falls below it, so it would turn the change test off
        with pytest.raises(ValueError, match="change_tol"):
            StoppingRule(change_tol=change_tol)

    def test_zero_change_tol_turns_the_change_test_off(self):
        data, _ = _sine_data(seed=4)
        fit = fit_double_penalty(data, LinearFitter(), ZeroFitter(),
                                 StoppingRule(max_iters=3, change_tol=0.0))
        assert (fit.stop_reason, fit.iterations) == ("max-iters", 3)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, max_iters):
        # change_tol stays active, but a run with no iterations is no fit
        with pytest.raises(ValueError, match="max_iters"):
            StoppingRule(max_iters=max_iters)


class TestFitLoop:
    def test_zero_g_class_reduces_to_single_fit(self):
        data, x = _sine_data()
        fit = fit_double_penalty(data, LinearFitter(), ZeroFitter(),
                                 StoppingRule(max_iters=3, change_tol=1e-12))
        solo = LinearFitter().fit(data, data.y)
        np.testing.assert_allclose(fit.f_hat(data.X), solo(data.X), atol=1e-12)
        np.testing.assert_allclose(fit.g_hat(data.X), 0.0, atol=0)
        assert fit.stop_reason == "change-tol"

    def test_converged_iterates_match_joint_normal_equations(self):
        # two finite-dimensional classes without penalties: the alternation
        # limit solves the stacked least squares problem
        data, x = _sine_data(seed=12)
        fit = fit_double_penalty(
            data,
            FiniteBasisFitter([lambda t: t]),
            FiniteBasisFitter([lambda t: np.sin(3.0 * t)]),
            StoppingRule(max_iters=20000, change_tol=1e-13),
        )
        design = np.column_stack([x, np.sin(3.0 * x)])
        joint, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        np.testing.assert_allclose(fit.f_hat(data.X), joint[0] * x, atol=1e-6)
        np.testing.assert_allclose(fit.g_hat(data.X), joint[1] * np.sin(3.0 * x),
                                   atol=1e-6)

    def test_trace_contents_and_recorded_members(self):
        data, _ = _sine_data(seed=3)
        ff, fg = RecordingFitter(LinearFitter()), RecordingFitter(ZeroFitter())
        fit = fit_double_penalty(data, ff, fg, StoppingRule(max_iters=4, change_tol=0.0))
        assert isinstance(fit, AdditiveFit)
        assert len(fit.trace) >= 1
        rec = fit.trace[0]
        assert isinstance(rec, TraceRecord)
        assert rec.iteration == 1
        assert rec.delta_f >= 0.0 and rec.delta_g == 0.0
        assert rec.penalty_g == 0.0
        # f's list starts with f_0, so it holds one member more than g's
        assert len(ff.members) == fit.iterations + 1
        assert len(fg.members) == fit.iterations
        assert ff.members[-1] is fit.f_hat and fg.members[-1] is fit.g_hat

    def test_max_iters_stop(self):
        data, x = _sine_data(seed=5)
        fit = fit_double_penalty(
            data,
            FiniteBasisFitter([lambda t: t]),
            FiniteBasisFitter([lambda t: np.sin(3.0 * t)]),
            StoppingRule(max_iters=2, change_tol=0.0),
        )
        assert fit.stop_reason == "max-iters"
        assert fit.iterations == 2

    def test_fitter_error_carries_partial_trace(self):
        data, _ = _sine_data(seed=6)
        failing = FailingFitter(fail_at=4)
        with pytest.raises(FitterError) as err:
            fit_double_penalty(data, LinearFitter(), failing,
                               StoppingRule(max_iters=50, change_tol=0.0))
        assert "g fitter failed" in str(err.value)
        assert len(err.value.partial_trace) == 3


class TestSlopeEstimation:
    def test_exact_geometric_sequence(self):
        rate = np.exp(-0.37)
        errors = 2.0 * rate ** np.arange(1, 31)
        slope, intercept, used = estimate_convergence_slope(errors)
        assert slope == pytest.approx(-0.37, abs=1e-12)
        assert used == 27  # burn_in 3 drops m = 1..3

    def test_noisy_sequence_recovers_rate(self):
        rng = np.random.default_rng(0)
        m = np.arange(1, 41)
        errors = np.exp(-0.2 * m + rng.normal(0, 0.01, 40))
        slope, _, _ = estimate_convergence_slope(errors)
        assert slope == pytest.approx(-0.2, abs=0.01)

    def test_floor_excludes_tiny_values(self):
        # five errors above the floor: burn-in 2 leaves the last three
        errors = [1.0, 0.5, 0.25, 0.125, 0.0625, 1e-14, 1e-15, 1e-16]
        slope, _, used = estimate_convergence_slope(errors)
        assert used == 3
        assert slope == pytest.approx(np.log(0.5), abs=1e-10)

    @pytest.mark.parametrize("errors, position, bad", [
        ([1.0, 0.5, np.inf, 0.2, 0.1], 3, "inf"),     # once read (nan, nan, 3)
        ([1.0, np.nan, 0.5, 0.25], 2, "nan"),         # once dropped as under the floor
        ([1.0, 0.5, 0.25, -np.inf], 4, "-inf"),
    ])
    def test_non_finite_error_raises_at_its_position(self, errors, position, bad):
        with pytest.raises(ValueError, match=f"error {position} is {bad}; need finite"):
            estimate_convergence_slope(errors)

    def test_too_few_points_raises(self):
        # fewer than three errors above the floor, wherever they sit
        for errors in ([], [1.0, 0.5], [1.0, 0.5, 1e-10, 0.0, 1e-12]):
            with pytest.raises(ValueError, match="usable"):
                estimate_convergence_slope(errors)

    @pytest.mark.parametrize("length, burn_in", [(3, 0), (4, 1), (5, 2), (6, 3), (9, 3)])
    def test_burn_in_shrinks_to_leave_three_points(self, length, burn_in):
        errors = 0.5 ** np.arange(1, length + 1)
        slope, _, used = estimate_convergence_slope(errors)
        assert used == length - burn_in
        assert slope == pytest.approx(np.log(0.5), abs=1e-10)

    def test_burn_in_shifts_window(self):
        # first entries off-trend; burn-in ignores them
        errors = [10.0, 10.0, 10.0] + list(0.5 ** np.arange(1, 11))
        slope, _, _ = estimate_convergence_slope(errors)
        assert slope == pytest.approx(np.log(0.5), abs=1e-10)

    @given(st.lists(st.one_of(st.sampled_from([0.0, 1e-16, 1e-10]),
                              st.floats(1e-9, 1e6)), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_burn_in_equals_the_retry_cascade(self, errors):
        # the rule the study code used before the function worked out its
        # own burn-in: try burn-in 3, 2, 1 and 0 until 3 points remain
        want = _burn_in_cascade(errors)
        if want is None:
            with pytest.raises(ValueError, match="usable"):
                estimate_convergence_slope(errors)
        else:
            assert estimate_convergence_slope(errors) == want


def _slope_at_burn_in(errors, burn_in):
    """Oracle: the OLS fit over m > burn_in with error above 1e-10, or None below 3 points."""
    errors = np.asarray(errors, dtype=float)
    m = np.arange(1, errors.size + 1)
    keep = (m > burn_in) & (errors > 1e-10)
    if keep.sum() < 3:
        return None
    slope, intercept = np.polyfit(m[keep], np.log(errors[keep]), 1)
    return float(slope), float(intercept), int(keep.sum())


def _burn_in_cascade(errors):
    """Oracle: the first of burn-in 3, 2, 1, 0 that leaves 3 points, else None."""
    for burn_in in (3, 2, 1, 0):
        fit = _slope_at_burn_in(errors, burn_in)
        if fit is not None:
            return fit
    return None


class TestRateBound:
    def test_exact_theorem3_sequence_passes(self):
        rate = 0.6
        dists = [0.8 * rate ** (m - 1) for m in range(1, 12)]
        report = verify_rate_bound(dists, rate, "theorem3")
        assert report.passed
        assert report.checked == 11
        assert report.first_violation is None
        assert report.worst_ratio == pytest.approx(1.0)

    def test_violating_sequence_fails_at_right_step(self):
        rate = 0.5
        dists = [1.0, 0.5, 0.25, 0.5, 0.0625]
        report = verify_rate_bound(dists, rate, "theorem3")
        assert not report.passed
        assert report.first_violation == 4
        assert report.worst_ratio == pytest.approx(4.0)

    def test_theorem1_exponent_is_vacuous_early(self):
        # 2m - 6 < 0 for m <= 2, so early iterations can exceed d_1
        rate = 0.7
        dists = [1.0, 1.5, 1.0 * rate ** 0 , 0.9 * rate ** 2, 0.8 * rate ** 4]
        report = verify_rate_bound(dists, rate, "theorem1")
        assert report.passed

    def test_tolerance_slack(self):
        rate = 0.5
        dists = [1.0, 0.5 * 1.05, 0.25]
        assert verify_rate_bound(dists, rate, "theorem3", tol=0.1).passed
        assert not verify_rate_bound(dists, rate, "theorem3", tol=0.01).passed

    def test_validation(self):
        dists = [1.0, 0.5]
        with pytest.raises(ValueError, match="rule"):
            verify_rate_bound(dists, 0.5, "theorem2")
        with pytest.raises(ValueError, match="rate"):
            verify_rate_bound(dists, 1.5, "theorem3")
        with pytest.raises(ValueError, match="at least one distance"):
            verify_rate_bound([], 0.5, "theorem3")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_distance_raises_at_its_position(self, bad):
        with pytest.raises(ValueError, match=f"distance 3 is {bad}; need finite"):
            verify_rate_bound([1.0, 0.5, bad, 0.1], 0.5, "theorem3")

    def test_end_to_end_trace_obeys_strong_convexity_rate(self):
        # ridge-penalized f against a kernel g tracks the (2/(2+gamma))^(m-1)
        # contraction from iteration 1
        from dpm.kernels import KernelRidgeFitter, MaternSpec

        rng = np.random.default_rng(11)
        n = 30
        x = np.sort(rng.uniform(0, 1, n))
        y = 1.0 + 2.0 * x + np.sin(5 * x) + rng.normal(0, 0.3, n)
        data = Dataset(x[:, None], y)
        gamma = 1.0
        make = lambda: (LinearFitter(ridge_gamma=gamma),
                        KernelRidgeFitter(MaternSpec(nu=2.0, p=1, phi=1.0), lam=0.1))
        ff, fg = make()
        ref_fit = fit_double_penalty(data, ff, fg,
                                     StoppingRule(max_iters=4000, change_tol=1e-14))
        reference = (ref_fit.f_hat(data.X), ref_fit.g_hat(data.X))
        ff, fg = (RecordingFitter(fitter) for fitter in make())
        fit_double_penalty(data, ff, fg, StoppingRule(max_iters=40, change_tol=0.0))
        dists = [empirical_norm(f.fitted - reference[0]) + empirical_norm(g.fitted - reference[1])
                 for f, g in zip(ff.members[1:], fg.members)]
        assert len(dists) == 40
        report = verify_rate_bound(dists, 2.0 / (2.0 + gamma), "theorem3")
        assert report.passed, report
