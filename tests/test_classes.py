"""Interpretable and flexible class fitters: linear, lasso, boosted stumps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpm.classes.lasso as lasso_module
import dpm.classes.stumps as stumps_module
from dpm.classes import (
    FiniteBasisFitter,
    LassoFitter,
    LinearFitter,
    LinearModel,
    StumpEnsemble,
    StumpFitter,
    fit_boosted_stumps,
    fit_finite_basis,
    fit_lasso,
    fit_linear_ols,
)
from dpm.classes.linear import least_squares_matrix
from dpm.classes.stumps import _best_stump, split_table
from dpm.core import Dataset
from dpm.fitter import StoppingRule, fit_double_penalty
from dpm.kernels import KernelRidgeFitter, MaternSpec


def _soft(v, t):
    return math.copysign(max(abs(v) - t, 0.0), v)


def _ols_oracle(X, residual, ridge_gamma, norm_bound):
    """One np.linalg.lstsq per call: the minimum-norm least-squares coefficients."""
    design = np.column_stack([X, np.ones(len(residual))])
    coef = np.linalg.lstsq(design, residual, rcond=None)[0]
    if ridge_gamma > 0.0:
        coef = coef * (2.0 / (2.0 + ridge_gamma))
    norm = math.sqrt(coef @ coef)
    if norm > norm_bound:
        coef = coef * (norm_bound / norm)
    return coef, design @ coef


class TestLinearOls:
    def test_exact_on_linear_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (30, 2))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + 0.5
        m = fit_linear_ols(Dataset(X, y), y)
        np.testing.assert_allclose(m.coefficients.beta, [2.0, -1.0], atol=1e-10)
        assert m.coefficients.intercept == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(m(X), y, atol=1e-10)
        assert m.penalty_value == 0.0

    def test_matches_lstsq(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (25, 3))
        y = rng.normal(size=25)
        m = fit_linear_ols(Dataset(X, y), y)
        ref, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(25)]), y, rcond=None)
        np.testing.assert_allclose(np.append(m.coefficients.beta,
                                             m.coefficients.intercept), ref)

    @given(kind=st.sampled_from(["full", "duplicated", "constant", "wide"]),
           p=st.integers(1, 4), ridge_gamma=st.sampled_from([0.0, 0.7]),
           norm_bound=st.sampled_from([math.inf, 0.5]), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_call_lstsq_oracle(self, kind, p, ridge_gamma, norm_bound, seed):
        # Tolerances relative to 1 + max|reference|: 1e-9 on coefficients and
        # fitted values, full-rank and rank-deficient designs alike (worst
        # seen over 12,000 fits: 1.5e-14)
        rng = np.random.default_rng(seed)
        if kind == "duplicated":
            p = max(p, 2)
        n = int(rng.integers(1, p + 1)) if kind == "wide" else int(rng.integers(p + 2, 30))
        X = rng.uniform(0.0, 1.0, (n, p))
        if kind == "duplicated":
            X[:, 1] = X[:, 0]
        elif kind == "constant":
            X[:, 0] = rng.uniform(0.0, 1.0)
        data = Dataset(X, rng.normal(size=n))
        # several residuals on one dataset object
        for _ in range(4):
            residual = rng.normal(scale=3.0, size=n)
            m = fit_linear_ols(data, residual, norm_bound, ridge_gamma)
            ref, ref_fitted = _ols_oracle(X, residual, ridge_gamma, norm_bound)
            coef = np.append(m.coefficients.beta, m.coefficients.intercept)
            assert np.max(np.abs(coef - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref)))
            assert (np.max(np.abs(m.fitted - ref_fitted))
                    <= 1e-9 * (1.0 + np.max(np.abs(ref_fitted))))
            np.testing.assert_array_equal(m.fitted, m(data.X))

    def test_solve_matrix_memory_is_linear_in_n(self):
        # S is (cols x n); an n x n identity or projector here would be 128 MB
        n = 4000
        design = np.column_stack([np.random.default_rng(3).uniform(0, 1, (n, 2)), np.ones(n)])
        tracemalloc.start()
        try:
            S = least_squares_matrix(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.shape == (3, n)
        assert peak <= 16 * design.nbytes

    def test_ball_projection(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 100.0])  # unconstrained slope 100
        m = fit_linear_ols(Dataset(x, y), y, norm_bound=10.0)
        coef = np.append(m.coefficients.beta, m.coefficients.intercept)
        assert np.linalg.norm(coef) == pytest.approx(10.0)
        # projection is radial: direction of the OLS solution is kept
        free = fit_linear_ols(Dataset(x, y), y)
        direction = np.append(free.coefficients.beta, free.coefficients.intercept)
        direction /= np.linalg.norm(direction)
        np.testing.assert_allclose(coef / 10.0, direction, atol=1e-12)

    def test_ridge_gamma_shrinks_by_known_factor(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (40, 2))
        y = rng.normal(size=40)
        data = Dataset(X, y)
        plain = fit_linear_ols(data, y)
        for gamma in (0.5, 1.0, 4.0):
            shrunk = fit_linear_ols(data, y, ridge_gamma=gamma)
            factor = 2.0 / (2.0 + gamma)
            np.testing.assert_allclose(shrunk.coefficients.beta,
                                       factor * plain.coefficients.beta, rtol=1e-12)
            assert shrunk.coefficients.intercept == pytest.approx(
                factor * plain.coefficients.intercept)
            # recorded penalty is (gamma/2) ||f||_n^2
            fitted = shrunk(X)
            assert shrunk.penalty_value == pytest.approx(
                0.5 * gamma * np.mean(fitted ** 2))

    def test_ridge_optimality(self):
        # shrunk solution beats nearby perturbations on the penalized objective
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (30, 2))
        y = rng.normal(size=30)
        data = Dataset(X, y)
        gamma = 1.3
        m = fit_linear_ols(data, y, ridge_gamma=gamma)

        def penalized(beta, a):
            f = X @ beta + a
            return np.mean((y - f) ** 2) + 0.5 * gamma * np.mean(f ** 2)

        base = penalized(m.coefficients.beta, m.coefficients.intercept)
        for _ in range(20):
            db = rng.normal(scale=1e-3, size=2)
            da = rng.normal(scale=1e-3)
            assert penalized(m.coefficients.beta + db,
                             m.coefficients.intercept + da) >= base - 1e-15


class TestFiniteBasis:
    def test_recovers_coefficients(self):
        x = np.linspace(0.05, 0.95, 40)
        basis = [np.ones_like, lambda t: np.sin(2 * np.pi * t)]
        y = 1.5 + 0.7 * np.sin(2 * np.pi * x)
        m = fit_finite_basis(basis, Dataset(x, y), y)
        np.testing.assert_allclose(m.coefficients.alpha, [1.5, 0.7], atol=1e-10)

    def test_l2_ball_projection(self):
        x = np.linspace(0.05, 0.95, 30)
        basis = [np.ones_like]
        y = np.full_like(x, 8.0)
        m = fit_finite_basis(basis, Dataset(x, y), y, l2_bound=2.0)
        # constant function: L2 norm equals |alpha|
        assert abs(m.coefficients.alpha[0]) == pytest.approx(2.0, rel=1e-10)


_BOUND_DATA = Dataset(np.linspace(0.0, 1.0, 6), np.arange(6.0))


@pytest.mark.parametrize("name, value", [("norm_bound", -1.0), ("norm_bound", math.nan),
                                         ("ridge_gamma", -1.0), ("ridge_gamma", math.nan),
                                         ("ridge_gamma", math.inf), ("l2_bound", -1.0),
                                         ("l2_bound", math.nan)])
def test_invalid_bounds_raise(name, value):
    r = _BOUND_DATA.y
    with pytest.raises(ValueError, match=name):
        if name == "l2_bound":
            fit_finite_basis([np.ones_like], _BOUND_DATA, r, l2_bound=value)
        else:
            fit_linear_ols(_BOUND_DATA, r, **{name: value})


@pytest.mark.parametrize("fit, name", [(fit_lasso, "lambda_f"), (fit_boosted_stumps, "lambda_g")])
def test_nan_penalty_raises(fit, name):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            fit(_BOUND_DATA, _BOUND_DATA.y, value)


@pytest.mark.parametrize("fitter", [
    LinearFitter(), FiniteBasisFitter([np.ones_like]), LassoFitter(0.1), StumpFitter(0.1),
    KernelRidgeFitter(MaternSpec(nu=3.5, p=1, phi=1.0), lam=0.1),
])
def test_wrong_length_residual_raises(fitter):
    with pytest.raises(ValueError, match="residual length must match dataset"):
        fitter.fit(_BOUND_DATA, np.zeros(_BOUND_DATA.n + 1))


class TestLasso:
    def _random_problem(self, seed, n=60, p=5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (n, p))
        beta = np.array([3.0, -2.0, 0.0, 0.0, 1.0])
        y = X @ beta + 0.3 + rng.normal(0, 0.2, n)
        return Dataset(X, y), y

    @pytest.mark.parametrize("seed,lam", [(0, 0.05), (1, 0.2), (2, 0.6)])
    def test_kkt_conditions(self, seed, lam):
        data, y = self._random_problem(seed)
        m = fit_lasso(data, y, lam)
        assert m.coefficients.converged
        # check stationarity on the standardized scale
        n = data.n
        mean = data.X.mean(axis=0)
        centered = data.X - mean
        scale = np.sqrt((centered ** 2).sum(axis=0) / n)
        Z = centered / scale
        beta_std = m.coefficients.beta * scale
        resid = (y - y.mean()) - Z @ beta_std
        grad = 2.0 * (Z.T @ resid) / n
        tol = 1e-6
        for j in range(data.p):
            if beta_std[j] == 0.0:
                assert abs(grad[j]) <= lam + tol
            else:
                assert grad[j] == pytest.approx(math.copysign(lam, beta_std[j]),
                                                abs=tol)

    def test_lambda_max_boundary(self):
        data, y = self._random_problem(3)
        # smallest lambda_f with all-zero slopes: max_j |(2/n)<z_j, y - mean(y)>|
        centered = data.X - data.X.mean(axis=0)
        Z = centered / np.sqrt((centered ** 2).sum(axis=0) / data.n)
        lam_max = float(np.max(np.abs(2.0 * (Z.T @ (y - y.mean())) / data.n)))
        # exactly at the boundary rounding can leave an O(eps) coefficient
        at_max = LassoFitter(lam_max).fit(data, y)
        assert np.max(np.abs(at_max.coefficients.beta)) < 1e-12
        assert at_max.coefficients.intercept == pytest.approx(y.mean())
        above = LassoFitter(lam_max * 1.0001).fit(data, y)
        np.testing.assert_array_equal(above.coefficients.beta, np.zeros(data.p))
        below = LassoFitter(0.95 * lam_max).fit(data, y)
        assert np.any(below.coefficients.beta != 0.0)

    def test_single_feature_soft_threshold_oracle(self):
        # hand-built column with zero mean and unit empirical norm
        z = np.array([-1.0, -1.0, 1.0, 1.0])
        y = np.array([0.1, -0.3, 1.2, 0.8])
        data = Dataset((z + 1.0) / 2.0, y)  # affine shift into [0,1]
        lam = 0.25
        m = LassoFitter(lam).fit(data, y)
        rho = float(z @ (y - y.mean())) / 4.0
        want_std = _soft(rho, lam / 2.0)
        scale = 0.5  # empirical sd of the rescaled column
        assert m.coefficients.beta[0] == pytest.approx(want_std / scale, rel=1e-10)
        assert m.penalty_value == pytest.approx(lam * abs(want_std))

    def test_constant_column_ignored(self):
        X = np.column_stack([np.full(20, 0.5), np.linspace(0, 1, 20)])
        y = 2.0 * X[:, 1] + 1.0
        m = LassoFitter(0.01).fit(Dataset(X, y), y)
        assert m.coefficients.beta[0] == 0.0
        assert m.coefficients.beta[1] != 0.0

    def test_fitter_wrapper(self):
        data, y = self._random_problem(4)
        member = LassoFitter(0.1).fit(data, y)
        assert isinstance(member.coefficients, LinearModel)


def _presort_by_column(X):
    # oracle: the per-column split search that the one-matrix search replaced
    cols = []
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        if xs[0] == xs[-1]:
            cols.append(None)
            continue
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        cols.append((order, xs, cut, cut + 1.0, X.shape[0] - (cut + 1.0)))
    return cols


def _best_stump_by_column(sorted_cols, resid, n_lambda):
    best = None
    best_gain = -np.inf
    for j, col in enumerate(sorted_cols):
        if col is None:
            continue
        order, xs, cut, nl, nr = col
        csum = np.cumsum(resid[order])
        sl = csum[cut]
        sr = csum[-1] - sl
        gain = sl ** 2 / (nl + n_lambda) + sr ** 2 / (nr + n_lambda)
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            i = cut[k]
            best_gain = float(gain[k])
            best = (j, float(0.5 * (xs[i] + xs[i + 1])),
                    float(sl[k] / (nl[k] + n_lambda)), float(sr[k] / (nr[k] + n_lambda)))
    return best


class TestStumps:
    @given(st.integers(1, 25), st.integers(1, 4), st.booleans(),
           st.sampled_from(["none", "first", "all"]), st.sampled_from(["normal", "integer", "zero"]),
           st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_split_search_matches_per_column_oracle(self, n, p, ties, constant, resid_kind,
                                                    zero_lambda, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (n, p)) / 3.0 if ties else rng.uniform(0.0, 1.0, (n, p))
        if constant == "first":
            X[:, 0] = 0.5
        elif constant == "all":
            X[:] = 0.5
        resid = {"normal": rng.normal(size=n), "integer": rng.integers(-2, 3, n) * 1.0,
                 "zero": np.zeros(n)}[resid_kind]
        lambda_g = 0.0 if zero_lambda else float(rng.uniform(0.0, 1.0))
        expected = _best_stump_by_column(_presort_by_column(X), resid, n * lambda_g)
        table = split_table(X, lambda_g)
        if expected is None:
            assert not table.has_cut
        else:
            assert _best_stump(table, resid) == expected

    @pytest.fixture
    def one_full_round(self, monkeypatch):
        monkeypatch.setattr(stumps_module, "MAX_ROUNDS", 1)
        monkeypatch.setattr(stumps_module, "LEARNING_RATE", 1.0)

    def test_single_split_recovers_step(self, one_full_round):
        x = np.linspace(0.0, 1.0, 50)
        y = np.where(x <= 0.42, -1.0, 2.0)
        data = Dataset(x, y)
        m = fit_boosted_stumps(data, y, 0.0)
        st = m.coefficients.rounds[0]
        assert 0.40 < st.threshold < 0.44
        assert st.left_value == pytest.approx(-1.0)
        assert st.right_value == pytest.approx(2.0)
        np.testing.assert_allclose(m(x), y)

    def test_shrinkage_divides_by_count_plus_nlambda(self, one_full_round):
        x = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        lam = 0.5
        m = StumpFitter(lam).fit(Dataset(x, y), y)
        st = m.coefficients.rounds[0]
        n_lam = 4 * lam
        assert st.left_value == pytest.approx(2.0 / (2.0 + n_lam))
        assert st.right_value == pytest.approx(10.0 / (2.0 + n_lam))
        assert m.penalty_value == pytest.approx(
            lam * (st.left_value ** 2 + st.right_value ** 2))

    def test_constant_features_fall_back_to_mean_leaf(self, one_full_round):
        # a single row has no cut either: its gain matrix is empty
        for X, y in ((np.full((6, 2), 0.3), np.arange(6.0)),
                     (np.array([[0.2, 0.9]]), np.array([2.0]))):
            m = StumpFitter(0.0).fit(Dataset(X, y), y)
            st = m.coefficients.rounds[0]
            assert st.threshold == np.inf
            assert st.left_value == pytest.approx(y.mean())

    def test_training_mse_nonincreasing_in_rounds(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (80, 3))
        y = np.sin(6 * X[:, 0]) + rng.normal(0, 0.1, 80)
        data = Dataset(X, y)
        prev = np.inf
        for rounds in (1, 3, 6, 10, 15):
            monkeypatch.setattr(stumps_module, "MAX_ROUNDS", rounds)
            m = StumpFitter(0.05).fit(data, y)
            mse = float(np.mean((y - m(X)) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_member_beats_zero_function(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            X = rng.uniform(0, 1, (30, 2))
            r = rng.normal(size=30)
            lam = float(rng.uniform(0, 1))
            m = StumpFitter(lam).fit(Dataset(X, r), r)
            obj = np.mean((r - m(X)) ** 2) + m.penalty_value
            assert obj <= np.mean(r ** 2) + 1e-12

    def test_fitter_wrapper_and_validation(self):
        data = Dataset(np.linspace(0, 1, 10), np.zeros(10))
        member = StumpFitter(0.1).fit(data, data.y)
        assert isinstance(member.coefficients, StumpEnsemble)
        with pytest.raises(ValueError):
            StumpFitter(-0.1).fit(data, data.y)


class TestFitterState:
    """Stump and lasso fits share one table per dataset object."""

    @given(kind=st.sampled_from(["stumps", "lasso"]), sizes=st.tuples(st.integers(1, 30),
                                                                       st.integers(1, 30)),
           p=st.integers(1, 3), ties=st.booleans(), lam=st.sampled_from([0.0, 0.01, 0.3]),
           calls=st.lists(st.integers(0, 1), min_size=2, max_size=6),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_reused_fitter_matches_a_fresh_fitter(self, kind, sizes, p, ties, lam, calls, seed):
        rng = np.random.default_rng(seed)
        datasets = []
        for n in sizes:
            X = rng.integers(0, 3, (n, p)) / 2.0 if ties else rng.uniform(0.0, 1.0, (n, p))
            datasets.append(Dataset(X, rng.normal(size=n)))
        make = StumpFitter if kind == "stumps" else LassoFitter
        reused = make(lam)
        for which in calls:
            data = datasets[which]
            residual = rng.normal(size=data.n)
            got = reused.fit(data, residual)
            # an equal-valued new object builds its table afresh
            want = make(lam).fit(Dataset(data.X, data.y), residual)
            assert got.penalty_value == want.penalty_value
            np.testing.assert_array_equal(got.fitted, want.fitted)
            np.testing.assert_array_equal(got(data.X), want(data.X))
            if kind == "stumps":
                assert got.coefficients == want.coefficients
            else:
                np.testing.assert_array_equal(got.coefficients.beta, want.coefficients.beta)
                assert got.coefficients.intercept == want.coefficients.intercept

    def test_one_alternation_builds_each_table_once(self, monkeypatch):
        built = []
        for module, name in ((stumps_module, "split_table"), (lasso_module, "lasso_design")):
            def counted(*args, _name=name, _original=getattr(module, name)):
                built.append(_name)
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (40, 2))
        data = Dataset(X, 2.0 * X[:, 0] + np.sin(6.0 * X[:, 1]) + rng.normal(0, 0.1, 40))
        fit = fit_double_penalty(data, LassoFitter(0.01), StumpFitter(0.01),
                                 StoppingRule(max_iters=20))
        assert fit.iterations > 2
        assert sorted(built) == ["lasso_design", "split_table"]


def test_fitted_members_and_models_compare_without_raising():
    # models compare by identity, as value equality of their array fields
    # is ambiguous; members compare their model and penalty
    rng = np.random.default_rng(0)
    X, y = rng.uniform(size=(20, 2)), rng.normal(size=20)
    a = LinearFitter().fit(Dataset(X, y), y)
    b = LinearFitter().fit(Dataset(X.copy(), y.copy()), y.copy())
    np.testing.assert_array_equal(a.coefficients.beta, b.coefficients.beta)
    for left, right in ((a, b), (a.coefficients, b.coefficients)):
        assert (left == right) is False and (left != right) is True
        assert (left == left) is True
    member = fit_finite_basis([lambda x: x[:, 0], lambda x: x[:, 1]], Dataset(X, y), y)
    assert (member.coefficients == member.coefficients) is True
    assert len({a, b, a.coefficients, member.coefficients}) == 4


def test_shared_tables_compare_by_identity_without_raising():
    X = np.random.default_rng(1).uniform(size=(10, 2))
    for build in (lambda: split_table(X, 0.1), lambda: lasso_module.lasso_design(X)):
        a, b = build(), build()
        assert (a == b) is False
        assert (a == a) is True


def test_linear_fitter_wrapper():
    data = Dataset(np.linspace(0, 1, 8), np.linspace(0, 2, 8))
    member = LinearFitter().fit(data, data.y)
    assert isinstance(member.coefficients, LinearModel)
    assert member.coefficients.beta[0] == pytest.approx(2.0)
