"""Matern kernels, the orthogonal projection construction, and ridge fits."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpm.kernels.matern as matern_module
import dpm.kernels.projection as projection_module
import dpm.kernels.ridge as ridge_module
from dpm.classes import LinearFitter, fit_linear_ols
from dpm.core import Dataset
from dpm.fitter import StoppingRule, fit_double_penalty
from dpm.kernels import (
    KernelRidgeFitter,
    MaternSpec,
    ProjectedKernel,
    gcv_select_lambda,
    kernel_ridge_fit,
    matern_gram,
)
from dpm.kernels.matern import matern_of_distance
from dpm.kernels.ridge import RidgeSystem
from dpm.numerics import (
    QuadratureRule,
    bessel_k,
    cholesky_solve,
    gauss_legendre_01,
    tensor_or_qmc_rule,
)


def _matern35_closed(z):
    # smoothness 3.5 has the elementary form e^-z (z^3+6z^2+15z+15)/15
    return math.exp(-z) * (z ** 3 + 6 * z ** 2 + 15 * z + 15) / 15.0


class TestMaternSpec:
    def test_smoothness_arithmetic(self):
        assert MaternSpec(nu=3.5, p=1, phi=1.0).mu == pytest.approx(3.0)
        assert MaternSpec(nu=6.0, p=5, phi=0.1).mu == pytest.approx(3.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaternSpec(nu=1.0, p=2, phi=1.0)  # mu = 0
        with pytest.raises(ValueError):
            MaternSpec(nu=2.0, p=1, phi=0.0)
        for nu, phi in ((math.inf, 1.0), (math.nan, 1.0), (3.5, math.inf), (3.5, math.nan)):
            with pytest.raises(ValueError, match="nu|phi"):
                MaternSpec(nu=nu, p=1, phi=phi)

    @pytest.mark.parametrize("mu", [40.01, 45.5, 60.5, 140.5, 151.14, 152.0, 165.2, 170.5,
                                    200.0, 1e6])
    def test_orders_whose_normalizer_overflows_rejected(self, mu):
        # past mu = 40 the kernel's limit 1, taken where K_mu overflows, costs
        # accuracy (1.6e-14 at 42.5, 4.5e-10 at 60.5); from 135.5 the Gram
        # once raised OverflowError, and past 151.1385 Gamma(mu) 2^(mu-1) is inf
        with pytest.raises(ValueError, match="above 40: past it, setting the kernel to 1"):
            MaternSpec(nu=mu + 0.5, p=1, phi=1.0)

    def test_largest_order_matches_mpmath(self):
        # the kernel at mu = 40 against 40-digit mpmath, at z = 2 sqrt(40) r.
        # K_40 overflows below z of about 5.6e-7, where the kernel is taken as 1
        z = np.array([4e-7, 5.5e-7, 8e-7, 1e-6, 1e-4, 1.0, 5.0, 20.0])
        expected = np.array([0.99999999999999897436, 0.9999999999999980609,
                             0.99999999999999589744, 0.99999999999999358974,
                             0.9999999999358974359, 0.99361078255002380236,
                             0.85221160260155724707, 0.08335294099550243317])
        spec = MaternSpec(nu=40.5, p=1, phi=1.0)
        r = z / (2.0 * math.sqrt(40.0))
        np.testing.assert_allclose(matern_of_distance(spec, r), expected, rtol=0.0, atol=5e-15)
        K = spec.gram(np.concatenate([[0.3], 0.3 + r]))
        np.testing.assert_allclose(K[0, 1:], expected, rtol=0.0, atol=5e-15)


class TestMaternValues:
    def test_mu_one_pin(self):
        # argument 2*sqrt(mu)*phi*r = 0.6; value is z K_1(z)
        spec = MaternSpec(nu=2.0, p=2, phi=1.0)
        assert matern_of_distance(spec, 0.3) == pytest.approx(
            0.78170096385810131, rel=1e-12)

    def test_mu_three_pin(self):
        spec = MaternSpec(nu=3.5, p=1, phi=1.0)
        r = 1.7 / (2.0 * math.sqrt(3.0))
        assert matern_of_distance(spec, r) == pytest.approx(
            0.72363314760763236, rel=1e-12)

    def test_mu_half_is_exponential(self):
        spec = MaternSpec(nu=1.0, p=1, phi=1.0)
        for r in (0.1, 0.7, 2.0):
            z = 2.0 * math.sqrt(0.5) * r
            assert matern_of_distance(spec, r) == pytest.approx(math.exp(-z),
                                                                rel=1e-12)

    def test_five_dim_unit_argument_realization(self):
        # this parameterization makes the kernel argument equal the distance
        spec = MaternSpec(nu=6.0, p=5, phi=1.0 / (2.0 * math.sqrt(3.5)))
        for r in (0.4, 1.3, 2.0):
            assert matern_of_distance(spec, r) == pytest.approx(
                _matern35_closed(r), rel=1e-11)
        s = np.zeros((1, 5))
        t = np.full((1, 5), 2.0 / math.sqrt(5.0))
        assert matern_gram(spec, s, t)[0, 0] == pytest.approx(_matern35_closed(2.0),
                                                              rel=1e-11)

    def test_zero_distance_and_bounds(self):
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        assert matern_of_distance(spec, 0.0) == 1.0
        r = np.linspace(0.0, 6.0, 200)
        vals = matern_of_distance(spec, r)
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-15)  # decreasing in distance

    def test_gram_properties(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(0, 1, (25, 2))
        spec = MaternSpec(nu=2.5, p=2, phi=1.0)
        K = matern_gram(spec, A)
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(K), 1.0)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-10
        cross = matern_gram(spec, A[:5], A)
        np.testing.assert_allclose(cross, K[:5], atol=1e-15)


def _old_matern_of_distance(spec, r):
    """The gather / clip / scatter evaluation the in-place path replaced.

    Overflowed Bessel values take the limit 1, as in the in-place path.
    """
    r = np.asarray(r, dtype=float)
    mu = spec.mu
    z = 2.0 * math.sqrt(mu) * spec.phi * r
    out = np.ones_like(z)
    pos = z > 0.0
    if np.any(pos):
        zp = z[pos]
        k = bessel_k(mu, zp)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = zp ** mu * k / (math.gamma(mu) * 2.0 ** (mu - 1.0))
        out[pos] = np.where(np.isfinite(vals) & np.isfinite(k),
                            np.clip(vals, 0.0, 1.0), 1.0)
    return out


def _old_matern_gram(spec, A, B):
    """Distances from the broadcast (m, k, p) difference array, summed over p."""
    return _old_matern_of_distance(spec, np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)))


# half-integer (closed form) and general (trapezoid rule) orders mu
_BLOCK_ORDERS = (0.5, 1.5, 3.5, 1.0, 2.2)


class TestMaternBlockPath:
    """The per-coordinate, in-place block path against the expressions it replaced."""

    @pytest.mark.parametrize("p", range(1, 8))
    def test_gram_is_bit_identical_below_eight_coordinates(self, p):
        rng = np.random.default_rng(p)
        A = rng.uniform(0, 1, (40, p))
        B = np.vstack([rng.uniform(0, 1, (15, p)), A[:3]])   # some zero distances
        for mu in _BLOCK_ORDERS:
            for phi in (0.3, 4.0):
                spec = MaternSpec(nu=mu + p / 2.0, p=p, phi=phi)
                for other in (A, B):
                    np.testing.assert_array_equal(matern_gram(spec, A, other),
                                                  _old_matern_gram(spec, A, other))
                K = matern_gram(spec, A)
                assert np.all(np.diag(K) == 1.0)
                np.testing.assert_array_equal(K, _old_matern_gram(spec, A, A))

    def test_gram_from_eight_coordinates_is_within_sixteen_eps(self):
        # numpy sums a last axis of 8 or more pairwise, the block path in
        # order: distances differ in their last few bits, and kernel values,
        # which lie in [0, 1], by at most a few eps (7 seen over many specs)
        p = 9
        rng = np.random.default_rng(9)
        A = rng.uniform(0, 1, (60, p))
        B = rng.uniform(0, 1, (25, p))
        for mu in _BLOCK_ORDERS:
            for phi in (0.05, 1.0, 5.0):
                spec = MaternSpec(nu=mu + p / 2.0, p=p, phi=phi)
                np.testing.assert_allclose(matern_gram(spec, A, B), _old_matern_gram(spec, A, B),
                                           rtol=0.0, atol=16 * np.finfo(float).eps)
                assert np.all(np.diag(matern_gram(spec, A)) == 1.0)

    def test_gram_rejects_point_sets_of_different_dimension(self):
        spec = MaternSpec(nu=3.5, p=2, phi=1.0)
        with pytest.raises(ValueError, match="dimension"):
            matern_gram(spec, np.zeros((3, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("r", [
        0.0, 0.37, 1e-300, 40.0,                           # scalars
        np.array(0.0), np.array(0.8),                      # 0-d arrays
        np.array([0.0, 0.2, 0.0, 3.0, -1.0, np.nan]),      # zeros, a negative, a NaN
        np.linspace(0.01, 6.0, 50).reshape(5, 10),         # all positive
        np.array([1e-200, 1e-30, 0.5, 900.0]),             # overflowing and underflowing K
        np.zeros(0),
    ], ids=["0", "scalar", "tiny", "far", "0d-zero", "0d", "zeros", "positive", "extremes",
            "empty"])
    def test_of_distance_matches_old_code(self, r):
        before = np.array(r, copy=True)
        for mu in _BLOCK_ORDERS:
            spec = MaternSpec(nu=mu + 1.0, p=2, phi=1.3)
            new, old = matern_of_distance(spec, r), _old_matern_of_distance(spec, r)
            assert type(new) is type(old) and new.shape == old.shape
            np.testing.assert_array_equal(new, old)
        np.testing.assert_array_equal(r, before)      # the argument is not overwritten

    @pytest.mark.parametrize("mu", [0.7, 1.0, 1.5, 2.2, 3.0, 4.5])
    def test_kernel_is_one_where_the_bessel_function_saturates(self, mu):
        # the kernel is 1 where K_mu overflows to inf.  Rounding of z^mu K_mu(z)
        # leaves up to 1e-14 off 1, and up and down steps of that size, so
        # both checks allow 1e-13
        spec = MaternSpec(nu=mu + 0.5, p=1, phi=1.0)
        tiny = matern_of_distance(spec, np.geomspace(5e-324, 1e-120, 400))
        assert np.max(np.abs(tiny - 1.0)) <= 1e-13
        vals = matern_of_distance(spec, np.geomspace(5e-324, 1.0, 2000))
        assert np.max(np.diff(vals)) <= 1e-13
        K = matern_gram(spec, np.array([0.3, 0.3 + 1e-102]))
        assert np.max(np.abs(K - 1.0)) <= 1e-13

    @pytest.mark.parametrize("mu", [0.7, 1.0, 1.5, 2.2, 3.0, 4.5])
    def test_kernel_is_zero_at_huge_distances(self, mu):
        # z^mu overflows to inf where K_mu(z) underflows to 0
        spec = MaternSpec(nu=mu + 0.5, p=1, phi=1.0)
        np.testing.assert_array_equal(matern_of_distance(spec, [800.0, 1e100, 1e300]), 0.0)

    def test_gram_block_allocates_no_large_temporary(self):
        # the study's 1000 x 50 block at p = 5: four block-sized buffers are
        # live at the peak (the scaled distances, kept for z^mu, and the
        # closed form's sum, term and prefactor); the old (m, k, p)
        # difference array alone was five
        rng = np.random.default_rng(0)
        A, B = rng.uniform(0, 1, (1000, 5)), rng.uniform(0, 1, (50, 5))
        spec = MaternSpec(nu=6.0, p=5, phi=1.0 / (2.0 * math.sqrt(3.5)))
        tracemalloc.start()
        try:
            K = matern_gram(spec, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * K.nbytes, peak / K.nbytes


class TestProjectedKernel:
    def _kernel(self, nodes=48):
        return ProjectedKernel(MaternSpec(nu=3.5, p=1, phi=1.0),
                               gauss_legendre_01(nodes))

    def test_orthogonality_residual(self):
        pk = self._kernel()
        rng = np.random.default_rng(0)
        ys = rng.uniform(0, 1, 10)
        worst = max(pk.orthogonality_residual(float(y)) for y in ys)
        assert worst < 1e-8
        # a 1-D array is one-dimensional points, as gram reads it
        assert pk.orthogonality_residual(ys) == pk.orthogonality_residual(ys[:, None])

    def test_symmetry(self):
        pk = self._kernel()
        a = np.array([0.1, 0.5, 0.9])
        b = np.array([0.3, 0.7])
        np.testing.assert_allclose(pk.gram(a[:, None], b[:, None]),
                                   pk.gram(b[:, None], a[:, None]).T, atol=1e-13)

    def test_projected_gram_is_psd_with_tiny_jitter(self):
        pk = self._kernel()
        pts = np.linspace(0.01, 0.99, 50)[:, None]
        K = pk.gram(pts)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        jitter = 0.0
        for _ in range(8):
            try:
                np.linalg.cholesky(K + jitter * np.eye(50) if jitter else K)
                break
            except np.linalg.LinAlgError:
                jitter = 1e-12 if jitter == 0.0 else jitter * 10
        else:
            pytest.fail("projected Gram never factored")
        assert jitter <= 1e-6

    def test_empirical_rule_gives_discrete_orthogonality(self):
        # projection measure = the sample itself
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, 20)
        rule = QuadratureRule(u[:, None], np.full(20, 1.0 / 20))
        pk = ProjectedKernel(MaternSpec(nu=3.5, p=1, phi=1.0), rule)
        K = pk.gram(u[:, None])
        # sums over the sample of e_k(u_i) K(u_i, y) vanish for any y
        basis = np.column_stack([np.ones(20), u])
        for y in (0.2, 0.55, 0.83):
            col = pk.gram(u[:, None], np.array([[y]]))[:, 0]
            discrete = basis.T @ col / 20.0
            assert np.max(np.abs(discrete)) < 1e-10
        assert np.max(np.abs(basis.T @ K @ basis)) < 1e-8

    def test_nearly_flat_gram_at_rule_points_is_symmetric(self):
        # the rank-(p+1) updates cancel almost all of this kernel, and
        # unsymmetrized their rounding left max|K - K^T| / max|K| = 3.7e-11,
        # so cholesky_solve rejected the ridge system
        rng = np.random.default_rng(2175719495)
        X = rng.uniform(0, 1, (7, 1))
        kernel = ProjectedKernel(MaternSpec(nu=3.0, p=1, phi=0.3),
                                 QuadratureRule(X.copy(), np.full(7, 1.0 / 7)))
        K = kernel.gram(X)
        np.testing.assert_array_equal(K, K.T)
        data = Dataset(X, rng.normal(size=7))
        for lam in (1e-7 / 7, 1e-6 / 7):
            member = KernelRidgeFitter(kernel, lam=lam).fit(data, data.y)
            np.testing.assert_array_equal(member.fitted, member(data.X))

    @pytest.mark.parametrize("points", [
        np.array([[0.4]]),                                     # one point, p = 1
        np.array([[0.2, 0.3], [0.5, 0.6], [0.9, 1.0]]),        # on a line, p = 2
        np.array([[0.1, 0.5], [0.7, 0.5], [0.4, 0.5], [0.9, 0.5]]),
    ], ids=["one-point", "diagonal", "constant-coordinate"])
    def test_rule_that_misses_the_affine_span_is_rejected(self, points):
        m, p = points.shape
        rule = QuadratureRule(points, np.full(m, 1.0 / m))
        with pytest.raises(ValueError, match=f"{m} points in dimension {p}"):
            ProjectedKernel(MaternSpec(nu=3.5, p=p, phi=1.0), rule)


class _ZeroFitter:
    def fit(self, data, residual):
        return fit_linear_ols(data, np.zeros(data.n))


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestKernelRidgeFitterCaches:
    def _data(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (30, 2))
        return Dataset(x, 2.0 * x[:, 0] + np.sin(5.0 * x[:, 1]) + rng.normal(0, 0.1, 30))

    def test_one_gram_and_one_factorization_per_alternation(self, monkeypatch):
        grams = _counting(monkeypatch, matern_module, "matern_gram")
        solves = _counting(monkeypatch, ridge_module, "cholesky_solve")
        spec = MaternSpec(nu=4.5, p=2, phi=1.0)
        data = self._data(seed=1)
        fitter_g = KernelRidgeFitter(spec, lam=0.01)
        fit = fit_double_penalty(data, LinearFitter(), fitter_g)
        assert fit.iterations > 2
        assert (len(grams), len(solves)) == (1, 1)
        # same dataset object and lambda: nothing is rebuilt
        fit_double_penalty(data, LinearFitter(), fitter_g)
        assert (len(grams), len(solves)) == (1, 1)
        # a new dataset (equal values, new object) rebuilds both
        same_values = Dataset(data.X.copy(), data.y.copy())
        fit_double_penalty(same_values, LinearFitter(), fitter_g)
        assert (len(grams), len(solves)) == (2, 2)
        # a new lambda refactors the system on the kept Gram matrix
        fitter_g.lam = 0.02
        refit = fit_double_penalty(same_values, LinearFitter(), fitter_g)
        assert (len(grams), len(solves)) == (2, 3)
        assert refit.g_hat.coefficients.lam == 0.02

    def test_gcv_alternation_factors_once(self, monkeypatch):
        # GCV scores its whole grid from one eigendecomposition, so the
        # only factorization is the ridge system at the chosen lambda
        solves = _counting(monkeypatch, ridge_module, "cholesky_solve")
        data = self._data(seed=2)
        fitter_g = KernelRidgeFitter(MaternSpec(nu=4.5, p=2, phi=1.0), lam=None)
        fit = fit_double_penalty(data, LinearFitter(), fitter_g)
        assert fit.iterations > 2
        assert len(solves) == 1

    def test_gcv_reuses_the_fitter_gram(self, monkeypatch):
        grams = _counting(monkeypatch, matern_module, "matern_gram")
        data = self._data(seed=2)
        fitter_g = KernelRidgeFitter(MaternSpec(nu=4.5, p=2, phi=1.0), lam=None)
        fit_double_penalty(data, LinearFitter(), fitter_g)
        assert fitter_g.gcv_curve is not None
        assert len(grams) == 1

    def test_cached_fit_matches_direct_fit(self):
        data = self._data(seed=3)
        spec = MaternSpec(nu=4.5, p=2, phi=1.0)
        fitter = KernelRidgeFitter(spec, lam=0.01)
        fitter.fit(data, data.y)
        residual = data.y - 0.3 * data.X[:, 0]
        cached = fitter.fit(data, residual)
        direct = KernelRidgeFitter(spec, lam=0.01).fit(data, residual)
        np.testing.assert_allclose(cached.coefficients.alpha, direct.coefficients.alpha,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cached.fitted, cached(data.X))

    def test_member_does_not_keep_its_dataset_alive(self):
        # the model keeps the domain's corners, not the Dataset and its caches
        data = self._data(seed=4)
        X = data.X
        member = KernelRidgeFitter(MaternSpec(nu=4.5, p=2, phi=1.0), lam=0.01).fit(data, data.y)
        alive = weakref.ref(data)
        del data
        gc.collect()
        assert alive() is None
        np.testing.assert_array_equal(member(X), member.fitted)


class TestProjectedKernelRuleMoments:
    def test_moments_at_rule_points_are_cached(self, monkeypatch):
        rng = np.random.default_rng(9)
        u = rng.uniform(0, 1, (15, 1))
        pk = ProjectedKernel(MaternSpec(nu=3.5, p=1, phi=1.0),
                             QuadratureRule(u.copy(), np.full(15, 1.0 / 15)))
        grams = _counting(monkeypatch, projection_module, "matern_gram")
        K = pk.gram(u)
        assert len(grams) == 0                       # psi and the moments are cached
        assert pk.gram(u, u.copy()).tobytes() == K.tobytes()
        assert len(grams) == 0
        other = rng.uniform(0, 1, (4, 1))
        cross = pk.gram(other, u)
        assert len(grams) == 1                       # psi; the moments of `other` come from it
        pk.gram(other)
        assert len(grams) == 3                       # psi and the moments of `other`
        full = pk.gram(np.vstack([u, other]))        # no rule-point shortcut here
        np.testing.assert_allclose(full[:15, :15], K, rtol=0, atol=1e-13)
        np.testing.assert_allclose(full[15:, :15], cross, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("p", [1, 2])
    def test_rule_points_against_other_points_match_the_two_block_path(self, p):
        rng = np.random.default_rng(6 + p)
        pk = ProjectedKernel(MaternSpec(nu=3.5 + p / 2.0, p=p, phi=1.0),
                             tensor_or_qmc_rule(p, 64))
        rule, other = pk.quadrature.points, rng.uniform(0, 1, (9, p))
        cross = pk.gram(rule.copy(), other)
        # the moments of `other` from a second base block, not from the
        # transpose of psi; psi.T @ weights would sum in another layout
        psi = matern_gram(pk.base, rule, other)
        mb = matern_gram(pk.base, other, rule) @ pk._weighted_basis
        ea, eb = pk._basis_at(rule), pk._basis_at(other)
        old = psi - ea @ mb.T - pk._rule_moments @ eb.T + ea @ pk._moment_matrix @ eb.T
        np.testing.assert_allclose(cross, old, rtol=0, atol=1e-13)

    def test_orthogonality_residual_makes_one_base_block(self, monkeypatch):
        pk = ProjectedKernel(MaternSpec(nu=3.5, p=1, phi=1.0), gauss_legendre_01(48))
        grams = _counting(monkeypatch, projection_module, "matern_gram")
        assert pk.orthogonality_residual(np.array([[0.3], [0.71]])) < 1e-8
        assert len(grams) == 1

    def test_cross_block_against_rule_points_is_bit_identical(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 1, (12, 1))
        pk = ProjectedKernel(MaternSpec(nu=3.5, p=1, phi=1.0),
                             QuadratureRule(u.copy(), np.full(12, 1.0 / 12)))
        other = rng.uniform(0, 1, (30, 1))
        cross = pk.gram(other, u.copy())
        # the former path: A's moments from a second base block against the rule
        ma = pk._moments_at(other)
        eb = pk._basis_at(u)
        ea = pk._basis_at(other)
        psi = matern_gram(pk.base, other, u)
        old = psi - ea @ pk._rule_moments.T - ma @ eb.T + ea @ pk._moment_matrix @ eb.T
        assert cross.tobytes() == old.tobytes()


class TestKernelRidge:
    def _data(self, n=25, seed=1):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 1, n))
        y = np.sin(4 * x) + rng.normal(0, 0.1, n)
        return Dataset(x[:, None], y)

    def test_solution_solves_regularized_system(self):
        data = self._data()
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        lam = 0.05
        m = KernelRidgeFitter(spec, lam=lam).fit(data, data.y)
        K = matern_gram(spec, data.unit_X)
        alpha = m.coefficients.alpha
        np.testing.assert_allclose((K + data.n * lam * np.eye(data.n)) @ alpha,
                                   data.y, atol=1e-8)
        np.testing.assert_allclose(m(data.X), K @ alpha, atol=1e-10)
        assert m.penalty_value == pytest.approx(lam * float(alpha @ K @ alpha))

    def test_members_and_models_compare_without_raising(self):
        data = self._data()
        fitter = KernelRidgeFitter(MaternSpec(nu=2.5, p=1, phi=1.0), lam=0.05)
        a, b = fitter.fit(data, data.y), fitter.fit(data, data.y.copy())
        for left, right in ((a, b), (a.coefficients, b.coefficients)):
            assert (left == right) is False
            assert (left == left) is True

    def test_systems_compare_by_identity_without_raising(self):
        a, b = RidgeSystem.factor(np.eye(3), 0.1), RidgeSystem.factor(np.eye(3), 0.1)
        assert (a == b) is False
        assert (a == a) is True

    def test_factor_rejects_nonpositive_lambda(self):
        # an infinite lambda would factor, with warnings, into NaN entries
        for lam in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                RidgeSystem.factor(np.eye(3), lam)

    def test_factor_takes_l_inverse_and_jitter_without_a_solve(self, monkeypatch):
        # the factor-only call gives what a solve against the identity gives,
        # also on the duplicated-centers Gram that needs jitter
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        base = self._data(n=10, seed=6)
        duplicated = Dataset(np.repeat(base.X, 2, axis=0), np.repeat(base.y, 2))
        rhs_shapes = []

        def recorded(A, B):
            rhs_shapes.append(np.shape(B))
            return cholesky_solve(A, B)

        monkeypatch.setattr(ridge_module, "cholesky_solve", recorded)
        jitters = []
        for data, lam in ((self._data(), 0.05), (duplicated, 1e-18)):
            K = matern_gram(spec, data.unit_X)
            system = RidgeSystem.factor(K, lam)
            full = cholesky_solve(K + data.n * lam * np.eye(data.n), np.eye(data.n))
            assert system.jitter == full.jitter_used
            np.testing.assert_array_equal(system.inverse_factor, full.inverse_factor)
            jitters.append(system.jitter)
        assert jitters[0] == 0.0 and jitters[1] > 0.0
        assert rhs_shapes == [(25, 0), (20, 0)]

    def test_ordinary_fit_uses_no_jitter(self):
        data = self._data()
        m = KernelRidgeFitter(MaternSpec(nu=2.5, p=1, phi=1.0), lam=0.05).fit(data, data.y)
        assert m.coefficients.jitter == 0.0

    def test_jitter_of_singular_system_is_kept(self):
        # duplicated centers make K singular, and a tiny lambda cannot fix it
        base = self._data(n=10, seed=6)
        data = Dataset(np.repeat(base.X, 2, axis=0), np.repeat(base.y, 2))
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        lam = 1e-18
        K = matern_gram(spec, data.unit_X)
        model = kernel_ridge_fit(spec, data, data.y, RidgeSystem.factor(K, lam)).coefficients
        assert model.jitter > 0.0
        system = K + (data.n * lam + model.jitter) * np.eye(data.n)
        np.testing.assert_allclose(system @ model.alpha, data.y, atol=1e-6)

    def test_jitter_of_singular_system_is_kept_through_the_alternation(self):
        # the same singular system, factored once by the fitter and reused
        base = self._data(n=10, seed=6)
        data = Dataset(np.repeat(base.X, 2, axis=0), np.repeat(base.y, 2))
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        lam = 1e-18
        fit = fit_double_penalty(data, _ZeroFitter(), KernelRidgeFitter(spec, lam=lam),
                                 StoppingRule(max_iters=3))
        assert fit.iterations > 1
        model = fit.g_hat.coefficients
        assert model.jitter > 0.0
        K = matern_gram(spec, data.unit_X)
        system = K + (data.n * lam + model.jitter) * np.eye(data.n)
        np.testing.assert_allclose(system @ model.alpha, data.y, atol=1e-6)

    def test_perturbation_optimality(self):
        # the ridge solution minimizes ||r - K a||_n^2 + lam a' K a
        data = self._data(seed=2)
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        lam = 0.1
        m = KernelRidgeFitter(spec, lam=lam).fit(data, data.y)
        K = matern_gram(spec, data.unit_X)
        alpha = m.coefficients.alpha

        def obj(a):
            return (np.mean((data.y - K @ a) ** 2) + lam * float(a @ K @ a))

        base = obj(alpha)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert obj(alpha + rng.normal(scale=1e-4, size=data.n)) >= base - 1e-14

    def test_training_error_decreases_with_lambda(self):
        data = self._data(seed=3)
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        errs = []
        for lam in (1.0, 0.1, 0.01, 1e-6):
            m = KernelRidgeFitter(spec, lam=lam).fit(data, data.y)
            errs.append(float(np.mean((data.y - m(data.X)) ** 2)))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        # near-interpolation is limited by the Gram spectrum, not exact
        assert errs[-1] < 0.01

    def test_gcv_picks_grid_minimizer(self):
        data = self._data(seed=4)
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        lam, curve = gcv_select_lambda(matern_gram(spec, data.unit_X), data.y)
        best = min(curve, key=lambda pt: pt.score)
        assert lam == best.lam
        assert any(pt.lam == lam for pt in curve)

    def test_fitter_freezes_gcv_choice(self):
        data = self._data(seed=5)
        spec = MaternSpec(nu=2.5, p=1, phi=1.0)
        fitter = KernelRidgeFitter(spec, lam=None)
        fitter.fit(data, data.y)
        chosen = fitter.lam
        assert chosen is not None
        fitter.fit(data, np.zeros(data.n) + 0.1)  # very different residual
        assert fitter.lam == chosen


def _gcv_by_cholesky(K, residual):
    # the per-point oracle: I - A = n*lambda (K + n*lambda*I)^{-1}, one
    # factorization and explicit inverse per grid point
    n = K.shape[0]
    grid = np.logspace(-6.0, 2.0, 20) / n
    eye = np.eye(n)
    scores = []
    for lam in grid:
        n_lam = n * lam
        inv = cholesky_solve(K + n_lam * eye, eye).solution
        resid_vec = n_lam * (inv @ residual)
        tr = n_lam * float(np.trace(inv))
        scores.append(float(np.mean(resid_vec ** 2)) / ((tr / n) ** 2))
    return float(grid[int(np.argmin(scores))]), scores


class TestGcv:
    @given(n=st.integers(5, 60), p=st.sampled_from([1, 2]), mu=st.sampled_from([1.5, 2.5, 3.0]),
           phi=st.floats(0.3, 3.0), projected=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_point_cholesky(self, n, p, mu, phi, projected, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (n, p))
        residual = rng.normal(size=n)
        spec = MaternSpec(nu=mu + p / 2.0, p=p, phi=phi)
        if projected:
            K = ProjectedKernel(spec, QuadratureRule(X.copy(), np.full(n, 1.0 / n))).gram(X)
        else:
            K = matern_gram(spec, X)
        lam, curve = gcv_select_lambda(K, residual)
        expected_lam, expected_scores = _gcv_by_cholesky(K, residual)
        assert lam == expected_lam
        # eigh's eigenvalues are exact to about eps*||K|| (1e-14 at n = 60),
        # which at the grid floor n*lambda = 1e-6 moves a weight by ~1e-8;
        # the largest score difference seen, at n = 60 and phi = 0.3, was 2.9e-8
        np.testing.assert_allclose([pt.score for pt in curve], expected_scores, rtol=1e-7)
        assert [pt.lam for pt in curve] == list(np.logspace(-6.0, 2.0, 20) / n)

    def test_singular_gram_of_duplicated_centers(self):
        rng = np.random.default_rng(6)
        X = np.repeat(rng.uniform(0.0, 1.0, (10, 1)), 2, axis=0)
        K = matern_gram(MaternSpec(nu=2.5, p=1, phi=1.0), X)
        lam, curve = gcv_select_lambda(K, rng.normal(size=20))
        assert all(np.isfinite(pt.score) and pt.score > 0.0 for pt in curve)
        assert lam in [pt.lam for pt in curve]

    def test_residual_length_must_match_the_gram(self):
        with pytest.raises(ValueError, match="residual has 11 entries, the 10 x 10 Gram needs 10"):
            gcv_select_lambda(np.eye(10), np.ones(11))

    def test_ties_go_to_the_smaller_lambda(self):
        # a zero residual scores 0 at every grid point
        K = matern_gram(MaternSpec(nu=2.5, p=1, phi=1.0), np.linspace(0.0, 1.0, 8)[:, None])
        lam, curve = gcv_select_lambda(K, np.zeros(8))
        assert {pt.score for pt in curve} == {0.0}
        assert lam == curve[0].lam == 1e-6 / 8

    def test_negative_eigenvalues_count_as_zero(self):
        # below 0 an eigenvalue of a Gram matrix can only be rounding error
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        spectrum = np.linspace(0.0, 3.0, 12)
        residual = rng.normal(size=12)
        lam, curve = gcv_select_lambda(q @ np.diag(spectrum) @ q.T, residual)
        spectrum[0] = -1e-4
        noisy_lam, noisy_curve = gcv_select_lambda(q @ np.diag(spectrum) @ q.T, residual)
        assert noisy_lam == lam
        np.testing.assert_allclose([pt.score for pt in noisy_curve],
                                   [pt.score for pt in curve], rtol=1e-8)
