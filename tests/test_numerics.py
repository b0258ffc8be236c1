"""Numerical kernel layer: Bessel K, quadrature, designs, linear algebra.

Reference values were frozen from a 30-digit arbitrary-precision
evaluation, independent of the implementation under test.  A second,
independent Bessel K oracle is the integral representation evaluated by
Gauss-Legendre quadrature below.
"""

import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dpm.numerics.bessel as bessel_module
import dpm.numerics.design as design_module
from dpm.numerics import (
    CholeskySolveResult,
    QuadratureRule,
    bessel_k,
    cholesky_solve,
    gauss_legendre_01,
    halton,
    maximin_lhs,
    tensor_or_qmc_rule,
)

# (order, x, K_order(x)) to 17 digits
BESSEL_TABLE = [
    (0, 0.05, 3.1142340294719898),
    (0, 0.5, 0.92441907122766586),
    (0, 1.0, 0.42102443824070833),
    (0, 2.0, 0.11389387274953344),
    (0, 10.0, 1.7780062316167652e-5),
    (0, 30.0, 2.1324774964630564e-14),
    (1, 0.05, 19.909674325882505),
    (1, 0.5, 1.6564411200033009),
    (1, 1.0, 0.60190723019723457),
    (1, 5.0, 0.0040446134454521642),
    (1, 30.0, 2.1677320018915494e-14),
    (2, 0.1, 199.50396464211412),
    (2, 1.0, 1.6248388986351775),
    (2, 2.0, 0.25375975456605586),
    (2, 10.0, 2.1509817006932769e-5),
    (3, 0.05, 63980.006239507652),
    (3, 0.5, 62.057909529930256),
    (3, 1.0, 7.1012628247379445),
    (3, 2.0, 0.64738539094863415),
    (3, 5.0, 0.0082917684152309322),
    (3, 30.0, 2.4713310636589929e-14),
    (0.5, 0.1, 3.58616683879726),
    (0.5, 1.0, 0.46106850444789456),
    (0.5, 2.0, 0.11993777196806145),
    (1.5, 0.5, 3.2251428104997607),
    (1.5, 1.0, 0.92213700889578912),
    (1.5, 10.0, 1.9792825903075698e-5),
    (2.5, 0.05, 6723.1886696423608),
    (2.5, 1.0, 3.2274795311352619),
    (2.5, 2.0, 0.3897977588961997),
    (3.5, 0.1, 59390.509017321414),
    (3.5, 1.0, 17.059534664572099),
    (3.5, 2.0, 1.1544010551925914),
    (3.5, 30.0, 2.6063619483386783e-14),
    (0.3, 0.05, 3.8119663367691108),
    (0.3, 1.0, 0.43507602420880202),
    (0.3, 1.99, 0.11748072729765913),
    (0.3, 2.01, 0.11461225751690988),
    (0.3, 3.3, 0.024908607983984746),
    (0.3, 10.0, 1.7856607016823022e-5),
    (0.3, 30.0, 2.1356270283260949e-14),
    (1.75, 0.05, 292.11964252968551),
    (1.75, 1.0, 1.2044027254924635),
    (1.75, 1.99, 0.21446011524194251),
    (1.75, 2.01, 0.20820385688451433),
    (1.75, 3.3, 0.03687587911238402),
    (1.75, 10.0, 2.0572747155312189e-5),
    (1.75, 30.0, 2.2422760705446107e-14),
    (2.7, 0.05, 16338.512785968002),
    (2.7, 1.0, 4.3742418261911628),
    (2.7, 1.99, 0.48175160391427536),
    (2.7, 2.01, 0.46488797285504311),
    (2.7, 3.3, 0.063422021763391397),
    (2.7, 10.0, 2.5138298286300634e-5),
    (2.7, 30.0, 2.4030878842059365e-14),
    (4.2, 0.05, 2.0759340747294533e+7),
    (4.2, 1.0, 66.009022106017301),
    (4.2, 1.99, 2.9577490648117019),
    (4.2, 2.01, 2.8202452111241271),
    (4.2, 3.3, 0.22424753757601373),
    (4.2, 10.0, 4.0876218717040477e-5),
    (4.2, 30.0, 2.8465803726034514e-14),
]

# (order, x, bessel_k(order, x)) as once recorded from the implementation,
# now a regression pin at rel 1e-13: their last bits depend on which exp
# numpy dispatches for the host's CPU (AVX-512 or AVX2)
BESSEL_BITS = [
    (0, 5e-324, 744.5560034370394),
    (0, 1e-300, 690.8914594138721),
    (0, 1e-10, 23.14178244559887),
    (0, 0.5, 0.9244190712276658),
    (0, 2.0, 0.11389387274953346),
    (0, 30.0, 2.1324774964630566e-14),
    (0, 700.0, 4.6697764316853765e-306),
    (0.3, 5e-324, 1.807351518830342e+97),
    (0.3, 1e-08, 462.5636031890663),
    (0.3, 1.0, 0.43507602420880204),
    (0.3, 7.3, 0.0003101538479348967),
    (0.3, 100.0, 4.658713811548969e-45),
    (2.7, 1e-100, 5.018699119639027e+270),
    (2.7, 0.01, 1260621.683748959),
    (2.7, 1.5, 1.2536787475216224),
    (2.7, 20.0, 6.857603127612181e-10),
    (2.7, 700.0, 4.694138581080098e-306),
    (3, 1e-80, 8.000000000000031e+240),
    (3, 0.2, 995.0245582978778),
    (3, 3.0, 0.12217037575718356),
    (3, 64.0, 2.68891929680868e-29),
    (40, 10.0, 5.93822468064936e+17),
    (40, 50.0, 1.299869709195081e-16),
    (40, 700.0, 1.4626631188107987e-305),
]

# 24-point Gauss-Legendre nodes/weights on [0, 1], used per panel.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_X = (_GL_X + 1.0) / 2.0
_GL_W = _GL_W / 2.0


def _log_cosh(a: np.ndarray) -> np.ndarray:
    """log(cosh(a)) without overflow for large a."""
    a = np.abs(a)
    small = a < 20.0
    out = a - math.log(2.0) + np.log1p(np.exp(-2.0 * np.clip(a, 20.0, None)))
    if np.any(small):
        out = np.where(small, np.log(np.cosh(np.where(small, a, 0.0))), out)
    return out


def _integral_upper_limit(order: float, x: float) -> float:
    """Truncation point T: integrand negligible relative to its peak beyond T."""
    tstar = math.asinh(order / x) if order > 0.0 else 0.0
    peak = -x * math.cosh(tstar) + float(_log_cosh(np.array(order * tstar)))
    t = tstar + 1.0
    while t < 800.0:
        val = -x * math.cosh(t) + float(_log_cosh(np.array(order * t)))
        if val < peak - 45.0 or val < -760.0:
            break
        t += 1.0
    return t


def _integral_on_panels(order: float, x: float, n_panels: int, upper: float) -> float:
    edges = np.linspace(0.0, upper, n_panels + 1)
    width = edges[1] - edges[0]
    nodes = (edges[:-1, None] + width * _GL_X[None, :]).ravel()
    weights = np.broadcast_to(width * _GL_W, (n_panels, _GL_X.size)).ravel()
    # e^{-x} is taken out, so that the exponent stays small at large x
    with np.errstate(over="ignore"):
        expo = -x * (2.0 * np.sinh(0.5 * nodes) ** 2) + _log_cosh(order * nodes)
        return float(np.exp(expo) @ weights) * math.exp(-x)


def k_integral(order: float, x: float) -> float:
    """K_order(x) = e^{-x} int_0^inf exp(-x (cosh t - 1)) cosh(order t) dt.

    Composite 24-point Gauss-Legendre panels on [0, T], doubled until two
    refinements agree to 1e-12 relative.
    """
    upper = _integral_upper_limit(order, x)
    n_panels = max(4, int(math.ceil(upper)))
    approx = _integral_on_panels(order, x, n_panels, upper)
    for _ in range(3):
        refined = _integral_on_panels(order, x, 2 * n_panels, upper)
        if abs(refined - approx) < 1e-12 * abs(refined):
            return refined
        approx, n_panels = refined, 2 * n_panels
    return approx


def _old_k_half_integer(n, x):
    """The closed form K_{n+1/2} as written before its buffers were reused."""
    with np.errstate(over="ignore", divide="ignore"):
        total = np.zeros_like(x)
        for k in range(n + 1):
            coeff = math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k))
            total += coeff / (2.0 * x) ** k
        return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) * total


def _old_bessel_k(order, x):
    """bessel_k on a 1-D array by the order's method, with the unbuffered closed form."""
    if (2.0 * order) % 2.0 == 1.0:
        return _old_k_half_integer(int(round(order - 0.5)), x)
    return bessel_module._k_general(order, x)


class TestBesselK:
    @pytest.mark.parametrize("order,x,expected", BESSEL_TABLE)
    def test_frozen_table(self, order, x, expected):
        assert bessel_k(order, x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("order,x,expected", BESSEL_BITS)
    def test_values_are_bit_exact(self, order, x, expected, monkeypatch):
        # the general path's bookkeeping (which arguments share a chunk, in
        # what order the octaves run) must not move a value by one ulp, which
        # the 17-digit table above, checked at rel 1e-13, would not see; the
        # scalar value is compared with itself, so this holds on any host
        value = bessel_k(order, x)
        assert value == pytest.approx(expected, rel=1e-13)
        assert bessel_k(order, np.array([x]))[0] == value
        # x among copies, arguments of its own octave and of 70 others, shuffled
        rng = np.random.default_rng(24)
        octave = math.frexp(x)[1]
        batch = rng.permutation(np.concatenate([
            np.full(5, x),
            np.ldexp(rng.uniform(0.5, 1.0, 40), octave),
            np.ldexp(rng.uniform(0.5, 1.0, 200), rng.integers(-60, 10, 200)),
        ]))
        at = np.flatnonzero(batch == x)
        np.testing.assert_array_equal(bessel_k(order, batch)[at], value)
        # chunks of one to three rows, so x's octave takes many chunks
        monkeypatch.setattr(bessel_module, "_BLOCK_ENTRIES", 64)
        np.testing.assert_array_equal(bessel_k(order, batch)[at], value)

    @pytest.mark.parametrize("order", [0, 0.3, 2.7, 3])
    def test_shuffled_batch_matches_scalar_calls(self, order):
        # octaves -40..9 interleaved, so each octave's arguments are scattered
        # through the batch; octave -40 (157 nodes, 52 rows a chunk) gets
        # 120 more arguments and takes three chunks
        rng = np.random.default_rng(23)
        octaves = np.concatenate([rng.integers(-40, 10, 300), np.full(120, -40)])
        x = np.ldexp(rng.uniform(0.5, 1.0, octaves.size), rng.permutation(octaves))
        batch = bessel_k(order, x)
        for xi, bi in zip(x, batch):
            assert bi == bessel_k(order, float(xi)), (order, xi)

    def test_half_integer_elementary_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
        for x in (0.3, 1.0, 4.7):
            assert bessel_k(0.5, x) == pytest.approx(
                math.sqrt(math.pi / (2 * x)) * math.exp(-x), rel=1e-13)

    def test_vectorized_matches_scalar(self):
        # arguments on both sides of the series / continued-fraction switch
        xs = np.array([0.2, 1.0, 1.9, 2.1, 3.3, 8.0, 25.0])
        for order in (2.5, 0, 1, 3, 2.7):
            batch = bessel_k(order, xs)
            assert batch.shape == xs.shape
            for xi, bi in zip(xs, batch):
                assert bi == bessel_k(order, float(xi)), (order, xi)

    @given(st.floats(0.0, 6.0), st.floats(0.05, 30.0))
    @example(2.2250738585072014e-309, 1.0)  # an order near 0 at a tiny argument
    @settings(max_examples=100, deadline=None)
    def test_matches_integral_oracle(self, order, x):
        assert bessel_k(order, x) == pytest.approx(k_integral(order, x), rel=1e-12)

    def test_matches_scipy(self):
        kv = pytest.importorskip("scipy.special").kv
        xs = np.geomspace(0.05, 30.0, 301)
        for order in (0, 1, 2, 2.7, 3, 0.3, 1.75, 4.2, 0.49, 6):
            # scipy's own error reaches about 1e-13 just below x = 2
            np.testing.assert_allclose(bessel_k(order, xs), kv(order, xs), rtol=5e-13)

    @pytest.mark.parametrize("order", [0, 3, 2.7])
    def test_underflows_to_exact_zero(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(order, 750.0) == 0.0
            np.testing.assert_array_equal(bessel_k(order, np.array([750.0, 1e5])), 0.0)

    # near the float64 maximum, from 30-digit mpmath
    @pytest.mark.parametrize("order,x,expected", [
        (3, 1e-101, 8.0e303),
        (3, 1e-102, 8.0e306),
        (1.49, 1e-203, 3.67207483935814826e302),
        (2.7, 1e-113, 6.31816785586261162e305),
        (3, 1e-80, 8.0e240),
    ])
    def test_near_overflow_values(self, order, x, expected):
        assert bessel_k(order, x) == pytest.approx(expected, rel=1e-13)
        assert bessel_k(order, np.array([x, 1.0]))[0] == bessel_k(order, x)

    # the weights cosh((mu+1) t_k) overflow here before K does; 30-digit mpmath
    @pytest.mark.parametrize("order,x,expected", [
        (1.495, 1.27e-203, 2.66866506866798819386791464444e303),
        (1.49, 3.2e-205, 6.19780711378844832475410297103e304),
        (1.45, 1e-212, 3.03900353671309496998227485599e307),
        (1.3, 2e-237, 5.64924332960302688628534478312e307),
    ])
    def test_finite_where_the_weights_overflow(self, order, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(order, x) == pytest.approx(expected, rel=1e-12)
            assert bessel_k(order, np.array([x, 1.0]))[0] == bessel_k(order, x)

    # the closed form's coefficient (n+k)!/(k!(n-k)!) overflows float64 from
    # n = 135, so these orders take the trapezoid rule; 40-digit mpmath
    @pytest.mark.parametrize("order,x,expected", [
        (135.5, 1.0, 7.1119184257420032e+269),
        (135.5, 100.0, 1.8135047085669522e-9),
        (135.5, 300.0, 4.2387476997550585e-119),
        (150.5, 10.0, 1.2585966039777569e+156),
        (200.5, 50.0, 6.4275414961938903e+91),
    ])
    def test_large_half_integer_orders(self, order, x, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(order, x) == pytest.approx(expected, rel=3e-14)
            values = bessel_k(order, np.array([1e-300, 0.5, x]))
        assert values[0] == values[1] == math.inf      # K_135.5(0.5) is 4.4e310
        assert values[2] == bessel_k(order, x)

    @pytest.mark.parametrize("order,x", [(3, 1e-104), (200, 1e-2), (3.5, 1e-160), (1, 5e-324)])
    def test_overflow_is_inf(self, order, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(order, x) == math.inf
            values = bessel_k(order, np.array([x, 5.0, 300.0]))
        assert values[0] == math.inf
        assert np.all(np.isfinite(values[1:])) and np.all(values[1:] > 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_k(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -3.0])
    @pytest.mark.parametrize("order", [0.0, 2.5, 3.0])
    def test_invalid_arguments_anywhere_in_an_array(self, bad, order):
        for x in (bad, np.array(bad), np.array([1.0, bad, 2.0]), np.array([[bad, 4.0]])):
            with pytest.raises(ValueError, match="strictly positive and finite"):
                bessel_k(order, x)

    @pytest.mark.parametrize("order", [0.5, 3.5, 0.0, 2.7, 200.0])
    def test_scalar_and_0d_inputs_return_floats(self, order):
        for x in (0.8, 1e-300, np.float64(0.8), np.array(0.8), np.array(1e-300)):
            value = bessel_k(order, x)
            assert type(value) is float
            assert value == _old_bessel_k(order, np.atleast_1d(np.asarray(x, dtype=float)))[0]

    # arrays that mix overflowing, finite and underflowing values
    @pytest.mark.parametrize("order", [0.5, 1.5, 3.5, 10.5, 0.0, 1.0, 3.0, 2.7, 40.0, 200.0])
    def test_mixed_saturated_array_matches_old_code(self, order):
        rng = np.random.default_rng(int(order * 10))
        x = np.concatenate([np.geomspace(1e-300, 800.0, 300), rng.uniform(1e-3, 30.0, 200)])
        rng.shuffle(x)
        np.testing.assert_array_equal(bessel_k(order, x), _old_bessel_k(order, x))
        block = x.reshape(20, 25)
        np.testing.assert_array_equal(bessel_k(order, block), _old_bessel_k(order, x).reshape(20, 25))

    @given(st.floats(0.1, 20.0), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, x, n):
        # K_{n+1}(x) = K_{n-1}(x) + (2n/x) K_n(x)
        lhs = bessel_k(n + 1, x)
        rhs = bessel_k(n - 1, x) + (2 * n / x) * bessel_k(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(st.floats(0.05, 30.0), st.floats(0.05, 30.0),
           st.sampled_from([0.5, 1.5, 2.0, 2.7, 3.0, 3.5]))
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_x(self, a, b, order):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert bessel_k(order, lo) > bessel_k(order, hi)

    def test_octave_edges_match_scalar_and_oracle(self):
        # arguments in [2^(k-1), 2^k) share nodes: the step is set at the
        # upper edge and the truncation at the lower one
        edges = 2.0 ** np.arange(-30, 10)
        xs = np.concatenate([edges, np.nextafter(edges, 0.0)])
        for order in (0, 0.3, 1, 2.7, 3):
            batch = bessel_k(order, xs)
            for xi, bi in zip(xs, batch):
                assert bi == bessel_k(order, float(xi)), (order, xi)
                assert bi == pytest.approx(k_integral(order, xi), rel=1e-14), (order, xi)

    # values of the Temme series that the trapezoid rule replaced; 30-digit
    # mpmath puts them within 4e-16 (K_0) and 2.3e-14 (K_0.3) of K
    @pytest.mark.parametrize("order,x,expected", [
        (0, 5e-324, 744.5560034370394),
        (0, 1e-310, 713.9173103438123),
        (0, 1e-300, 690.8914594138719),
        (0.3, 5e-324, 1.8073515188303058e+97),
        (0.3, 1e-310, 1.841526723163687e+93),
        (0.3, 1e-300, 1.841526723163687e+90),
    ])
    def test_tiny_and_subnormal_arguments(self, order, x, expected):
        assert bessel_k(order, x) == pytest.approx(expected, rel=1e-13)
        assert bessel_k(order, np.array([x, 2.0 * x, 1.0]))[0] == bessel_k(order, x)

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_half_order_on_subnormal_arguments(self, x):
        # pi/(2x) overflows below 8.7e-309; K_{1/2} = sqrt(pi/(2x)) e^-x does not
        assert bessel_k(0.5, x) == pytest.approx(math.sqrt(math.pi / 2) / math.sqrt(x), rel=1e-13)
        normal = np.array([8.8e-309, 1e-308, 2.5])
        np.testing.assert_array_equal(bessel_k(0.5, np.append(normal, x))[:3],
                                      _old_k_half_integer(0, normal))

    @given(st.floats(0.0, 6.0), st.floats(math.log(1e-6), math.log(700.0)))
    @settings(max_examples=100, deadline=None)
    def test_matches_integral_oracle_from_1e_6_to_700(self, order, log_x):
        x = math.exp(log_x)
        value = bessel_k(order, x)
        assume(0.0 < value < math.inf)
        assert value == pytest.approx(k_integral(order, x), rel=1e-12)

    def test_block_peak_memory(self):
        # octaves are evaluated in row chunks of a bounded number of nodes
        block = np.random.default_rng(3).uniform(0.01, 10.0, (1000, 50))
        tracemalloc.start()
        try:
            bessel_k(3.0, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * block.nbytes, peak / block.nbytes

    def test_rule_cache_is_bounded_by_bytes(self, monkeypatch):
        # 77 occupied octaves (0.22 MB of rules) are all kept for the next
        # call; 1,007 octaves (39 MB) leave the cache at its byte bound
        cache = bessel_module._RuleCache(bessel_module._build_rule, bessel_module._RULE_CACHE_BYTES)
        monkeypatch.setattr(bessel_module, "_octave_rule", cache)
        x = np.geomspace(1e-20, 800.0, 3000)
        first = bessel_k(0.3, x)

        def rebuilt(e, mu):
            raise AssertionError(f"the rule of octave {e} was built again")

        monkeypatch.setattr(cache, "_build", rebuilt)
        np.testing.assert_array_equal(bessel_k(0.3, x), first)
        monkeypatch.setattr(cache, "_build", bessel_module._build_rule)
        bessel_k(0.3, np.geomspace(1e-300, 800.0, 3000))
        assert 0 < cache.nbytes <= cache.max_bytes


class TestGaussLegendre:
    def test_weights_and_domain(self):
        rule = gauss_legendre_01(12)
        assert rule.points.shape == (12, 1)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.points > 0) and np.all(rule.points < 1)

    def test_sin_integral_n5(self):
        # int_0^1 sin(3x) dx; 5 nodes carry a ~2e-8 truncation error
        rule = gauss_legendre_01(5)
        got = rule.integrate(np.sin(3.0 * rule.points[:, 0]))
        assert got == pytest.approx(0.66333083220014849, abs=1e-7)

    def test_sin_integral_n8(self):
        rule = gauss_legendre_01(8)
        got = rule.integrate(np.sin(3.0 * rule.points[:, 0]))
        assert got == pytest.approx(0.66333083220014849, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_polynomial_exactness(self, n):
        # degree 2n-1 is integrated exactly
        rule = gauss_legendre_01(n)
        k = 2 * n - 1
        got = rule.integrate(rule.points[:, 0] ** k)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13)


class TestHalton:
    def test_first_points(self):
        assert halton(1, 1)[0] == 0.5
        assert halton(3, 1)[0] == 0.75
        np.testing.assert_allclose(halton(1, 2), [0.5, 1.0 / 3.0])

    def test_base2_van_der_corput_prefix(self):
        got = [halton(i, 1)[0] for i in range(1, 8)]
        assert got == [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]

    def test_dimension_cap(self):
        assert halton(5, 20).shape == (20,)
        with pytest.raises(ValueError):
            halton(5, 21)
        with pytest.raises(ValueError):
            halton(0, 2)

    def test_index_array_matches_scalar_calls(self):
        block = halton(np.arange(1, 5001), 20)
        assert block.shape == (5000, 20)
        assert np.array_equal(block, np.array([halton(i, 20) for i in range(1, 5001)]))
        with pytest.raises(ValueError):
            halton(np.array([3, 0]), 2)

    @given(st.integers(1, 5000), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_in_open_unit_cube(self, index, dims):
        pt = halton(index, dims)
        assert np.all(pt > 0.0) and np.all(pt < 1.0)


class TestQuadratureRule:
    def test_rules_compare_by_identity_without_raising(self):
        a, b = gauss_legendre_01(4), gauss_legendre_01(4)
        np.testing.assert_array_equal(a.points, b.points)
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True

    def test_validation(self):
        pts = np.array([[0.25], [0.75]])
        with pytest.raises(ValueError):
            QuadratureRule(pts, np.array([0.6, 0.6]))  # weights sum 1.2
        with pytest.raises(ValueError):
            QuadratureRule(np.array([[1.5], [0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(pts, np.array([1.2, -0.2]))

    def test_integrate_constant(self):
        rule = QuadratureRule(np.array([[0.2], [0.9]]), np.array([0.3, 0.7]))
        assert rule.integrate(np.array([5.0, 5.0])) == pytest.approx(5.0)
        assert rule.dim == 1

    def test_tensor_or_qmc_dispatch(self):
        r1 = tensor_or_qmc_rule(1, 16)
        assert r1.points.shape == (16, 1)
        r2 = tensor_or_qmc_rule(2, 80)
        side = math.isqrt(80)
        assert r2.points.shape == (side * side, 2)
        r5 = tensor_or_qmc_rule(5, 300)
        assert r5.points.shape == (300, 5)
        assert np.allclose(r5.weights, 1.0 / 300)

    def test_tensor_rule_integrates_separable_product(self):
        rule = tensor_or_qmc_rule(2, 100)
        vals = rule.points[:, 0] * rule.points[:, 1] ** 2
        assert rule.integrate(vals) == pytest.approx(0.5 * (1.0 / 3.0), rel=1e-12)


def maximin_lhs_full_rescore(n, p, rng, restarts=2, swaps=150):
    """Oracle: maximin LHS that re-scores every candidate from scratch."""

    def min_pairwise(design):
        d = np.sqrt(((design[:, None] - design[None, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        return d.min()

    best, best_score = None, -1.0
    for _ in range(restarts):
        design = (np.argsort(rng.random((p, n)), axis=1).T + rng.random((n, p))) / n
        current = min_pairwise(design)
        for _ in range(swaps):
            j = rng.integers(p)
            a, b = rng.integers(n, size=2)
            candidate = design.copy()
            candidate[[a, b], j] = candidate[[b, a], j]
            score = min_pairwise(candidate)
            if score > current:
                design, current = candidate, score
        if current > best_score:
            best_score, best = current, design
    return best


def search_budget(restarts, swaps):
    """maximin_lhs set to `restarts` starting designs of `swaps` proposals each.

    A context manager, so it also works inside Hypothesis tests, which take
    no function-scoped fixtures such as monkeypatch.
    """
    return patch.multiple(design_module, _RESTARTS=restarts, _SWAPS=swaps)


class ScriptedRng:
    """Replays fixed draws where maximin_lhs asks its generator for them.

    `random` returns the next entry whole.  Integer draws come from the
    next entry, a (swaps, 3) array of (column, row, row) proposals, taken
    as many at a time as a call asks for, so one batched call per restart
    and the oracle's per-swap calls read the same values.
    """

    def __init__(self, draws):
        self.draws = list(draws)
        self.pending = np.empty(0, dtype=np.int64)

    def random(self, shape):
        return self.draws.pop(0)

    def integers(self, low, high=None, size=None):
        shape = np.shape(low if high is None else high) if size is None else (size,)
        count = math.prod(shape)
        if count and not self.pending.size:
            self.pending = np.ravel(self.draws.pop(0))
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken.reshape(shape)


class TestMaximinLhs:
    @given(st.integers(2, 24), st.integers(1, 6), st.integers(1, 3), st.integers(0, 200),
           st.integers(0, 2 ** 32 - 1))
    @example(2, 1, 1, 200, 0)  # half the draws swap a row with itself
    @example(2, 4, 3, 200, 1)
    # every scored swap ties: with one column or two points a swap permutes
    # the same coordinates, so each distance it recomputes is unchanged
    @example(3, 1, 3, 200, 2)
    @example(5, 1, 2, 200, 3)
    @example(2, 6, 2, 57, 4)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_rescoring_oracle(self, n, p, restarts, swaps, seed):
        fast_rng, full_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with search_budget(restarts, swaps):
            fast = maximin_lhs(n, p, fast_rng)
        full = maximin_lhs_full_rescore(n, p, full_rng, restarts, swaps)
        assert np.array_equal(fast, full)
        # run_example2 draws its noise from the same generator
        assert fast_rng.bit_generator.state == full_rng.bit_generator.state

    @pytest.mark.parametrize("p, n, k", [(1, 2, 5), (1, 7, 40), (5, 50, 150), (3, 9, 0),
                                         (2, 3, 33), (11, 24, 200)])
    def test_batched_swap_draws_equal_per_swap_draws(self, p, n, k):
        # maximin_lhs draws a restart's swaps in one call; this pins numpy's
        # bounded-integer stream to the per-swap calls the oracle makes
        batched, per_swap = np.random.default_rng(n * k + p), np.random.default_rng(n * k + p)
        got = batched.integers(0, np.tile((p, n, n), k)).reshape(k, 3)
        want = [(per_swap.integers(p), *per_swap.integers(n, size=2)) for _ in range(k)]
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(k, 3))
        assert batched.bit_generator.state == per_swap.bit_generator.state

    def test_only_swaps_touching_every_closest_pair_are_scored(self, monkeypatch):
        # rows sit on the diagonal bins; (0, 1) and (2, 3) tie exactly as
        # the closest pairs, at squared distance 2/16
        ranks = np.array([[0.1, 0.2, 0.3, 0.4]] * 2)
        jitter = np.array([[0.25, 0.25], [0.25, 0.25], [0.5, 0.5], [0.5, 0.5]])
        proposals = np.array([
            [0, 0, 1],  # touches only the first closest pair
            [1, 3, 2],  # touches only the second
            [0, 1, 2],  # touches both: the closest pair becomes (1, 2)
            [1, 2, 2],  # swaps a row of the new pair with itself
            [0, 0, 3],  # touched both old pairs, but not the new one
        ])
        draws = [ranks, jitter, proposals]
        scored = []

        def sqrt(x):
            scored.append(x)
            return math.sqrt(x)

        want = maximin_lhs_full_rescore(4, 2, ScriptedRng(draws), restarts=1, swaps=5)
        monkeypatch.setattr(design_module, "math", SimpleNamespace(sqrt=sqrt))
        with search_budget(1, 5):
            got = maximin_lhs(4, 2, ScriptedRng(draws))
        assert np.array_equal(got, want)
        start = (np.argsort(ranks, axis=1).T + jitter) / 4
        start[[1, 2], 0] = start[[2, 1], 0]
        assert np.array_equal(got, start)
        # the restart's own score, then the one swap that touches both pairs
        assert scored == [0.125, 0.1953125]

    def test_swap_that_ties_in_rounded_distance_is_rejected(self):
        def min_sq(design):
            d = ((design[:, None] - design[None, :]) ** 2).sum(-1)
            np.fill_diagonal(d, np.inf)
            return d.min()

        # three points whose closest pair is rows 0 and 2; swapping column 0
        # of rows 0 and 1 mirrors row 0 about row 2.  Nudge row 1 by ulps
        # until the swap lengthens the squared distance but not its root.
        ranks = np.array([[0.1, 0.3, 0.2]] * 2)  # bins 0, 2, 1 in both columns
        u = 0.4
        for _ in range(100):
            jitter = np.array([[0.6, 0.15], [u, 0.97], [0.5, 0.5]])
            design = (np.argsort(ranks, axis=1).T + jitter) / 3
            swapped = design.copy()
            swapped[[0, 1], 0] = swapped[[1, 0], 0]
            before, after = min_sq(design), min_sq(swapped)
            if after > before and math.sqrt(after) == math.sqrt(before):
                break
            u = np.nextafter(u, 1.0)
        else:
            pytest.fail("no tie found")
        draws = [ranks, jitter, np.array([[0, 0, 1]])]
        with search_budget(1, 1):
            assert np.array_equal(maximin_lhs(3, 2, ScriptedRng(draws)), design)
        kept = maximin_lhs_full_rescore(3, 2, ScriptedRng(draws), restarts=1, swaps=1)
        assert np.array_equal(kept, design)

    def test_first_of_equally_good_restarts_is_kept(self):
        # the second restart's rows are the first's in another order
        ranks = np.array([[0.1, 0.2, 0.3]] * 2)  # row i in bin i of both columns
        jitter = np.array([[0.6, 0.15], [0.4, 0.97], [0.5, 0.5]])
        first = (np.argsort(ranks, axis=1).T + jitter) / 3
        draws = [ranks, jitter, ranks[:, ::-1], jitter[::-1]]
        with search_budget(2, 0):
            assert np.array_equal(maximin_lhs(3, 2, ScriptedRng(draws)), first)
        with search_budget(1, 0):
            assert np.array_equal(maximin_lhs(3, 2, ScriptedRng(draws[2:])), first[::-1])
        kept = maximin_lhs_full_rescore(3, 2, ScriptedRng(draws), restarts=2, swaps=0)
        assert np.array_equal(kept, first)
        assert np.array_equal(maximin_lhs_full_rescore(3, 2, ScriptedRng(draws[2:]),
                                                       restarts=1, swaps=0), first[::-1])

    def test_paper_size_designs_match_oracle(self):
        for seed in range(10):
            assert np.array_equal(maximin_lhs(50, 5, np.random.default_rng(seed)),
                                  maximin_lhs_full_rescore(50, 5, np.random.default_rng(seed)))

    def test_is_latin_hypercube(self):
        n, p = 17, 3
        design = maximin_lhs(n, p, np.random.default_rng(5))
        assert design.shape == (n, p)
        for j in range(p):
            bins = np.floor(design[:, j] * n).astype(int)
            assert sorted(bins) == list(range(n))

    def test_deterministic_given_seed(self):
        a = maximin_lhs(12, 2, np.random.default_rng(99))
        b = maximin_lhs(12, 2, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_swaps_do_not_hurt_min_distance(self):
        def min_dist(d):
            diff = np.sqrt(((d[:, None] - d[None, :]) ** 2).sum(-1))
            np.fill_diagonal(diff, np.inf)
            return diff.min()

        with search_budget(1, 0):
            raw = maximin_lhs(20, 2, np.random.default_rng(31))
        with search_budget(1, 150):
            optimized = maximin_lhs(20, 2, np.random.default_rng(31))
        assert min_dist(optimized) >= min_dist(raw)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            maximin_lhs(1, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            maximin_lhs(5, 0, np.random.default_rng(0))

    def test_zero_swaps_draw_only_the_starting_designs(self):
        rng, expected = np.random.default_rng(3), np.random.default_rng(3)
        with search_budget(2, 0):
            maximin_lhs(5, 2, rng)
        for _ in range(2):
            expected.random((2, 5))
            expected.random((5, 2))
        assert rng.bit_generator.state == expected.bit_generator.state


class TestCholeskySolve:
    def test_results_compare_by_identity_without_raising(self):
        a = cholesky_solve(np.eye(3) * 2.0, np.ones(3))
        b = cholesky_solve(np.eye(3) * 2.0, np.ones(3))
        assert (a == b) is False
        assert (a == a) is True

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(40, 40))
        a = m @ m.T + 40 * np.eye(40)
        b = rng.normal(size=40)
        res = cholesky_solve(a, b)
        assert isinstance(res, CholeskySolveResult)
        assert res.jitter_used == 0.0
        assert np.max(np.abs(a @ res.solution - b)) <= 1e-8 * np.max(np.abs(b))

    def test_jitter_escalation_on_singular_gram(self):
        v = np.arange(1.0, 7.0)
        a = np.outer(v, v)  # rank one
        b = v.copy()
        res = cholesky_solve(a, b)
        assert res.jitter_used > 0.0
        jittered = a + res.jitter_used * np.eye(6)
        assert np.allclose(jittered @ res.solution, b, atol=1e-6)

    def test_indefinite_matrix_fails(self):
        a = np.diag([1.0, -5.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_solve(a, np.ones(3))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            cholesky_solve(a, np.ones(2))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(10, 10))
        a = m @ m.T + 10 * np.eye(10)
        B = rng.normal(size=(10, 3))
        res = cholesky_solve(a, B)
        assert np.allclose(a @ res.solution, B, atol=1e-9)

    def test_inverse_factor_solves_further_right_hand_sides(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(30, 30))
        a = m @ m.T + 30 * np.eye(30)
        res = cholesky_solve(a, np.eye(30))
        L_inv = res.inverse_factor
        np.testing.assert_allclose(L_inv @ a @ L_inv.T, np.eye(30), atol=1e-12)
        assert np.allclose(np.tril(L_inv), L_inv)
        b = rng.normal(size=30)
        np.testing.assert_array_equal(L_inv.T @ (L_inv @ b), cholesky_solve(a, b).solution)
        # with no right-hand side the call only factors
        factored = cholesky_solve(a, np.empty((30, 0)))
        assert factored.solution.shape == (30, 0)
        assert factored.jitter_used == res.jitter_used
        np.testing.assert_array_equal(factored.inverse_factor, L_inv)

    def test_near_singular_residual_stays_small(self):
        # duplicated points with a tiny ridge: the jittered system's condition
        # number is about 6e16; a product with the explicit inverse from the
        # same factorization misses this bound by about eight orders of magnitude
        x = np.repeat(np.linspace(0.0, 1.0, 100), 2)
        a = np.exp(-np.abs(x[:, None] - x[None, :])) * (1.0 + np.abs(x[:, None] - x[None, :]))
        a = a + 1e-16 * np.eye(200)
        b = np.sin(6.0 * x)
        res = cholesky_solve(a, b)
        system = a + res.jitter_used * np.eye(200)
        scale = np.max(np.abs(system)) * np.max(np.abs(res.solution))
        assert np.max(np.abs(system @ res.solution - b)) <= 1e-12 * scale
