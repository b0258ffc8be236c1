"""Separability measure: analytic values, quadrature and empirical estimates."""

import math

import numpy as np
import pytest

from dpm.numerics import QuadratureRule, gauss_legendre_01
from dpm.separability import (
    SeparabilityReport,
    empirical_theta,
    psi,
    theta_l2_quadrature,
)

# closed-form values, frozen from a 30-digit evaluation of the formula
PSI_PINS = {
    2.0: 0.977989667209,
    3.0: 0.827680554922,
    3.5: 0.614803088507,
    4.0: 0.303818460469,
}


class TestPsi:
    @pytest.mark.parametrize("theta,value", sorted(PSI_PINS.items()))
    def test_pinned_values(self, theta, value):
        assert psi(theta) == pytest.approx(value, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(0.0)
        with pytest.raises(ValueError):
            psi(-1.0)

    def test_root_near_tan_fixed_point(self):
        # psi vanishes where sin(t) = t cos(t)
        assert psi(4.493409457909064) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_one(self):
        for theta in np.linspace(0.05, 10.0, 200):
            assert 0.0 <= psi(float(theta)) <= 1.0 + 1e-12


class TestQuadratureTheta:
    def test_matches_analytic_psi(self):
        rule = gauss_legendre_01(200)
        for theta in (2.0, 3.0, 3.5, 4.0):
            rep = theta_l2_quadrature([lambda t: t],
                                      [lambda t, th=theta: np.sin(th * t)], rule)
            assert rep.theta_estimate == pytest.approx(psi(theta), abs=1e-9)
            assert rep.method == "l2-quadrature"

    def test_scale_invariance(self):
        rule = gauss_legendre_01(120)
        base = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        scaled = theta_l2_quadrature([lambda t: 17.0 * t],
                                     [lambda t: -0.04 * np.sin(3 * t)], rule)
        assert scaled.theta_estimate == pytest.approx(base.theta_estimate, abs=1e-14)

    def test_tiny_basis_scale_keeps_the_angle(self):
        # Gram entries of bases of norm 1e-9 are 1e-18, below any fixed jitter
        rule = gauss_legendre_01(120)
        base = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        tiny = theta_l2_quadrature([lambda t: 1e-9 * t],
                                   [lambda t: 1e-9 * np.sin(3 * t)], rule)
        assert tiny.theta_estimate == pytest.approx(base.theta_estimate, abs=1e-14)
        assert base.theta_estimate == pytest.approx(psi(3.0), abs=1e-13)

    def test_rank_deficient_span_gives_the_angle_of_its_range(self):
        rule = gauss_legendre_01(120)
        solo = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        twice = theta_l2_quadrature([lambda t: t, lambda t: 2.0 * t],
                                    [lambda t: np.sin(3 * t)], rule)
        assert twice.theta_estimate == pytest.approx(solo.theta_estimate, abs=1e-14)
        cf, _ = twice.certificate
        f_vals = cf[0] * rule.points[:, 0] + cf[1] * 2.0 * rule.points[:, 0]
        assert rule.integrate(f_vals * f_vals) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("zero_side", ["f", "g"])
    def test_zero_span_is_rejected(self, zero_side):
        rule = gauss_legendre_01(40)
        zero, sine = [lambda t: 0.0 * t], [lambda t: np.sin(3 * t)]
        spans = (zero, sine) if zero_side == "f" else (sine, zero)
        with pytest.raises(ValueError, match=f"the {zero_side} span is zero"):
            theta_l2_quadrature(*spans, rule)
        x = rule.points[:, 0]
        with pytest.raises(ValueError, match="zero at every point"):
            empirical_theta(np.zeros_like(x), np.sin(3 * x))

    def test_identical_spans_give_one(self):
        rule = gauss_legendre_01(64)
        rep = theta_l2_quadrature([lambda t: t], [lambda t: 2.0 * t], rule)
        assert rep.theta_estimate == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_spans_give_zero(self):
        # sin and cos of the same full period are L2-orthogonal on [0,1]
        rule = gauss_legendre_01(80)
        rep = theta_l2_quadrature([lambda t: np.sin(2 * np.pi * t)],
                                  [lambda t: np.cos(2 * np.pi * t)], rule)
        assert rep.theta_estimate == pytest.approx(0.0, abs=1e-10)

    def test_refinement_converges(self):
        vals = [theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)],
                                    gauss_legendre_01(m)).theta_estimate
                for m in (8, 16, 32, 64)]
        errs = [abs(v - psi(3.0)) for v in vals]
        assert errs[-1] <= errs[0]
        assert errs[-1] < 1e-10

    def test_certificate_achieves_the_cosine(self):
        rule = gauss_legendre_01(150)
        rep = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        cf, cg = rep.certificate
        pts = rule.points[:, 0]
        f_vals = cf[0] * pts
        g_vals = cg[0] * np.sin(3 * pts)
        inner = rule.integrate(f_vals * g_vals)
        nf = math.sqrt(rule.integrate(f_vals * f_vals))
        ng = math.sqrt(rule.integrate(g_vals * g_vals))
        assert abs(inner) / (nf * ng) == pytest.approx(rep.theta_estimate, abs=1e-9)
        # certificates come back normalized under the same inner product
        assert nf == pytest.approx(1.0, abs=1e-8)
        assert ng == pytest.approx(1.0, abs=1e-8)

    def test_multidimensional_spans(self):
        rule = gauss_legendre_01(150)
        rep = theta_l2_quadrature([lambda t: np.ones_like(t), lambda t: t],
                                  [lambda t: np.sin(3 * t)], rule)
        solo = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        # enlarging one span can only raise the top canonical correlation
        assert rep.theta_estimate >= solo.theta_estimate - 1e-12


class TestEmpiricalTheta:
    def test_large_sample_tracks_analytic(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 2000)
        for theta in (2.0, 3.0, 4.0):
            rep = empirical_theta(x, np.sin(theta * x))
            assert rep.theta_estimate == pytest.approx(psi(theta), abs=0.02)
            assert rep.method == "empirical-canonical"

    def test_equals_quadrature_theta_under_matching_rule(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 100)
        rule = QuadratureRule(x[:, None], np.full(100, 1.0 / 100))
        emp = empirical_theta(x, np.sin(3 * x))
        quad = theta_l2_quadrature([lambda t: t], [lambda t: np.sin(3 * t)], rule)
        assert emp.theta_estimate == pytest.approx(quad.theta_estimate, abs=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            empirical_theta(np.ones(5), np.ones(6))

    def test_report_validation(self):
        with pytest.raises(ValueError):
            SeparabilityReport(1.5, "empirical-canonical",
                               (np.ones(1), np.ones(1)))


def test_reports_compare_by_identity_without_raising():
    x = np.linspace(0.0, 1.0, 50)
    a, b = empirical_theta(x, np.sin(3 * x)), empirical_theta(x, np.sin(3 * x))
    assert isinstance(a, SeparabilityReport)
    assert (a == b) is False
    assert (a == a) is True
