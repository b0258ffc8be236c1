"""Modified Bessel function of the second kind, self-contained.

Evaluation strategy by order:

* half-integer orders use the closed elementary form
  ``K_{n+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_k (n+k)! / (k! (n-k)! (2x)^k)``,
* every other order is split as ``order = mu + nl`` with ``nl`` the
  nearest integer and ``|mu| <= 1/2``.  ``K_mu`` and ``K_{mu+1}`` come from
  Temme's series for ``x < 2`` and from Steed's evaluation of the
  continued fraction CF2 for ``x >= 2`` (Temme 1975, J. Comput. Phys.
  19:324; Numerical Recipes section 6.7), and the upward recurrence
  ``K_{nu+1}(x) = K_{nu-1}(x) + (2 nu/x) K_nu(x)`` carries them to the
  requested order.

Both iterations stop each argument on its own convergence test and never
update it afterwards, so a value does not depend on which other
arguments share its array.  No external special-function dependency.
Values whose magnitude would overflow float64 saturate at
:data:`K_SATURATION` instead of returning infinity; callers can compare
against that constant to detect saturation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["K_SATURATION", "bessel_k"]

# Flagged saturation value for arguments so small that K_nu overflows.
K_SATURATION = 1e300

_LOG_SATURATION = math.log(K_SATURATION)

# Temme's series below this argument, Steed's CF2 at and above it.
_SERIES_LIMIT = 2.0
_EPS = 1e-16
_MAX_ITERS = 10000

# Chebyshev coefficients in 8 mu^2 - 1 of gamma_1(mu) and gamma_2(mu),
# |mu| <= 1/2 (Numerical Recipes, beschb).
_GAMMA1_CHEB = (-1.142022680371168e0, 6.5165112670737e-3, 3.087090173086e-4,
                -3.4706269649e-6, 6.9437664e-9, 3.67795e-11, -1.356e-13)
_GAMMA2_CHEB = (1.843740587300905e0, -7.68528408447867e-2, 1.2719271366546e-3,
                -4.9717367042e-6, -3.31261198e-8, 2.423096e-10, -1.702e-13, -1.49e-15)


def _chebyshev(coeffs: tuple[float, ...], y: float) -> float:
    """Clenshaw sum of c_0/2 + sum_k c_k T_k(y) on [-1, 1]."""
    d = dd = 0.0
    for c in coeffs[:0:-1]:
        d, dd = 2.0 * y * d - dd + c, d
    return y * d - dd + 0.5 * coeffs[0]


def _gamma_terms(mu: float) -> tuple[float, float, float, float]:
    """gamma_1, gamma_2, 1/Gamma(1+mu), 1/Gamma(1-mu) for |mu| <= 1/2.

    gamma_1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and
    gamma_2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2, from expansions that
    stay accurate as mu -> 0.
    """
    y = 8.0 * mu * mu - 1.0
    gam1 = _chebyshev(_GAMMA1_CHEB, y)
    gam2 = _chebyshev(_GAMMA2_CHEB, y)
    return gam1, gam2, gam2 - mu * gam1, gam2 + mu * gam1


def _retire(done: np.ndarray, lane: np.ndarray, state: tuple[np.ndarray, ...],
            results: tuple[tuple[np.ndarray, np.ndarray], ...]):
    """Write out the converged lanes and return the lanes still iterating.

    ``results`` pairs an output array, indexed by original lane, with the
    state array it takes its final value from.  Lanes are ordered so that
    they usually converge front first; the survivors are then a slice of
    the state rather than a copy.
    """
    k = np.count_nonzero(done)
    if np.count_nonzero(done[:k]) == k:
        gone, keep = slice(None, k), slice(k, None)
    else:
        gone, keep = done, ~done
    for out, value in results:
        out[lane[gone]] = value[gone]
    return lane[keep], tuple(v[keep] for v in state)


def _temme_series(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_mu(x) and K_{mu+1}(x) by Temme's series, |mu| <= 1/2, 0 < x < 2."""
    gam1, gam2, gampl, gammi = _gamma_terms(mu)
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < _EPS else pimu / math.sin(pimu)
    lane = np.argsort(x, kind="stable")      # small arguments converge first
    xs = x[lane]
    d = math.log(2.0) - np.log(xs)
    e = mu * d
    sinhc = np.ones_like(e)
    big = np.abs(e) >= _EPS
    sinhc[big] = np.sinh(e[big]) / e[big]
    ff = fact * (gam1 * np.cosh(e) + gam2 * sinhc * d)
    ee = np.exp(e)
    p = 0.5 * ee / gampl
    q = 0.5 / (ee * gammi)
    c = np.ones_like(xs)
    quarter = 0.25 * xs * xs
    total = ff.copy()
    total1 = p.copy()
    k_mu = np.empty_like(x)
    k_mu1 = np.empty_like(x)
    mu2 = mu * mu
    for i in range(1, _MAX_ITERS):
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= quarter / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        total += term
        total1 += c * (p - i * ff)
        done = np.abs(term) < _EPS * np.abs(total)
        if np.count_nonzero(done):
            lane, (ff, c, p, q, quarter, total, total1) = _retire(
                done, lane, (ff, c, p, q, quarter, total, total1),
                ((k_mu, total), (k_mu1, total1)))
            if lane.size == 0:
                return k_mu, k_mu1 * (2.0 / x)
    raise ArithmeticError("Temme series for K did not converge")


def _steed_cf2(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_mu(x) and K_{mu+1}(x) by Steed's CF2, |mu| <= 1/2, x >= 2.

    The continued fraction h is summed in the form
    ``delh_i = u_i / (b_i - u_i) delh_{i-1}`` with ``u_i = -a_i d_{i-1}``,
    which equals Steed's ``(b_i d_i - 1) delh_{i-1}`` without its
    cancellation.  Where exp(-x) underflows both values are exactly 0 and
    the continued fraction is not run.
    """
    scale = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x)
    ok = scale > 0.0
    k_mu = np.zeros_like(x)
    k_mu1 = np.zeros_like(x)
    if not ok.any():
        return k_mu, k_mu1
    lane = np.flatnonzero(ok)
    lane = lane[np.argsort(-x[lane], kind="stable")]   # large arguments converge first
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x[lane])
    h = 1.0 / b
    delh = h.copy()
    u = (a1 + 2.0) * h       # u_2 = -a_2 d_1 with a_2 = -a1 - 2, d_1 = 1/b_1
    q1 = np.zeros_like(b)
    q2 = np.ones_like(b)
    q = np.full_like(b, a1)
    s = 1.0 + a1 * delh
    a, c = -a1, a1           # the CF2 coefficients a_i and c_i do not depend on x
    h_end = np.empty_like(x)
    s_end = np.empty_like(x)
    for i in range(2, _MAX_ITERS):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) * (1.0 / a)
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        den = b - u
        delh *= u / den
        h += delh
        dels = q * delh
        s += dels
        u = (2 * i - a) / den           # u_{i+1} = -a_{i+1} d_i, a_{i+1} = a_i - 2i
        done = np.abs(dels) < _EPS * s
        if np.count_nonzero(done):
            lane, (b, u, delh, h, q1, q2, q, s) = _retire(
                done, lane, (b, u, delh, h, q1, q2, q, s), ((h_end, h), (s_end, s)))
            if lane.size == 0:
                break
    else:
        raise ArithmeticError("continued fraction CF2 for K did not converge")
    k_mu[ok] = scale[ok] / s_end[ok]
    k_mu1[ok] = k_mu[ok] * (mu + x[ok] + 0.5 - a1 * h_end[ok]) / x[ok]
    return k_mu, k_mu1


def _k_general(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x) for any order >= 0 by Temme / Steed plus upward recurrence."""
    nl = round(order)
    mu = order - nl
    k_mu = np.empty_like(x)
    k_mu1 = np.empty_like(x)
    series = x < _SERIES_LIMIT
    with np.errstate(over="ignore"):
        if series.any():
            k_mu[series], k_mu1[series] = _temme_series(mu, x[series])
        if not series.all():
            cf = ~series
            k_mu[cf], k_mu1[cf] = _steed_cf2(mu, x[cf])
        two_over_x = 2.0 / x
        for j in range(1, nl + 1):
            k_mu, k_mu1 = k_mu1, (mu + j) * two_over_x * k_mu1 + k_mu
    return k_mu


def _k_half_integer(n: int, x: np.ndarray) -> np.ndarray:
    """K_{n+1/2}(x) closed form, n >= 0, in three x-sized buffers."""
    with np.errstate(over="ignore"):
        two_x = np.multiply(2.0, x)
        term = np.empty_like(x)
        total = np.zeros_like(x)
        for k in range(n + 1):
            coeff = math.factorial(n + k) / (math.factorial(k) * math.factorial(n - k))
            np.power(two_x, k, out=term)
            np.divide(coeff, term, out=term)
            total += term
        prefactor = np.sqrt(np.divide(math.pi, two_x, out=two_x), out=two_x)
        decay = np.exp(np.negative(x, out=term), out=term)
        np.multiply(prefactor, decay, out=prefactor)
        return np.multiply(prefactor, total, out=total)


def _saturates(order: float, x: np.ndarray) -> np.ndarray:
    """Small-argument magnitude estimate; flags entries that overflow float64.

    The estimate Gamma(order) 2^(order-1) x^-order bounds K_order(x) from
    above but is loose as order -> 0, where it diverges while K_order
    tends to K_0.  Orders up to 1/2 never saturate: K_order <= K_{1/2},
    which is below 1e162 on every positive float.
    """
    if order <= 0.5:
        return np.zeros(x.shape, dtype=bool)
    log_small = math.lgamma(order) - math.log(2.0) + order * (math.log(2.0) - np.log(x))
    return log_small > _LOG_SATURATION


def _k_unsaturated(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x) by the order's method; entries that overflow become K_SATURATION."""
    two_order = 2.0 * order
    if two_order == round(two_order) and round(two_order) % 2 == 1:
        vals = _k_half_integer(int(round(order - 0.5)), x)
    else:
        vals = _k_general(order, x)
    bad = ~np.isfinite(vals)
    if bad.any():
        vals[bad] = K_SATURATION
    return vals


def bessel_k(order: float, x: float | np.ndarray) -> float | np.ndarray:
    """Modified Bessel function of the second kind K_order(x).

    Parameters
    ----------
    order : float
        Non-negative order.
    x : float or ndarray
        Positive argument(s).

    Returns
    -------
    float or ndarray
        K_order at each argument.  Entries that would overflow float64
        are returned as :data:`K_SATURATION`.

    Raises
    ------
    ValueError
        If ``order`` is negative or any argument is not strictly positive.

    Notes
    -----
    Arguments are validated with two reductions, ``min(x) > 0`` (which NaN
    fails) and ``max(x) < inf``.  The small-argument saturation estimate
    falls as x grows, so it is tested on ``min(x)`` first; only when that
    test fires is each entry masked, and the rest computed apart.  The
    half-integer closed form works in three buffers the size of x.
    """
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be a finite non-negative real, got {order!r}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 0:
        return arr.reshape(np.shape(x))
    lo = arr.min()
    if not (lo > 0.0 and arr.max() < math.inf):    # NaN fails the first test
        raise ValueError("x must be strictly positive and finite")

    flat = arr.ravel()
    # the saturation estimate falls as x grows: unless the smallest
    # argument saturates none does, and no per-entry mask is needed
    if _saturates(order, lo):
        sat = _saturates(order, flat)
        out = np.full(flat.shape, K_SATURATION)
        if not sat.all():
            out[~sat] = _k_unsaturated(order, flat[~sat])
    else:
        out = _k_unsaturated(order, flat)
    out = out.reshape(arr.shape)
    if scalar:
        return float(out[()] if out.ndim == 0 else out[0])
    return out
