"""Modified Bessel function of the second kind, self-contained.

Evaluation strategy by order:

* half-integer orders use the closed elementary form
  ``K_{n+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_k (n+k)! / (k! (n-k)! (2x)^k)``,
* every other order is split as ``order = mu + nl`` with ``nl`` the
  nearest integer and ``|mu| <= 1/2``.  ``K_mu`` and ``K_{mu+1}`` come from
  the trapezoid rule on the integral (DLMF 10.32.9)

      K_nu(x) = e^{-x} int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt,

  and the upward recurrence ``K_{nu+1}(x) = K_{nu-1}(x) + (2 nu/x) K_nu(x)``
  carries them to the requested order.

The integrand is analytic in the strip |Im t| < pi/2, so the trapezoid rule
converges geometrically in its step h (Trefethen & Weideman 2014, SIAM
Review 56:385, Theorem 5.1).  On the strip of half-width a its relative
error is at most 2 e^kappa / (e^{2 pi a / h} - 1), where
kappa = x (1 - cos a) + (3/2) log(1/cos a) bounds log(K_nu(x cos a) / K_nu(x))
for nu <= 3/2.  The rule is truncated at T where the tail
e^{-x (cosh T - 1) + 3T/2} falls below the same target relative to
K_nu(x) e^x >= 1 / sqrt(max(x, 1)).  Both bounds are set to e^-39
(about 1.2e-17), so the error left is rounding, a few units in the last
place.

Arguments are banded by their binary octave [2^(e-1), 2^e), e the
``np.frexp`` exponent.  The kappa bound grows with x, so the octave's step
is the largest h over a grid of strip widths a that meets it at the upper
edge; the tail falls with x, so T is set at the lower edge.  Every argument
of an octave then shares the nodes t_k = k h, and the octave costs one
``exp`` over its (arguments x nodes) block and one weighted sum per row
and order.
The nodes keep 2^e (cosh t_k - 1), so that x (cosh t_k - 1) is the exact
product of that and the mantissa x 2^-e: nothing overflows, down to
x = 5e-324 where T is about 752.  Each row is summed on its own by a numpy
reduction, so a value does not depend on which other arguments share its
array.  Octaves where e^-x underflows are exactly 0 without quadrature.

No external special-function dependency.  Values whose magnitude would
overflow float64 saturate at :data:`K_SATURATION` instead of returning
infinity; callers can compare against that constant to detect saturation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["K_SATURATION", "bessel_k"]

# Flagged saturation value for arguments so small that K_nu overflows.
K_SATURATION = 1e300

_LOG_SATURATION = math.log(K_SATURATION)

# The trapezoid rule's discretization and truncation bounds are each e^-39.
_LOG_TOL = 39.0
# Largest order the rule evaluates: mu + 1 with |mu| <= 1/2.
_NU_MAX = 1.5
# Strip half-widths a in (0, pi/2) searched for an octave's step.
_STRIP_WIDTHS = np.linspace(0.005, 1.565, 313)
# Entries of an octave's (arguments x nodes) block evaluated at once.
_BLOCK_ENTRIES = 1 << 13
# Octaves whose nodes are kept between calls.
_OCTAVE_CACHE = 64
# Below this argument pi/(2x) overflows float64.
_PI_OVER_2_MAX = 0.5 * math.pi / np.finfo(float).max


@functools.lru_cache(maxsize=_OCTAVE_CACHE)
def _octave_nodes(e: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes t_k, exponents -2^e (cosh t_k - 1) and step h for x in [2^(e-1), 2^e)."""
    hi = math.ldexp(1.0, e)
    lo = 0.5 * hi
    a = _STRIP_WIDTHS
    kappa = hi * (1.0 - np.cos(a)) - _NU_MAX * np.log(np.cos(a))
    h = float(np.max(2.0 * math.pi * a / (_LOG_TOL + math.log(2.0) + kappa)))
    # lo (cosh T - 1) = tol + NU_MAX T, by fixed-point iteration; the map
    # contracts since lo sinh T is far above NU_MAX there
    tol = _LOG_TOL + 0.5 * math.log(max(lo, 1.0))
    T = 1.0
    for _ in range(8):
        log_y = math.log(tol + _NU_MAX * T) - math.log(lo)
        T = log_y + math.log(2.0) if log_y > 30.0 else math.acosh(1.0 + math.exp(log_y))
    t = h * np.arange(math.ceil(T / h) + 1)
    # 2^e (cosh t - 1) = 2^(1+r) (2^q sinh(t/2))^2 with e = 2q + r
    q, r = divmod(e, 2)
    exponent = -2.0 ** (1 + r) * np.square(np.ldexp(np.sinh(0.5 * t), q))
    t.flags.writeable = False
    exponent.flags.writeable = False
    return t, exponent, h


def _trapezoid(orders: tuple[float, ...], x: np.ndarray) -> list[np.ndarray]:
    """K_nu(x) for each nu in ``orders`` (|nu| <= 3/2) by the banded trapezoid rule.

    The arguments are sorted by octave, so that each octave's rows are a
    slice of the mantissas and of the sums; the sums go back to x's order
    once, at the end.
    """
    # arrays the size of x are freed as soon as they are spent
    mantissa, octave = np.frexp(x)
    by_octave = np.argsort(octave, kind="stable")
    mantissa = mantissa[by_octave]
    bands, counts = np.unique(octave, return_counts=True)
    del octave
    sums = [np.zeros_like(x) for _ in orders]
    start = 0
    for e, count in zip(bands.tolist(), counts.tolist()):
        if math.exp(-math.ldexp(1.0, e - 1)) == 0.0:
            break                        # e^-x underflows here and in every later octave
        rows = slice(start, start + count)
        _octave_sums(e, orders, mantissa[rows], [total[rows] for total in sums])
        start += count
    del mantissa
    decay = x[by_octave]
    np.exp(np.negative(decay, out=decay), out=decay)
    for total in sums:
        total *= decay
    del decay
    for i, total in enumerate(sums):
        sums[i] = np.empty_like(x)
        sums[i][by_octave] = total
    return sums


def _octave_sums(e: int, orders: tuple[float, ...], mantissa: np.ndarray,
                 sums: list[np.ndarray]) -> None:
    """Write sum_k w_k exp(-x (cosh t_k - 1)) for octave e into ``sums``, in row chunks."""
    t, exponent, h = _octave_nodes(e)
    weights = h * np.cosh(np.multiply.outer(orders, t))
    weights[:, 0] *= 0.5
    step = max(1, _BLOCK_ENTRIES // t.size)
    for lo in range(0, mantissa.size, step):
        rows = slice(lo, lo + step)
        block = np.multiply.outer(mantissa[rows], exponent)
        np.exp(block, out=block)
        terms = np.empty_like(block)
        for total, w in zip(sums, weights):
            np.add.reduce(np.multiply(block, w, out=terms), axis=1, out=total[rows])


def _k_general(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x) for any order >= 0 by the trapezoid rule plus upward recurrence."""
    nl = round(order)
    mu = order - nl
    # K_{mu+1} overflows (inf, or nan where a node's exp underflows) only
    # where every order from mu + 1 up saturates, so only when nl = 0 or on
    # arguments already set aside as saturated
    with np.errstate(over="ignore", invalid="ignore"):
        k_mu, k_mu1 = _trapezoid((mu, mu + 1.0), x)
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
        if x.min() < _PI_OVER_2_MAX:             # pi/(2x) overflowed; sqrt(pi/2)/sqrt(x) does not
            far = np.isinf(prefactor)
            prefactor[far] = math.sqrt(0.5 * math.pi) / np.sqrt(x[far])
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
