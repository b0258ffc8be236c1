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
of an octave then shares the nodes t_k = k h, cached per octave and mu
with the weights of K_mu and K_{mu+1}.  An octave's arguments, gathered by
index, cost one ``exp`` over their (arguments x nodes) block and one
weighted sum per row and order.
The nodes keep 2^e (cosh t_k - 1), so that x (cosh t_k - 1) is the exact
product of that and the mantissa x 2^-e: nothing overflows, down to
x = 5e-324 where T is about 752.  Each row is summed on its own by a numpy
reduction, so a value does not depend on which other arguments share its
array.  Octaves where e^-x underflows are exactly 0 without quadrature.

No external special-function dependency, and no stand-in value: every
argument goes through its order's method, and K is inf where it overflows
float64.  The rule's weights cosh((mu+1) t_k) overflow a little before K
does, so at the smallest arguments inf also stands for values from about
10^303.4 (order 1.495) up to the float64 maximum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["bessel_k"]

# The trapezoid rule's discretization and truncation bounds are each e^-39.
_LOG_TOL = 39.0
# Largest order the rule evaluates: mu + 1 with |mu| <= 1/2.
_NU_MAX = 1.5
# Strip half-widths a in (0, pi/2) searched for an octave's step.
_STRIP_WIDTHS = np.linspace(0.005, 1.565, 313)
# Entries of an octave's (arguments x nodes) block evaluated at once.
_BLOCK_ENTRIES = 1 << 13
# (octave, mu) rules kept between calls.
_OCTAVE_CACHE = 64
# Below this argument pi/(2x) overflows float64.
_PI_OVER_2_MAX = 0.5 * math.pi / np.finfo(float).max


@functools.lru_cache(maxsize=_OCTAVE_CACHE)
def _octave_rule(e: int, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponents -2^e (cosh t_k - 1) and the weights of K_mu, K_{mu+1} for x in [2^(e-1), 2^e)."""
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
    weights = h * np.cosh(np.multiply.outer((mu, mu + 1.0), t))
    weights[:, 0] *= 0.5
    exponent.flags.writeable = False
    weights.flags.writeable = False
    return exponent, weights


def _trapezoid(mu: float, x: np.ndarray) -> np.ndarray:
    """K_mu(x) and K_{mu+1}(x) (|mu| <= 1/2) as the rows of a (2, x.size) array."""
    mantissa, octave = np.frexp(x)
    # occupied octaves, ascending; np.unique would import numpy.ma (1 MB RSS)
    first = int(octave.min())
    bands = np.flatnonzero(np.bincount(octave - first)) + first
    sums = np.zeros((2, x.size))
    for e in bands.tolist():
        if math.exp(-math.ldexp(1.0, e - 1)) == 0.0:
            break                        # e^-x underflows here and in every later octave
        exponent, weights = _octave_rule(e, mu)
        rows = np.flatnonzero(octave == e)
        step = max(1, _BLOCK_ENTRIES // exponent.size)
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            block = np.multiply.outer(mantissa[chunk], exponent)
            np.exp(block, out=block)
            for total, w in zip(sums, weights):
                total[chunk] = np.add.reduce(block * w, axis=1)
            del block                        # before the next chunk's block is made
    # e^-x, in the buffer of the spent mantissas
    sums *= np.exp(np.negative(x, out=mantissa), out=mantissa)
    return sums


def _k_general(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x) for any order >= 0 by the trapezoid rule plus upward recurrence."""
    nl = round(order)
    mu = order - nl
    # at tiny x the weights cosh((mu+1) t_k) and 2/x overflow, and so may
    # K_mu and K_{mu+1}; every term is positive, so NaN comes only from
    # inf * 0 (an overflowed weight at a node whose exp underflowed) in a
    # rule or a recurrence that overflowed, and stands for inf
    with np.errstate(over="ignore", invalid="ignore"):
        k_mu, k_mu1 = _trapezoid(mu, x)
        two_over_x = 2.0 / x
        for j in range(1, nl + 1):
            k_mu += (mu + j) * two_over_x * k_mu1     # K_{mu+j+1}, over K_{mu+j-1}
            k_mu, k_mu1 = k_mu1, k_mu
    return np.where(np.isnan(k_mu), math.inf, k_mu)   # not a view that keeps both rows alive


def _k_half_integer(n: int, x: np.ndarray) -> np.ndarray:
    """K_{n+1/2}(x) closed form, n >= 0, in three x-sized buffers."""
    # (2x)^k underflows to 0 at tiny x, and coeff / (2x)^k then overflows to inf
    with np.errstate(over="ignore", divide="ignore"):
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
        K_order at each argument: inf where K overflows float64, and 0
        where it underflows.

    Raises
    ------
    ValueError
        If ``order`` is negative or any argument is not strictly positive.

    Notes
    -----
    Arguments are validated with two reductions, ``min(x) > 0`` (which NaN
    fails) and ``max(x) < inf``.  The half-integer closed form works in
    three buffers the size of x.
    """
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be a finite non-negative real, got {order!r}")
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 0:
        return arr.reshape(np.shape(x))
    if not (arr.min() > 0.0 and arr.max() < math.inf):    # NaN fails the first test
        raise ValueError("x must be strictly positive and finite")

    if (2.0 * order) % 2.0 == 1.0:                   # order n + 1/2
        out = _k_half_integer(int(order), arr.ravel())
    else:
        out = _k_general(order, arr.ravel())
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)
