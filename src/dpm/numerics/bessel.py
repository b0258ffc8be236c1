"""Modified Bessel function of the second kind, self-contained.

Every order is split as ``order = mu + n``, n a non-negative integer and
-1/2 < mu <= 1/2.  The seeds e^x K_mu(x) and e^x K_{mu+1}(x) are
sqrt(pi/2) / sqrt(x) and that times (1 + 1/x) for half-integer orders
(DLMF 10.39.2), and otherwise the trapezoid rule on (DLMF 10.32.9)

    e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt.

The upward recurrence ``K_{nu+1}(x) = K_{nu-1}(x) + (2 nu/x) K_nu(x)``
(DLMF 10.29.1), stable since K is its dominant solution (Gautschi 1967,
SIAM Review 9:24), carries them to the order.  The seeds take e^-x up to
x = 700, where their product is still normal, and K the rest after the
recurrence, so a subnormal K is rounded once and no normal one passes
through a subnormal seed.

The integrand is analytic in the strip |Im t| < pi/2, so the trapezoid rule
converges geometrically in its step h (Trefethen & Weideman 2014, SIAM
Review 56:385, Theorem 5.1).  On the strip of half-width a its relative
error is at most 2 e^kappa / (e^{2 pi a / h} - 1), where
kappa = x (1 - cos a) + (3/2) log(1/cos a) bounds log(K_nu(x cos a) / K_nu(x))
for nu <= 3/2.  The rule is truncated at T where the tail
e^{-x (cosh T - 1) + 3T/2} falls below the same target relative to
K_nu(x) e^x >= 1 / sqrt(max(x, 1)).  Both bounds are set to e^-39
(about 1.2e-17), so the error left is rounding, which grows as the
argument shrinks.  Against 30-digit mpmath (mpmath 1.3.0), for orders
0.3, 0.7, 1.3, 2.2, 3 and 4 at 150 log-spaced arguments per range, the
largest relative error is 6.1e-16 on [1e-3, 700], 9.6e-16 on
[1e-20, 1e-3], 8.9e-15 on [1e-100, 1e-20] and 3.1e-14 on
[1e-300, 1e-100], about 140 ulps, at K_1.3(1.47e-225).  K_0 stays within
5.1e-15 down to 1e-100 but reads 2.1e-14 at 1e-300 and 2.9e-14 at
5e-324, where its rows hold up to 3,480 nearly equal terms and each is
summed in SIMD lanes rather than pairwise.

Against 40-digit mpmath, the largest relative error on 200 log-spaced
arguments in [1e-6, 700] and 200 in [690, 745] where K is normal:

    orders                 [1e-6, 700]   [690, 745]
    0, 0.3, 2.7, 3         6.2e-16       4.2e-16
    0.5, 1.5, 3.5, 4.5     7.8e-16       3.6e-16
    10.5, 20.5, 39.5       2.5e-15       5.5e-16
    40, 134.7, 200         3.6e-15       1.7e-15
    135.5, 150.5, 200.5    2.7e-15       1.7e-15

A subnormal K is within half a subnormal spacing of the true value.

Arguments are banded by their binary octave [2^(e-1), 2^e), e the
``np.frexp`` exponent.  The kappa bound grows with x, so the octave's step
is the largest h over a grid of strip widths a that meets it at the upper
edge; the tail falls with x, so T is set at the lower edge.  Every argument
of an octave then shares the nodes t_k = k h, cached per octave and mu
with the weights of K_mu and K_{mu+1}.
The nodes keep 2^e (cosh t_k - 1), so that x (cosh t_k - 1) is the exact
product of that and the mantissa x 2^-e: nothing overflows, down to
x = 5e-324 where T is about 752.

One stable counting sort on the octave (a ``bincount`` and a radix
``argsort`` of a small-integer key) makes each octave's arguments one
contiguous slice, taken in ascending octave; the sums go back to the
arguments' order in one scatter.  A slice is evaluated in chunks of rows:
a rank-one BLAS product forms the (arguments x nodes) block of exponents
(one rounded product per entry, as ``np.multiply.outer`` gives, without
an inner loop per short row), one ``exp`` runs over it, and one
``einsum`` contracts it with the (2, nodes) weights into the sums of both
orders.  ``einsum`` reduces each output over its own row's nodes in an
order fixed by the row length alone, so a value does not depend on which
other arguments share its array or its chunk.  A BLAS matrix product
would be faster, but its blocking, and so its rounding, depends on the
number of rows.  Octaves where e^-x underflows are exactly 0 without
quadrature.

No external special-function dependency, and no stand-in value: every
argument goes through the same seeds and recurrence, and K is inf where it
overflows float64.  At the smallest arguments the weights cosh((mu+1) t_k)
overflow before K does.  There the octave's rule scales each overflowing
row of weights cosh(nu t_k) by e^-s, s half its largest nu t_k, and that
row's sums are multiplied by e^s, which costs a rounding or two.
"""

from __future__ import annotations

import math
import threading

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
# Bytes of (octave, mu) rules kept between calls.
_RULE_CACHE_BYTES = 4 << 20
# The seeds e^x K take e^-x up to this argument, where their product is
# normal (sqrt(pi/1400) e^-700 is 4.7e-306), and K the rest of it.
_DECAY_SPLIT = 700.0


def _build_rule(e: int, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exponents -2^e (cosh t_k - 1), the weights of K_mu, K_{mu+1}, and the factor
    e^s that scales each row's sums back (None if no weight overflows) for x in [2^(e-1), 2^e)."""
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
    nu_t = np.multiply.outer((mu, mu + 1.0), t)
    weights = h * np.cosh(nu_t)
    factor = None
    if not np.isfinite(weights).all():
        # cosh(nu t_k) overflowed (under _k_1d's errstate) before K does:
        # scale by e^-s, s half the row's largest nu t_k, so both are finite
        nu_t = np.abs(nu_t)
        s = np.where(np.isfinite(weights).all(axis=1), 0.0, 0.5 * nu_t.max(axis=1))[:, None]
        weights = np.where(s > 0.0, 0.5 * h * (np.exp(nu_t - s) + np.exp(-nu_t - s)), weights)
        factor = np.exp(s)
    weights[:, 0] *= 0.5
    exponent.flags.writeable = False
    weights.flags.writeable = False
    return exponent, weights, factor


def _rule_bytes(rule: tuple[np.ndarray, np.ndarray, np.ndarray | None]) -> int:
    return sum(a.nbytes for a in rule if a is not None)


class _RuleCache:
    """The rules of recent calls, oldest dropped first once their arrays hold
    more than ``max_bytes``.

    A call needs one rule per occupied octave and order: 15 octaves (1e-4 to
    1) hold 16 KB, 77 octaves (1e-20 to 800) 0.22 MB and 210 octaves (1e-60
    to 800) 1.7 MB.  A call whose rules alone exceed the bound, such as the
    1,007 octaves from 1e-300 to 800 (39 MB at one order), drops its own
    rules as it goes and rebuilds every one of them on every call.
    """

    def __init__(self, build, max_bytes: int):
        self._build = build
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._rules: dict = {}           # in insertion order, oldest first
        self._lock = threading.Lock()    # held to add and drop; a lookup is one dict.get

    def __call__(self, e: int, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        key = (e, mu)
        rule = self._rules.get(key)
        if rule is None:
            rule = self._build(e, mu)
            with self._lock:
                if key not in self._rules:
                    self._rules[key] = rule
                    self.nbytes += _rule_bytes(rule)
                    while self.nbytes > self.max_bytes:
                        self.nbytes -= _rule_bytes(self._rules.pop(next(iter(self._rules))))
        return rule


_octave_rule = _RuleCache(_build_rule, _RULE_CACHE_BYTES)


def _trapezoid(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^x K_mu(x) and e^x K_{mu+1}(x) (|mu| <= 1/2), each in the order of x."""
    mantissa, octave = np.frexp(x)
    first = int(octave.min())
    octave -= first
    counts = np.bincount(octave)
    # a stable counting sort: each octave's arguments become one slice, and
    # the slices run in ascending octave (the key fits int16 for radix sort)
    order = np.argsort(octave.astype(np.int16), kind="stable")
    del octave
    mantissa = mantissa[order]
    # octave first + band is mantissa[bounds[band]:bounds[band + 1]]
    bounds = [0, *np.cumsum(counts).tolist()]
    sums = np.zeros((2, x.size))
    for band in np.flatnonzero(counts).tolist():
        e = first + band
        if math.exp(-math.ldexp(1.0, e - 1)) == 0.0:
            break                        # e^-x underflows here and in every later octave
        exponent, weights, factor = _octave_rule(e, mu)
        start, stop = bounds[band], bounds[band + 1]
        step = max(1, _BLOCK_ENTRIES // exponent.size)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            # one term per entry, so the same bits as np.multiply.outer
            block = np.dot(mantissa[lo:hi, None], exponent[None, :])
            np.exp(block, out=block)
            np.einsum("ij,kj->ki", block, weights, out=sums[:, lo:hi])
            del block                        # before the next chunk's block is made
        if factor is not None:
            sums[:, start:stop] *= factor
    # back to the order of x, the first row into the spent mantissas
    k_mu, k_mu1 = mantissa, np.empty_like(mantissa)
    k_mu[order] = sums[0]
    k_mu1[order] = sums[1]
    return k_mu, k_mu1


def _k_1d(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x), order >= 0, by upward recurrence from K_mu and K_{mu+1}, -1/2 < mu <= 1/2."""
    n = math.ceil(order - 0.5)
    mu = order - n
    # at tiny x 1/x, 2/x, the seeds and a new rule's cosh(nu t_k) may
    # overflow; the rule rescales its weights and every term is positive, so
    # K reads inf where it overflows, never NaN
    with np.errstate(over="ignore"):
        if mu == 0.5:    # e^x K_{1/2}(x) = sqrt(pi/2) / sqrt(x), e^x K_{3/2} = that (1 + 1/x)
            k_mu = math.sqrt(0.5 * math.pi) / np.sqrt(x)
            k_mu1 = k_mu * (1.0 + 1.0 / x)
        else:
            k_mu, k_mu1 = _trapezoid(mu, x)
        step = np.minimum(x, _DECAY_SPLIT)
        np.exp(np.negative(step, out=step), out=step)
        k_mu *= step
        k_mu1 *= step
        for j in range(1, n):
            # K_{mu+j+1} = K_{mu+j-1} + (2 (mu+j) / x) K_{mu+j}, over K_{mu+j-1}
            np.divide(2.0 * (mu + j), x, out=step)
            step *= k_mu1
            k_mu += step
            k_mu, k_mu1 = k_mu1, k_mu
        k = k_mu1 if n else k_mu
        if x.max() > _DECAY_SPLIT:
            np.subtract(_DECAY_SPLIT, x, out=step)
            np.exp(np.minimum(step, 0.0, out=step), out=step)
            k *= step
    return k


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
    fails) and ``max(x) < inf``.  The recurrence works in three buffers the
    size of x, two orders and a step; the trapezoid rule in up to five.
    """
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order must be a finite non-negative real, got {order!r}")
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size == 0:
        return arr.reshape(np.shape(x))
    if not (arr.min() > 0.0 and arr.max() < math.inf):    # NaN fails the first test
        raise ValueError("x must be strictly positive and finite")

    out = _k_1d(order, arr.ravel())
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)
