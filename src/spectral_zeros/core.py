"""Shared numerical kernels.

The result and signal types every route returns or raises, the
pole-lattice mask, the Hurwitz zeta for integer s (the power sums of the
oscillator's far-factor series; its s = 2 case, trigamma, gives the
product kernels their tail terms) with its table of even Bernoulli
numbers, which zeta.zeta_em reads too, and the principal-branch complex
log-gamma on which the QNM gamma towers are built: scipy's loggamma behind
a pole check, imported on the first call, so that a process which never
needs log-gamma (every grid scan) never loads scipy.

Every product and closed form is one array kernel over nodes whose only
status signal is log Z = +inf at a pole, Re log Z = -inf at a zero; its
scalar is a one-node call.  The kernels share three helpers: node chunks
bounding every node x factor temporary to CHUNK_ELEMENTS, the pole-lattice
mask, and the per-node error estimate |Z| * (error of log Z) in log domain.

The spectrum side's power sums read ln n from a table (log_integers) and
form n^-s from it with numpy's bits (integer_powers).

All functions are pure; the only state is the memo of the Hurwitz zeta's
series coefficients and the ln n table, each built on first use.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_LOG_TWO_PI = 0.5 * math.log(TWO_PI)

# Smallest x with exp(x) > 0 in IEEE double: below it result_from_log's
# value is exactly 0, and grid_scan flags a node with Re log Z below it.
EXP_UNDERFLOW = -745.1332191019411

# Node x factor elements one temporary of an array kernel may hold (2^15
# float64: 256 KiB), so whole-grid evaluation keeps memory flat.
CHUNK_ELEMENTS = 1 << 15


class NumericalDomainError(ValueError):
    """An evaluation was requested outside its domain of validity."""


class PoleError(NumericalDomainError):
    """The evaluation point sits on (or within 1e-12 of) a pole.

    ``nearest`` identifies the pole: the integer index k of the pole
    lattice for closed forms, or the non-positive integer for gamma.
    """

    def __init__(self, message: str, *, location: complex | None = None,
                 nearest: int | None = None):
        super().__init__(message)
        self.location = location
        self.nearest = nearest


class DivergenceDomainError(NumericalDomainError):
    """A series/product was requested outside its convergence region."""

    def __init__(self, message: str, *, abscissa: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa


class ZeroHitSignal(NumericalDomainError):
    """The evaluation point coincides with a zero of the function."""

    def __init__(self, message: str, *, index: int | None = None,
                 location: complex | None = None):
        super().__init__(message)
        self.index = index
        self.location = location


# No route raises a signal of its own for a zero factor (the kernel gives
# log Z = -inf) or for a pole entry (PoleError), so these two names are
# aliases, kept only for callers that catch them by name.  The benchmark
# change of ROADMAP item 1 deletes them together with those catches.
ZeroFactorSignal = ZeroHitSignal
PoleHitSignal = PoleError


class AccuracyWarning(UserWarning):
    """Requested point lies outside the validated accuracy window."""


def lattice_pole_mask(x_re, sin_half):
    """True where x is within 1e-12 of a pole 2 pi i k, given Re x and
    sin(Im x / 2): the domain check of every closed form or product with
    poles on 2 pi i Z.  hypot(Re x, 2 sin(Im x / 2)) is the distance to the
    nearest pole to first order, and sin reduces Im x exactly, so the test
    holds at every magnitude; at a flagged node a scalar names the pole
    k = round(Im x / 2 pi)."""
    return np.hypot(x_re, 2.0 * sin_half) < 1e-12


def node_chunks(n_nodes: int, width: int) -> list[slice]:
    """Slices covering range(n_nodes), each holding at most
    CHUNK_ELEMENTS // width nodes (at least one)."""
    step = max(1, CHUNK_ELEMENTS // max(1, width))
    return [slice(i, i + step) for i in range(0, n_nodes, step)]


def scaled_error(log_abs: np.ndarray, log_err) -> np.ndarray:
    """Per-node error estimate |Z| * err from log|Z| and log err.

    Taken as exp(log|Z| + log err), so neither factor is formed: an err
    beyond the float range cannot overflow, and a value that underflows
    gives 0, never 0 * inf = NaN.  Where the sum is inf - inf (a pole
    whose err vanishes) fmin turns its NaN into inf.  The kernels call it
    inside their np.errstate(all="ignore").
    """
    return np.exp(np.fmin(log_abs + log_err, np.inf))


@dataclass(frozen=True)
class EvaluationResult:
    """Value of a series/product together with bookkeeping.

    ``log_value`` is the accumulated principal-branch log (its imaginary
    part may exceed pi when a product winds); ``exp(log_value)`` and
    ``value`` agree to ~1e-12 relative whenever ``value`` is representable.
    ``error_estimate`` is an upper-bound heuristic for the truncation
    error, never negative.
    """

    value: complex
    log_value: complex
    error_estimate: float
    terms_used: int

    def __post_init__(self):
        if not self.error_estimate >= 0.0:
            raise ValueError(f"error_estimate must be >= 0, got {self.error_estimate}")
        if self.terms_used < 0:
            raise ValueError(f"terms_used must be >= 0, got {self.terms_used}")


def result_from_log(log_value: complex, error_estimate: float = 0.0,
                    terms_used: int = 0) -> EvaluationResult:
    """Build an EvaluationResult from an accumulated log, guarding exp
    overflow; a NaN log (an intermediate overflowed) raises OverflowError."""
    log_value = complex(log_value)
    if cmath.isnan(log_value):
        raise OverflowError(f"log value {log_value} is not a number: an intermediate overflowed")
    if log_value.real == -math.inf:
        value = 0j
    elif log_value.real == math.inf:
        value = complex(math.inf, 0.0)
    else:
        try:
            value = cmath.exp(log_value)
        except OverflowError:           # past log(DBL_MAX) = 709.78...
            value = complex(math.inf, 0.0)  # phase dropped on overflow
    return EvaluationResult(value=value, log_value=log_value,
                            error_estimate=float(error_estimate),
                            terms_used=int(terms_used))


def result_from_value(value: complex, error_estimate: float = 0.0,
                      terms_used: int = 0) -> EvaluationResult:
    """Build an EvaluationResult from a directly summed value."""
    value = complex(value)
    if value == 0:
        logv = complex(-math.inf, 0.0)
    else:
        logv = cmath.log(value)
    return EvaluationResult(value=value, log_value=logv,
                            error_estimate=float(error_estimate),
                            terms_used=int(terms_used))


def _even_bernoulli() -> tuple[float, ...]:
    """B_2, B_4, .., B_32, each rounded once from its exact value
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the tangent numbers
    T_k = 1, 2, 16, 272, ... from the integer recurrence of Brent and
    Harvey, Fast computation of Bernoulli, tangent and secant numbers
    (2011), Algorithm TangentNumbers."""
    n = 16
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple((-1) ** (k - 1) * 2 * k * t[k] / (4 ** k * (4 ** k - 1)) for k in range(1, n + 1))


# the coefficients of hurwitz_zeta's and zeta.zeta_em's Euler-Maclaurin
# series: data both routes read, while neither calls the other
EVEN_BERNOULLI = _even_bernoulli()


@functools.cache
def _euler_maclaurin(s: int) -> tuple[float, tuple[float, ...]]:
    """Start y0 = max(32, s) of hurwitz_zeta's asymptotic series and its
    coefficients a_k = B_2k (s)_(2k-1) / (2k)!, k = 1..K.

    K is the fewest terms whose first omitted term, a_(K+1) y0^(-s-2K-1),
    is below 2^-60 of the leading y0^(1-s)/(s-1): for t^-s, whose even
    derivatives are all positive, that term bounds the remainder.  s = 2
    gives y0 = 32 and B_2..B_10.
    """
    y0 = max(32, s)
    coefficients = []
    rising = s / 2                  # (s)_(2k-1) / (2k)!, k = 1
    k = 1
    while True:
        a = EVEN_BERNOULLI[k - 1] * rising
        if abs(a) * (s - 1) < float(y0) ** (2 * k) * 2.0 ** -60:
            return float(y0), tuple(coefficients)
        coefficients.append(a)
        rising *= (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2))
        k += 1


def hurwitz_zeta(s: int, x: float) -> float:
    """zeta(s, x) = sum_{n>=0} (x+n)^-s for integer s >= 2 and real x > 0.

    The recurrence zeta(s, x) = x^-s + zeta(s, x+1) carries x to
    y >= max(32, s), where the Euler-Maclaurin series
    y^-s [y/(s-1) + 1/2 + sum_k a_k y^(1-2k)] is cut below 2^-60 relative
    (see _euler_maclaurin); fsum adds the parts.  The cost does not grow
    with x.  Where every shift x + k is exact (integer x, say) the result
    is within 3 ulp while it is a normal float; a shift that rounds adds up
    to s/2 ulp.  s = 2 is trigamma, psi'(x), within 2 ulp; each power is
    formed so that s = 2 keeps the trigamma bits the scan files depend
    on: y^0 is exactly 1.
    """
    if s != int(s) or s < 2 or not x > 0:
        raise ValueError(f"hurwitz_zeta needs integer s >= 2 and x > 0, got s={s}, x={x}")
    s, x = int(s), float(x)
    y0, coefficients = _euler_maclaurin(s)
    parts = []
    while x < y0:
        parts.append(1.0 / (x ** (s - 2) * (x * x)))
        x += 1.0
    t = 1.0 / x
    t2 = t * t
    ts = x ** (2 - s) * t           # x^(1-s)
    p = coefficients[-1]
    for a in coefficients[-2::-1]:
        p = a + t2 * p
    parts.append(ts / (s - 1) + 0.5 * (ts * t) + ts * t2 * p)
    return math.fsum(parts)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z), scipy.special.loggamma's.

    Raises PoleError when z is within 1e-12 of a non-positive integer.
    scipy.special is imported here, not with the module: only the QNM
    one-loop sum needs it, and the import costs ~0.3 s and ~25 MB.
    """
    from scipy.special import loggamma

    z = complex(z)
    n = round(z.real)
    if n <= 0 and abs(z - n) < 1e-12:
        raise PoleError(f"log_gamma pole at non-positive integer {n}",
                        location=z, nearest=n)
    return complex(loggamma(z))


# ln n is served from a table up to here (1 MiB): past every cutoff
# zeta.find_zeros can use, whose window ends at t = 6e4, and the primon
# level sum's default 100,000 terms
LOG_TABLE_MAX = 1 << 17
_log_table = np.empty(0)


def log_integers(start: int, stop: int) -> np.ndarray:
    """ln n for start <= n < stop (start >= 1), as numpy's complex power
    n ** s takes it: the real part of the complex log, which is math.log,
    while float64 np.log is an ulp off at n = 9170, 19143, 94869 and
    102327 (AVX-512).  While stop - 1 <= LOG_TABLE_MAX it is a read-only
    view of a table built on first use and grown to the next power of two
    (at least 1024); past that it is computed per call.  A race between
    two threads only builds the same table twice: each reads the array it
    fetched."""
    global _log_table
    start, stop = operator.index(start), operator.index(stop)
    table = _log_table
    if stop - 1 > table.size:
        if stop - 1 > LOG_TABLE_MAX:
            return np.log(np.arange(start, stop, dtype=complex)).real
        size = min(LOG_TABLE_MAX, max(1024, 1 << (stop - 2).bit_length()))
        table = np.empty(size)
        # in chunks, so the complex temporaries stay at 256 KiB
        for lo in range(0, size, CHUNK_ELEMENTS // 2):
            hi = min(size, lo + CHUNK_ELEMENTS // 2)
            table[lo:hi] = np.log(np.arange(lo + 1, hi + 1, dtype=complex)).real
        table.flags.writeable = False
        _log_table = table
    return table[start - 1:stop - 1]


def integer_powers(s: complex, start: int, stop: int) -> np.ndarray:
    """n^-s for start <= n < stop, bit for bit numpy's
    np.arange(start, stop, dtype=float) ** (-s), without its per-element
    complex log: exp(-s ln n) with ln n from log_integers, which is what
    numpy's power computes, except for a real integer s with |s| < 100,
    where numpy's power multiplies instead, and so this takes it."""
    s, start, stop = complex(s), operator.index(start), operator.index(stop)
    if s.imag == 0 and s.real.is_integer() and abs(s.real) < 100:
        return np.arange(start, stop, dtype=np.float64) ** (-s)
    return np.exp(-s * log_integers(start, stop))
