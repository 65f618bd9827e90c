"""The primon-gas system: zeta four ways.

The same function is evaluated along four independent routes and the
routes are played against each other in the tests:

1. truncated Dirichlet series (spectra.partition_direct on the primon
   spectrum; convergent half-plane only);
2. Euler-Maclaurin continuation of the series (zeta_em), the workhorse,
   valid well left of the critical strip;
3. Euler product over the primes of a cached sieve (euler_product;
   Re s > 1);
4. Hadamard product over nontrivial zeros plus gamma-factor and
   prefactor (hadamard_product), taking zero ordinates from find_zeros
   or from a plain-text file.

find_zeros locates critical-line zeros as sign changes of Hardy's
Z(t) = e^{i theta(t)} zeta(1/2+it), real for real t, with
theta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi, then bisects.  The
scan is one array of signs over a window worked out from the count, and
one function, _hardy_sign, gives every sign, in the scan and in the
bisection: the Riemann-Siegel formula (riemann_siegel_z, ~sqrt(t/2pi)
terms) wherever its error bound certifies the sign, and one call of
hardy_z_array, the Euler-Maclaurin Z as an array kernel, on every other
node.  hardy_z is a one-node call of that kernel, so each sign, and with
it the table, is the one hardy_z alone would give.  zeta_em verifies,
independently of theta, that every |zeta(1/2 + i gamma_k)| < 1e-8.

Z and zeta share their parts: _cosine_sums is the phase sum of both Z
formulas; _em_bracket and _adaptive_cutoff give zeta_em and hardy_z_array
one Euler-Maclaurin tail and one cutoff, worked out from Im s.

The series routes form n^-s as exp(-s ln n) with ln n read from a table
(core.integer_powers, core.log_integers: 1 MiB at most, n <= 2^17, built
on first use), not with one complex log per term as numpy's n ** (-s)
does; the terms, and so zeta_em, partition_direct and the find_zeros
table, keep numpy's bits.  euler_product reads primes and ln p from one
prime table, sieved on first use and grown on demand, which psi_direct
slices too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyWarning,
    CHUNK_ELEMENTS,
    DivergenceDomainError,
    EVEN_BERNOULLI,
    EvaluationResult,
    NumericalDomainError,
    PoleError,
    TWO_PI,
    ZeroHitSignal,
    hurwitz_zeta,
    integer_powers,
    log_gamma,
    log_integers,
    node_chunks,
    result_from_log,
    result_from_value,
    scaled_error,
)

EULER_GAMMA = 0.5772156649015329

LOG_PI = math.log(math.pi)
LOG_TWO = math.log(2.0)

# Euler-Maclaurin corrections q of zeta_em; B_2(q+1) gives its error estimate
_EM_CORRECTIONS = 6

# M, the gamma-factor terms of hadamard_product, their divisors 2n, the
# trigamma tail psi'(M+1) and the coefficient of beta in log Z:
# (gamma_E + ln pi)/2 from the prefactor, -H_M/2 = -sum 1/2n from the e^{-beta/2n}
_GAMMA_FACTOR_TERMS = 200
_TWO_N = 2.0 * np.arange(1, _GAMMA_FACTOR_TERMS + 1, dtype=np.float64)
_TRIGAMMA_TAIL = hurwitz_zeta(2, _GAMMA_FACTOR_TERMS + 1)
_LINEAR = (EULER_GAMMA + LOG_PI) / 2.0 - math.fsum(1.0 / _TWO_N)

# step of the critical-line sign scan in find_zeros and the bisection
# rounds: 28 halvings of a cell leave 0.25/2^28 < 1e-9 < 0.25/2^27
_SCAN_STEP = 0.25
_BISECTIONS = 28

# Gabcke's bound 0.017 t^(-11/4) on the Riemann-Siegel remainder after
# C_4 holds from here on; _rs_margin is validated up to _RS_T_MAX
_RS_T_MIN = 200.0
_RS_T_MAX = 6e4


def _rs_corrections() -> tuple[tuple[float, ...], ...]:
    """Riemann-Siegel corrections C_0..C_4 by Edwards' formulas (Riemann's
    Zeta Function, 1974, sec. 7.4), sums of w Psi^(m) for the entire function
    Psi(1/2 + x) = cos(2pi(x^2 - 5/16)) / cos(2pi(x + 1/2)), even in x = p - 1/2.
    So C_k = x^(k mod 2) sum_j c_j x^(2j); the c_j are kept while
    |c_j| 4^-j >= 1e-17, their largest size on |x| <= 1/2.  Psi's Taylor
    coefficients come from a 256-point Cauchy sum on |x| = 1.
    """
    x = np.exp(2j * math.pi * np.arange(256) / 256)
    psi = np.cos(2.0 * math.pi * (x * x - 5.0 / 16.0)) / np.cos(2.0 * math.pi * (x + 0.5))
    d = [np.fft.fft(psi).real / 256]                  # Psi, Psi', ..., Psi^(12)
    for _ in range(12):
        d.append(d[-1][1:] * np.arange(1.0, d[-1].size))
    q = 1.0 / math.pi ** 2
    # (w, m) per term.  The Psi^(12) weight is 1/(2^23 3^5 pi^8), like the
    # leading terms of C_1..C_3 a power of 1/(96 pi^2) over a factorial; the
    # often-quoted 1/(2^23 3^6 pi^8) leaves Z off by up to 2.3 t^(-11/4)
    edwards = (((1.0, 0),), ((-q / 96, 3),), ((q / 64, 2), (q * q / 18432, 6)),
               ((-q / 64, 1), (-q * q / 3840, 5), (-q ** 3 / 5308416, 9)),
               ((q / 128, 0), (19 * q * q / 24576, 4), (11 * q ** 3 / 5898240, 8),
                (q ** 4 / 2038431744, 12)))
    corrections = []
    for k, combo in enumerate(edwards):
        c = sum(w * d[m][:d[-1].size] for w, m in combo)[k % 2::2]
        small = np.abs(c) * 4.0 ** -np.arange(c.size) < 1e-17
        corrections.append(tuple(c[:np.flatnonzero(small)[0]].tolist()))
    return tuple(corrections)


_RS_CORRECTIONS = _rs_corrections()


class WindowExhaustedError(NumericalDomainError):
    """The scan window, estimated from the count, held fewer zeros than
    requested; t_max is that window and found the zeros below it."""

    def __init__(self, message: str, *, t_max: float, found: int):
        super().__init__(message)
        self.t_max = t_max
        self.found = found


class ZerosFileError(ValueError):
    """A zeros file failed to parse or violates the table invariants."""


class DiscontinuityWarning(UserWarning):
    """Evaluation point sits on (or hugs) a jump of the target function."""


@dataclass(frozen=True)
class ZetaZeroTable:
    """Ascending positive ordinates gamma_k of zeros 1/2 + i gamma_k.

    Outside the dataclass fields it keeps the ordinates as an array and
    the zero-factor scales 1/(1/4 + gamma_k^2), built once for every
    Hadamard product over the table.
    """

    ordinates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ordinates", tuple(float(g) for g in self.ordinates))
        for i, g in enumerate(self.ordinates):
            if not math.isfinite(g):
                raise ValueError(f"ordinate {g} at index {i} is not finite")
            if not g > 13.0:
                raise ValueError(f"ordinate {g} at index {i} below the first zero")
            if i and not g > self.ordinates[i - 1]:
                raise ValueError(f"ordinates must be strictly ascending, violated at index {i}")
        g = np.array(self.ordinates, dtype=np.float64)
        object.__setattr__(self, "_g", g)
        # numpy divides a complex by a real array as a product with 1/d
        object.__setattr__(self, "_zero_scale", 1.0 / (0.25 + g * g))

    def __len__(self):
        return len(self.ordinates)


# zeta_em warns left of Re s = -1, where head terms up to N^(1 - Re s) cancel:
# against mpmath its worst relative error was 1.9e-11 on [-1, -0.5] (to
# |Im s| = 1000: 1.3e-11), 3.1e-9 on [-2, -1] and 2.7e-3 on [-5, -4]
_EM_RE_MIN = -1.0


def _adaptive_cutoff(t):
    """Euler-Maclaurin cutoff N = max(100, ceil(2|t| + 50)) at Im s = t (a
    float or an array, as floats), the rule of zeta_em and hardy_z_array."""
    return np.maximum(100.0, np.ceil(2.0 * np.abs(t) + 50.0))


def zeta_em(s: complex, cutoff: int | None = None) -> EvaluationResult:
    """Euler-Maclaurin continuation of the Dirichlet series:

        sum_{n<N} n^{-s} + N^{-s} [N/(s-1) + 1/2
          + sum_{k=1}^{q} B_{2k}/(2k)! * (s)(s+1)...(s+2k-2) * N^{1-2k}]

    with N = cutoff (default _adaptive_cutoff(Im s)), q = 6 corrections;
    the bracket is _em_bracket's, and the tail is 0 where N^{-s} underflows.
    The head terms n^{-s} come from core.integer_powers, bit for bit
    numpy's n ** (-s): exp(-s ln n) over the cached ln n table (N
    <= 2^17 + 1; larger cutoffs compute ln n per call), or numpy's own
    power for a real integer s with |s| < 100, where it multiplies.
    In the validated window, Re s >= -1 and |Im s| <= (N - 50)/2, the value
    is within 1e-10 max(1, |zeta(s)|) of mpmath (tested on [-1, 6] x
    [-200, 200]); outside it an AccuracyWarning is emitted, and the value
    returned.  error_estimate is the first omitted correction (truncation
    only: left of Re s = 0 the partial sum grows like N^{1-Re s} before
    cancelling, so a MODEST cutoff is more accurate there, not less).
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has its simple pole at s=1", location=s, nearest=1)
    if cutoff is None:
        cutoff = int(_adaptive_cutoff(s.imag))
    elif cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if abs(s.imag) > (cutoff - 50) / 2.0 or s.real < _EM_RE_MIN:
        warnings.warn(
            f"s={s} outside the validated window for cutoff={cutoff} "
            f"(need cutoff >= 2|Im s| + 50 and Re s >= {_EM_RE_MIN:g})", AccuracyWarning,
            stacklevel=2)

    head = complex(np.sum(integer_powers(s, 1, cutoff)))
    n_s = cutoff ** (-s)
    if n_s == 0:  # the bracket may have overflowed, and 0 * inf is NaN
        return result_from_value(head, 0.0, cutoff + _EM_CORRECTIONS)
    bracket, omitted = _em_bracket(s, cutoff)
    return result_from_value(head + n_s * bracket, abs(n_s * omitted), cutoff + _EM_CORRECTIONS)


def _em_bracket(s, cutoff):
    """N/(s-1) + 1/2 + sum_{k<=q} B_2k/(2k)! (s)(s+1)...(s+2k-2) N^(1-2k),
    q = _EM_CORRECTIONS, N = cutoff: the Euler-Maclaurin tail of zeta(s)
    over N^-s, and its first omitted term; s and N are a Python complex
    and an int or arrays."""
    inv_n2 = 1.0 / (cutoff * cutoff)
    bracket = cutoff / (s - 1.0) + 0.5
    rising = s                      # (s)(s+1)...(s+2k-2), grown incrementally
    fact = 2.0                      # (2k)!
    npow = 1.0 / cutoff             # N^(1-2k)
    for k in range(1, _EM_CORRECTIONS + 1):
        bracket += EVEN_BERNOULLI[k - 1] / fact * rising * npow
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        npow = npow * inv_n2
    return bracket, EVEN_BERNOULLI[_EM_CORRECTIONS] / fact * rising * npow


def zeta_em_array(s: np.ndarray) -> np.ndarray:
    """zeta_em for grid scans: log zeta per point of a complex array, from
    one scalar call per point, each at the cutoff derived from its Im s.
    log zeta is +inf at the pole 1, and Re log zeta is -inf where the sum
    is exactly 0.

    There is no array kernel: left of the critical strip the value is
    what survives the cancellation of terms as large as
    cutoff^(1 - Re s), which only the scalar's own operations reproduce.
    """
    log_z = np.zeros(s.shape, dtype=complex)
    for i, x in enumerate(s.tolist()):
        try:
            log_z[i] = zeta_em(x).log_value
        except PoleError:
            log_z[i] = math.inf
    return log_z


_primes = (0, np.empty(0, dtype=np.int64), np.empty(0))


def _prime_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes p <= limit and their ln p (math.log), sliced from one
    table sieved on first use and, when a limit passes it, sieved again up
    to the larger of the limit, twice the old bound and 1024.  A race
    between two threads only sieves twice: each reads the tuple it
    fetched."""
    global _primes
    upto, primes, logs = _primes
    if limit > upto:
        upto = max(1024, limit, 2 * upto)
        mask = np.ones(upto + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(upto) + 1):
            if mask[p]:
                mask[p * p:: p] = False
        primes = np.flatnonzero(mask)
        logs = np.array([math.log(p) for p in primes.tolist()])
        _primes = upto, primes, logs
    k = int(np.searchsorted(primes, limit, side="right"))
    return primes[:k], logs[:k]


def euler_product(s: complex, prime_limit: int) -> EvaluationResult:
    """prod_{p <= prime_limit} 1/(1 - p^{-s}) in log domain, over the
    cached prime table (_prime_table; no sieve per call).

    w = p^{-s} is exp(-s ln p), numpy's p ** (-s) but for a real integer
    s, where numpy multiplies.  log(1 - w) is taken from real parts,
    (1/2) log1p(|w|^2 - 2 Re w) + i arctan2(-Im w, 1 - Re w), with no
    complex log, so the bits differ from the complex logs' within
    rounding: against mpmath over the primes below 1e4, at 60 points with
    1.01 <= Re s <= 4 and |Im s| <= 50, the worst |error of log Z| was
    1.6e-15, and 4.3e-15 with the complex logs.
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DivergenceDomainError(
            f"Euler product diverges for Re(s) = {s.real} <= 1", abscissa=1.0)
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    _, log_p = _prime_table(prime_limit)
    w = np.exp(-s * log_p)
    w_re, w_im = w.real, w.imag
    log_abs = 0.5 * np.sum(np.log1p(w_re * (w_re - 2.0) + w_im * w_im))
    log_z = -complex(log_abs, np.sum(np.arctan2(-w_im, 1.0 - w_re)))
    # the omitted factors miss exactly the n with a prime factor > limit
    err = prime_limit ** (1.0 - s.real) / (s.real - 1.0)
    return result_from_log(log_z, err, len(log_p))


def _check_zero_count(zeros: ZetaZeroTable, zero_count: int) -> None:
    if zero_count < 0:
        raise ValueError(f"zero_count must be >= 0, got {zero_count}")
    if zero_count > len(zeros.ordinates):
        raise ValueError(f"zero_count={zero_count} exceeds table size {len(zeros.ordinates)}")


def hadamard_product(beta: complex, zeros: ZetaZeroTable, zero_count: int) -> EvaluationResult:
    """Zeta rebuilt from its zeros:

        exp((gamma_E + ln pi) beta/2 - ln 2) * 1/(beta-1)
          * prod_{k<zero_count} [1 + (beta^2-beta)/(1/4+gamma_k^2)]
          * prod_{n=1}^{M} (1+beta/2n) e^{-beta/2n} * exp(-beta^2/8 psi'(M+1))

    The zero factors are the conjugate-paired Hadamard factors
    (1-beta/rho)(1-beta/rho_bar); unpaired they would not converge.  The
    trailing exponential is the trigamma tail of the gamma-factor
    product.  One node of hadamard_product_array.  Raises PoleError at
    beta = 1 and ZeroHitSignal, naming the ordinate, on a zero; a trivial
    zero -2n is the exact value 0, not a signal.
    """
    beta = complex(beta)
    log_z, err, terms = hadamard_product_array(np.array([beta]), zeros, zero_count)
    if log_z[0] == math.inf:
        raise PoleError("the product has its simple pole at beta=1",
                        location=beta, nearest=1)
    if log_z[0].real == -math.inf:
        # the kernel's ordinate test; the first hit names the zero
        g = zeros._g[:zero_count]
        hits = np.flatnonzero(np.hypot(beta.real - 0.5, abs(beta.imag) - g) < 1e-12)
        if hits.size:
            k = int(hits[0])
            raise ZeroHitSignal(f"beta lies on the nontrivial zero 1/2 +- i*{g[k]}",
                                index=k, location=beta)
    return result_from_log(log_z[0], err[0], terms[0])


def hadamard_product_array(beta: np.ndarray, zeros: ZetaZeroTable, zero_count: int):
    """The product of hadamard_product on a complex array of nodes:
    (log Z, error_estimate, terms_used) per node.

    Each factor enters with its principal log; the gamma factors' e^{-beta/2n}
    enter as e^{-beta H_M/2}.  log Z is +inf within 1e-12 of 1, and Re log Z
    is -inf within 1e-12 of a zero 1/2 +- i gamma_k or at a vanishing factor
    (as at a trivial zero -2n, n <= M).  Truncation of the zero product
    dominates the error estimate, which takes the zero-density heuristic for
    sum_{k>K} 1/gamma_k^2, plus the gamma factors' |beta|^3/48M^2.
    """
    _check_zero_count(zeros, zero_count)
    g = zeros._g[:zero_count]
    zero_scale = zeros._zero_scale[:zero_count]
    with np.errstate(all="ignore"):
        b_m1 = beta - 1.0
        log_pole = np.log(b_m1)
        q = beta * b_m1
        log_z = beta * (_LINEAR - beta * (_TRIGAMMA_TAIL / 8.0)) - LOG_TWO - log_pole
        for sl in node_chunks(beta.size, zero_count + _GAMMA_FACTOR_TERMS):
            nodes = beta[sl, None]
            f = np.empty((nodes.shape[0], zero_count + _GAMMA_FACTOR_TERMS), dtype=complex)
            np.multiply(q[sl, None], zero_scale, out=f[:, :zero_count])
            # true real quotients: beta * (1/2n), which numpy's complex-by-real
            # division also forms, misses the trivial zero -2n for n = 49, 98,
            # 103, ..., where 2n (1/2n) rounds below 1
            np.divide(nodes.real, _TWO_N, out=f[:, zero_count:].real)
            np.divide(nodes.imag, _TWO_N, out=f[:, zero_count:].imag)
            f += 1.0
            log_z.real[sl] += np.log(np.abs(f)).sum(axis=1)
            log_z.imag[sl] += np.arctan2(f.imag, f.real).sum(axis=1)
            # an ordinate hit needs |Re beta - 1/2| < 1e-12 first
            near = np.abs(nodes.real - 0.5) < 1e-12
            if near.any():
                hit = near & (np.hypot(nodes.real - 0.5, np.abs(nodes.imag) - g) < 1e-12)
                log_z.real[sl][hit.any(axis=1)] = -np.inf
        if zero_count:
            gk = float(g[-1])
            zero_tail = (math.log(gk / TWO_PI) + 1.0) / (TWO_PI * gk)
        else:
            zero_tail = 0.023  # sum over every zero pair, no table at all
        # log(|q| zero_tail + |beta|^3 / 48 M^2), whose terms overflow past
        # |beta| ~ 1e102; |q| = |beta| |beta - 1|
        log_beta = np.log(np.abs(beta))
        log_err = np.logaddexp(log_beta + log_pole.real + math.log(zero_tail),
                               3.0 * log_beta - math.log(48.0 * _GAMMA_FACTOR_TERMS ** 2))
        error = scaled_error(log_z.real, log_err)
    log_z[np.abs(b_m1) < 1e-12] = np.inf
    return log_z, error, np.full(beta.shape, zero_count + _GAMMA_FACTOR_TERMS)


def riemann_siegel_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi, of a float or an array."""
    return log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * LOG_PI


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2 + it), real for real t; its
    sign changes are the critical-line zeros.  One node of hardy_z_array,
    so a node's value is the same alone or in a batch."""
    return float(hardy_z_array(np.array([float(t)]))[0])


def hardy_z_array(t: np.ndarray) -> np.ndarray:
    """Hardy's Z on a 1-D array of finite t by zeta_em's Euler-Maclaurin sum,
    its cutoff N = _adaptive_cutoff(t) per node and the same six
    corrections, rotated by e^{i theta} term by term:

        sum_{n<N} n^{-1/2} cos(theta - t ln n)
          + Re[e^{i theta} (N^{1-s}/(s-1) + N^{-s}/2 + corrections)],

    s = 1/2 + it: the head is _cosine_sums, the tail _em_bracket's, so a
    node's value does not depend on the other nodes of the call.  Raises
    ValueError naming the first non-finite t.

    Rounding, eps = 2^-52, for |t| >= 2: theta is within
    eps (|theta| + |t| ln N) (twice its worst error against
    mpmath.siegeltheta on [2, 6e4]), so each phase theta - t ln n is off
    by at most eps (1.5 |theta| + 3 |t| ln N), and each head term by
    3 eps n^{-1/2} more; the pairwise sum adds eps (log2 N + 1) per term;
    the tail, below 2 sqrt(N), carries the same phase error.  The
    truncation after six corrections is far below rounding.  With
    2 log2 N + 10 <= 3 |t| ln N:

        |hardy_z_array(t) - Z(t)| <= eps (3 |theta| + 9 |t| ln N) sum_{n<=N} n^{-1/2}.

    That is a worst case, in which no two phase errors cancel.  Against
    mpmath.siegelz the error was at most 2.0e-12 on [2, 1500], where the
    bound is about 3e-9, and at most 6.5e-16 |t| ln |t| on [200, 6e4].
    """
    t = np.asarray(t, dtype=np.float64)
    bad = ~np.isfinite(t)
    if bad.any():
        raise ValueError(f"Hardy's Z needs a finite t, got {t[bad][0]}")
    cutoff = _adaptive_cutoff(t)
    n_cut = cutoff.astype(np.int64)
    theta = riemann_siegel_theta(t)
    # rows of 2|t| + 49 terms: a pad of 64 keeps the width groups few
    z = _cosine_sums(t, theta, n_cut - 1, 64)
    # e^{i theta} N^-s = N^{-1/2} e^{i (theta - t ln N)}
    bracket, _ = _em_bracket(0.5 + 1j * t, cutoff)
    phase = theta - t * log_integers(1, int(n_cut.max(initial=1)) + 1)[n_cut - 1]
    z += (np.cos(phase) * bracket.real - np.sin(phase) * bracket.imag) / np.sqrt(cutoff)
    return z


def _cosine_sums(t: np.ndarray, theta: np.ndarray, n_terms: np.ndarray, pad: int) -> np.ndarray:
    """sum_{n <= n_terms} n^{-1/2} cos(theta - t ln n) per node, ln n from
    core.log_integers.  Each row is padded with zero terms to a multiple of
    pad and summed with the rows of the same padded width, in blocks of at
    most CHUNK_ELEMENTS terms, every node x term temporary within
    CHUNK_ELEMENTS; so a node's sum does not depend on the other nodes.  A
    larger pad means fewer width groups and more zero terms."""
    width = -(-n_terms // pad) * pad
    n_max = int(width.max(initial=0))
    log_n = log_integers(1, n_max + 1)
    inv_sqrt_n = 1.0 / np.sqrt(np.arange(1.0, n_max + 1.0))
    sums = np.empty(t.shape)
    for w in sorted(set(width.tolist())):
        group = np.flatnonzero(width == w)
        t_g, theta_g, n_terms_g = t[group], theta[group], n_terms[group]
        head = np.zeros(group.size)
        for start in range(0, w, CHUNK_ELEMENTS):
            stop = min(w, start + CHUNK_ELEMENTS)
            n = np.arange(start + 1.0, stop + 1.0)
            for sl in node_chunks(group.size, stop - start):
                # one node x term temporary: the phases, then the terms in place
                terms = t_g[sl, None] * log_n[start:stop]
                np.subtract(theta_g[sl, None], terms, out=terms)
                np.cos(terms, out=terms)
                terms *= inv_sqrt_n[start:stop]
                terms[n > n_terms_g[sl, None]] = 0.0
                head[sl] += terms.sum(axis=1)
        sums[group] = head
    return sums


def riemann_siegel_z(t: np.ndarray) -> np.ndarray:
    """Hardy's Z on a 1-D array of t > 0 by the Riemann-Siegel formula:

        2 sum_{n<=N} n^{-1/2} cos(theta(t) - t ln n)
          + (-1)^(N-1) a^{-1/2} sum_{k=0}^{4} C_k(p) a^{-k},

    a = sqrt(t/2pi), N = floor(a), p = a - N (Edwards, Riemann's Zeta
    Function, ch. 7).  From t = 200 on, Gabcke's 0.017 t^(-11/4) bounds the
    omitted remainder; _rs_margin adds the float rounding.  The C_k are
    _rs_corrections' polynomials in p - 1/2, by Horner's rule; the main sum
    is _cosine_sums, so a node's value does not depend on the other nodes.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.sqrt(t / TWO_PI)
    n_main = np.floor(a)
    x = a - n_main - 0.5
    x2 = x * x
    # a pad of 8, not 64: rows are at most 97 terms (t <= 6e4), mostly under 16
    z = 2.0 * _cosine_sums(t, riemann_siegel_theta(t), n_main.astype(np.int64), 8)
    corrections = 0.0
    for k in reversed(range(len(_RS_CORRECTIONS))):
        c_k = 0.0
        for c in reversed(_RS_CORRECTIONS[k]):
            c_k = c_k * x2 + c
        corrections = corrections / a + (x * c_k if k % 2 else c_k)
    return z + np.where(n_main % 2 == 1, 1.0, -1.0) * corrections / np.sqrt(a)


def _rs_margin(t: np.ndarray) -> np.ndarray:
    """Bound on |riemann_siegel_z(t) - hardy_z(t)| for t >= 200: Gabcke's
    remainder bound plus 1e-14 t ln t for the rounding of the phases
    theta - t ln n in both, a sampled constant.  Against mpmath.siegelz
    (dps 30) at 400 uniform t in [200, 6e4] (default_rng(5)),
    |riemann_siegel_z - Z| was at most 0.45 of this margin, at t = 541.6,
    where Gabcke's term dominates.  Past t = 2000 the rounding was at most
    1.5e-15 t ln t in riemann_siegel_z (0.15 of its term, at t = 11575.5)
    and 6.5e-16 t ln t in hardy_z."""
    return 0.017 * t ** -2.75 + 1e-14 * t * np.log(t)


def _hardy_sign(t: np.ndarray) -> np.ndarray:
    """hardy_z on an array of t, or a value of the same sign:
    riemann_siegel_z where _rs_margin certifies its sign (t >= 200 and |Z|
    above the margin), one call of the module-global hardy_z_array on
    every other node."""
    z = np.full(t.shape, np.nan)
    fast = t >= _RS_T_MIN
    z_rs = riemann_siegel_z(t[fast])
    z[fast] = np.where(np.abs(z_rs) > _rs_margin(t[fast]), z_rs, np.nan)
    slow = np.isnan(z)
    z[slow] = hardy_z_array(t[slow])
    return z


def _estimated_window(count: int) -> float:
    # invert the smooth zero-counting estimate N(T) ~ (T/2pi)ln(T/2pi) - T/2pi + 7/8
    target = count + 2
    t = 30.0
    while (t / TWO_PI) * (math.log(t / TWO_PI) - 1.0) + 0.875 < target:
        t *= 1.25
    return 1.2 * t


def _verification_failure(ordinates, tol: float) -> str | None:
    """What fails first of |zeta(1/2 + i gamma)| < tol, None if nothing does."""
    for gamma in ordinates:
        if not (resid := abs(zeta_em(complex(0.5, gamma)).value)) < tol:
            return f"ordinate {gamma} fails verification: |zeta| = {resid}"
    return None


def find_zeros(count: int) -> ZetaZeroTable:
    """First `count` critical-line ordinates by scan + bisection on the sign of Z.

    Deterministic: _hardy_sign decides every sign on the nodes 2 + 0.25k
    below _estimated_window(count), Riemann-Siegel where it certifies the
    sign and one hardy_z_array call for the rest, so each sign, and the
    table, is the one hardy_z alone gives.  An event is a zero on a node
    or a sign change into a nonzero node; the first `count` events are
    kept and their brackets bisected together (|dt| < 1e-9).
    ArithmeticError unless every |zeta(1/2 + i gamma)| < 1e-8 by zeta_em;
    WindowExhaustedError if the window holds fewer events,
    NumericalDomainError if it passes _RS_T_MAX (count > 59713).  Known
    miss: two zeros in one scan cell give no sign change, so both are
    skipped and every later index shifts.  The first such pair is
    gamma_922/gamma_923 (t = 1329.04, 1329.21): the table is exact for
    count <= 921 only (a strict-xfail test pins this).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    window = _estimated_window(count)
    if window > _RS_T_MAX:
        raise NumericalDomainError(f"count {count} needs the scan window t < {window:.6g}, past "
                                   f"the t <= {_RS_T_MAX:g} where the sign margin is validated")
    t = 2.0 + _SCAN_STEP * np.arange(math.ceil((window - 2.0) / _SCAN_STEP), dtype=np.float64)
    z = _hardy_sign(t)
    on_node = z == 0.0
    negative = z < 0
    event = on_node.copy()
    event[:-1] |= ~on_node[1:] & (negative[:-1] != negative[1:])
    events = np.flatnonzero(event)[:count]
    if events.size < count:
        raise WindowExhaustedError(
            f"found {events.size} of {count} zeros below the estimated window "
            f"t={window}", t_max=window, found=int(events.size))
    # each bracket's lo keeps its end's sign and an exact zero at mid becomes hi
    cells = events[~on_node[events]]
    lo, lo_negative = t[cells], negative[cells]
    hi = t[cells + 1]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        z = _hardy_sign(mid)
        to_hi = (z == 0.0) | ((z < 0) != lo_negative)
        hi = np.where(to_hi, mid, hi)
        lo = np.where(to_hi, lo, mid)
    ordinates = t[events]
    ordinates[~on_node[events]] = 0.5 * (lo + hi)
    ordinates = ordinates.tolist()
    if failure := _verification_failure(ordinates, 1e-8):
        raise ArithmeticError(f"located {failure}")
    return ZetaZeroTable(tuple(ordinates))


def ingest_zeros_file(path, verify: bool = False) -> ZetaZeroTable:
    """Read ordinates, one positive decimal per line, '#' comments allowed.

    Raises ZerosFileError naming the path (and line) for an empty file, a
    non-positive or non-ascending entry, or a table ZetaZeroTable rejects.
    verify=True re-checks each ordinate |zeta(1/2 + i gamma)| < 1e-6.
    """
    ordinates: list[float] = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                gamma = float(text)
            except ValueError:
                raise ZerosFileError(f"{path}:{ln}: not a decimal ordinate: {text!r}") from None
            if not gamma > 0:
                raise ZerosFileError(f"{path}:{ln}: ordinate must be positive, got {gamma}")
            if ordinates and gamma <= ordinates[-1]:
                raise ZerosFileError(f"{path}:{ln}: ordinates must ascend "
                                     f"({gamma} after {ordinates[-1]})")
            ordinates.append(gamma)
    if not ordinates:
        raise ZerosFileError(f"{path}: no ordinates found")
    try:
        table = ZetaZeroTable(tuple(ordinates))
    except ValueError as e:
        raise ZerosFileError(f"{path}: {e}") from None
    if verify and (failure := _verification_failure(table.ordinates, 1e-6)):
        raise ZerosFileError(f"{path}: {failure}")
    return table


def psi_direct(x: float) -> float:
    """Chebyshev psi(x) = sum of von Mangoldt Lambda(n) for n <= x, over the
    cached prime table.

    Prime powers are walked in exact integer arithmetic, so boundary
    values like x = 8 pick up ln 2 from 2^3 without float-log slop.
    """
    if x < 0:
        raise ValueError(f"psi is defined for x >= 0, got {x}")
    limit = int(math.floor(x))
    if limit < 2:
        return 0.0
    total = 0.0
    primes, logs = _prime_table(limit)
    for p, lp in zip(primes.tolist(), logs.tolist()):
        pk = p
        while pk <= limit:
            total += lp
            pk *= p
    return total


def _is_near_prime_power(x: float, tol: float = 1e-6) -> bool:
    # Lambda(n) = psi(n) - psi(n - 1) is positive exactly at prime powers
    n = round(x)
    return abs(x - n) < tol and n >= 2 and psi_direct(n) > psi_direct(n - 1)


def explicit_formula_psi(x: float, zeros: ZetaZeroTable,
                         zero_count: int) -> EvaluationResult:
    """Chebyshev psi rebuilt from zeros:

        x - 2 sum_{k<zero_count} Re(x^{rho_k}/rho_k) - ln 2pi - (1/2)ln(1-x^{-2})

    with rho_k = 1/2 + i gamma_k; the conjugate zero of each pair is
    folded into the 2 Re.  psi jumps at prime powers, so evaluation
    within 1e-6 of one gets a DiscontinuityWarning (the zero sum
    converges to the jump midpoint there).
    """
    if x <= 1.0:
        raise NumericalDomainError(f"explicit formula needs x > 1, got {x}")
    _check_zero_count(zeros, zero_count)
    if _is_near_prime_power(x):
        warnings.warn(f"x={x} is within 1e-6 of a prime power; psi jumps there",
                      DiscontinuityWarning, stacklevel=2)
    lx = math.log(x)
    total = x - math.log(TWO_PI) - 0.5 * math.log1p(-x ** (-2.0))
    last = 0.0
    if zero_count:
        g = zeros._g[:zero_count]
        rho = 0.5 + 1j * g
        terms = 2.0 * (np.exp(rho * lx) / rho).real
        total -= float(np.sum(terms))
        last = abs(float(terms[-1]))
    return result_from_value(complex(total), last, zero_count)
