"""The primon-gas system: zeta four ways.

The same function is evaluated along four independent routes and the
routes are played against each other in the tests:

1. truncated Dirichlet series (spectra.partition_direct on the primon
   spectrum; convergent half-plane only);
2. Euler-Maclaurin continuation of the series (zeta_em), the workhorse,
   valid well left of the critical strip;
3. Euler product over sieved primes (euler_product; Re s > 1);
4. Hadamard product over nontrivial zeros plus gamma-factor and
   prefactor (hadamard_product), taking zero ordinates from find_zeros
   or from a plain-text file.

find_zeros locates critical-line zeros as sign changes of the
Hardy-type function Z(t) = Re[e^{i theta(t)} zeta(1/2+it)] with
theta(t) = Im log_gamma(1/4 + it/2) - (t/2) ln pi, then bisects.
Everything funnels through zeta_em, so the zero table is only as good
as the Euler-Maclaurin window; the adaptive rule cutoff >= 2|Im s| + 50
keeps the verification |zeta(1/2 + i gamma_k)| < 1e-8 honest.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from .core import (
    AccuracyWarning,
    DivergenceDomainError,
    EvaluationResult,
    NumericalDomainError,
    PoleError,
    TWO_PI,
    ZeroHitSignal,
    log_gamma,
    result_from_log,
    result_from_value,
)

EULER_GAMMA = 0.5772156649015329

LOG_PI = math.log(math.pi)
LOG_TWO = math.log(2.0)

# B_{2k} for k = 1..9; k=9 only feeds the error estimate of order-8 runs
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
)


class WindowExhaustedError(NumericalDomainError):
    """Zero scan ran out of window before finding the requested count."""

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
    """Ascending positive ordinates gamma_k of zeros 1/2 + i gamma_k."""

    ordinates: tuple[float, ...]
    source: str = "computed"  # "computed" | "file"

    def __post_init__(self):
        object.__setattr__(self, "ordinates", tuple(float(g) for g in self.ordinates))
        for i, g in enumerate(self.ordinates):
            if not g > 13.0:
                raise ValueError(f"ordinate {g} at index {i} below the first zero")
            if i and not g > self.ordinates[i - 1]:
                raise ValueError(f"ordinates must be strictly ascending, violated at index {i}")
        if self.source not in ("computed", "file"):
            raise ValueError(f"source must be 'computed' or 'file', got {self.source!r}")

    def __len__(self):
        return len(self.ordinates)


def zeta_em(s: complex, cutoff: int = 100, correction_order: int = 6) -> EvaluationResult:
    """Euler-Maclaurin continuation of the Dirichlet series:

        sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
          + sum_{k=1}^{q} B_{2k}/(2k)! * (s)(s+1)...(s+2k-2) * N^{-s-2k+1}

    Ten-significant-digit accuracy holds for |Im s| <= (cutoff-50)/2 and
    Re s >= -5; outside that an AccuracyWarning is emitted but the value
    is still returned.  error_estimate is the first omitted correction
    (truncation only: left of Re s = 0 the partial sum grows like
    cutoff^{1-Re s} before cancelling, so a MODEST cutoff is more
    accurate there, not less).
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta has its simple pole at s=1", location=s, nearest=1)
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if not 1 <= correction_order <= 8:
        raise ValueError(f"correction_order must be in [1, 8], got {correction_order}")
    if abs(s.imag) > (cutoff - 50) / 2.0 or s.real < -5.0:
        warnings.warn(
            f"s={s} outside the validated window for cutoff={cutoff} "
            "(need cutoff >= 2|Im s| + 50 and Re s >= -5)", AccuracyWarning,
            stacklevel=2)

    n = np.arange(1, cutoff, dtype=np.float64)
    total = complex(np.sum(n ** (-s)))
    total += cutoff ** (1.0 - s) / (s - 1.0)
    total += 0.5 * cutoff ** (-s)

    rising = s                      # (s)(s+1)...(s+2k-2), grown incrementally
    fact = 2.0                      # (2k)!
    npow = cutoff ** (-s - 1.0)     # N^{-s-2k+1}
    term = 0j
    for k in range(1, correction_order + 1):
        term = _BERNOULLI_EVEN[k - 1] / fact * rising * npow
        total += term
        rising *= (s + (2 * k - 1)) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        npow /= cutoff * cutoff
    omitted = abs(_BERNOULLI_EVEN[correction_order] / fact * rising * npow)
    return result_from_value(total, omitted, cutoff + correction_order)


def _prime_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def euler_product(s: complex, prime_limit: int) -> EvaluationResult:
    """prod_{p <= prime_limit} 1/(1 - p^{-s}) over sieved primes, in log domain."""
    s = complex(s)
    if not s.real > 1.0:
        raise DivergenceDomainError(
            f"Euler product diverges for Re(s) = {s.real} <= 1", abscissa=1.0)
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    p = _prime_sieve(prime_limit).astype(np.float64)
    log_z = -complex(np.sum(np.log(1.0 - p ** (-s))))
    # the omitted factors miss exactly the n with a prime factor > limit
    err = prime_limit ** (1.0 - s.real) / (s.real - 1.0)
    return result_from_log(log_z, err, len(p))


def hadamard_product(beta: complex, zeros: ZetaZeroTable, zero_count: int,
                     gamma_factor_terms: int = 200) -> EvaluationResult:
    """Zeta rebuilt from its zeros:

        exp((gamma_E + ln pi) beta/2 - ln 2) * 1/(beta-1)
          * prod_{k<zero_count} [1 + (beta^2-beta)/(1/4+gamma_k^2)]
          * prod_{n=1}^{M} (1+beta/2n) e^{-beta/2n} * exp(-beta^2/8 psi'(M+1))

    The zero factors are the conjugate-paired Hadamard factors
    (1-beta/rho)(1-beta/rho_bar); unpaired they would not converge.  The
    trailing exponential is the trigamma tail of the gamma-factor
    product.  Truncation of the zero product dominates the error; the
    estimate uses the zero-density heuristic for sum_{k>K} 1/gamma_k^2.
    """
    beta = complex(beta)
    if abs(beta - 1.0) < 1e-12:
        raise PoleError("the product has its simple pole at beta=1",
                        location=beta, nearest=1)
    if zero_count < 0 or zero_count > len(zeros.ordinates):
        raise ValueError(f"zero_count={zero_count} exceeds table size {len(zeros.ordinates)}")
    if gamma_factor_terms < 1:
        raise ValueError(f"gamma_factor_terms must be >= 1, got {gamma_factor_terms}")
    g = np.asarray(zeros.ordinates[:zero_count])
    # abs(beta - complex(0.5, +-g_k)) < 1e-12 with abs's rounding (np.abs may differ)
    hits = np.flatnonzero(np.hypot(beta.real - 0.5, abs(beta.imag) - g) < 1e-12)
    if hits.size:
        k = int(hits[0])
        raise ZeroHitSignal(f"beta lies on the nontrivial zero 1/2 +- i*{g[k]}",
                            index=k, location=beta)
    q = beta * beta - beta
    zero_factors = 1.0 + q / (0.25 + g * g)
    if np.any(zero_factors == 0):
        k = int(np.flatnonzero(zero_factors == 0)[0])
        raise ZeroHitSignal("beta lies on a paired zero factor", index=k, location=beta)

    n = np.arange(1, gamma_factor_terms + 1, dtype=np.float64)
    w = beta / (2.0 * n)
    gamma_factors = 1.0 + w
    if np.any(gamma_factors == 0):
        # beta = -2n: a trivial zero, an exact value rather than a signal
        return result_from_value(0j, 0.0, zero_count + gamma_factor_terms)

    log_z = (EULER_GAMMA + LOG_PI) * beta / 2.0 - LOG_TWO
    log_z -= cmath.log(beta - 1.0)
    log_z += complex(np.sum(np.log(zero_factors)))
    log_z += complex(np.sum(np.log(gamma_factors) - w))
    log_z -= beta * beta / 8.0 * float(polygamma(1, gamma_factor_terms + 1))

    if zero_count:
        gk = float(g[-1])
        zero_tail = (math.log(gk / TWO_PI) + 1.0) / (TWO_PI * gk)
    else:
        zero_tail = 0.023  # sum over every zero pair, no table at all
    log_err = abs(q) * zero_tail + abs(beta) ** 3 / (48.0 * gamma_factor_terms ** 2)
    r = result_from_log(log_z, 0.0, zero_count + gamma_factor_terms)
    return EvaluationResult(value=r.value, log_value=r.log_value,
                            error_estimate=abs(r.value) * log_err,
                            terms_used=r.terms_used)


def _adaptive_cutoff(t: float) -> int:
    return max(100, int(math.ceil(2.0 * abs(t) + 50.0)))


def zeta_critical_line(t: float) -> complex:
    """zeta(1/2 + it) through the Euler-Maclaurin route, window auto-sized."""
    return zeta_em(complex(0.5, t), cutoff=_adaptive_cutoff(t)).value


def riemann_siegel_theta(t: float) -> float:
    return (log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * LOG_PI)


def hardy_z(t: float) -> float:
    """Real-valued on the critical line; its sign changes are the zeros."""
    return (cmath.exp(complex(0.0, riemann_siegel_theta(t)))
            * zeta_critical_line(t)).real


def _estimated_window(count: int) -> float:
    # invert the smooth zero-counting estimate N(T) ~ (T/2pi)ln(T/2pi) - T/2pi + 7/8
    target = count + 2
    t = 30.0
    while (t / TWO_PI) * (math.log(t / TWO_PI) - 1.0) + 0.875 < target:
        t *= 1.25
    return 1.2 * t


def find_zeros(count: int, t_max: float | None = None,
               scan_step: float = 0.25) -> ZetaZeroTable:
    """First `count` critical-line ordinates by scan + bisection on hardy_z.

    Deterministic: fixed scan grid, fixed bisection depth (|dt| < 1e-9),
    every ordinate re-verified |zeta(1/2 + i gamma)| < 1e-8.  Raises
    WindowExhaustedError if t_max (given or estimated) is hit first; the
    caller enlarges the window.  Validated for count <= 100; gaps between
    higher zeros eventually shrink below scan_step.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if t_max is None:
        t_max = _estimated_window(count)
    found: list[float] = []
    t = 2.0
    z_prev = hardy_z(t)
    while len(found) < count and t < t_max:
        t_next = t + scan_step
        z_next = hardy_z(t_next)
        if z_prev == 0.0:
            found.append(t)
        elif (z_prev < 0) != (z_next < 0):
            lo, hi = t, t_next
            zlo = z_prev
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                zm = hardy_z(mid)
                if zm == 0.0:
                    lo = hi = mid
                    break
                if (zlo < 0) != (zm < 0):
                    hi = mid
                else:
                    lo, zlo = mid, zm
            found.append(0.5 * (lo + hi))
        t, z_prev = t_next, z_next
    if len(found) < count:
        raise WindowExhaustedError(
            f"found {len(found)} of {count} zeros below t_max={t_max}; "
            "enlarge the window", t_max=t_max, found=len(found))
    ordinates = found[:count]
    for gamma in ordinates:
        resid = abs(zeta_critical_line(gamma))
        if not resid < 1e-8:
            raise ArithmeticError(
                f"located ordinate {gamma} fails verification: |zeta| = {resid}")
    return ZetaZeroTable(tuple(ordinates), source="computed")


def ingest_zeros_file(path, verify: bool = False) -> ZetaZeroTable:
    """Read ordinates, one positive decimal per line, '#' comments allowed.

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
        table = ZetaZeroTable(tuple(ordinates), source="file")
    except ValueError as e:
        raise ZerosFileError(f"{path}: {e}") from None
    if verify:
        for gamma in table.ordinates:
            resid = abs(zeta_critical_line(gamma))
            if not resid < 1e-6:
                raise ZerosFileError(
                    f"{path}: ordinate {gamma} fails verification: |zeta| = {resid}")
    return table


def psi_direct(x: float) -> float:
    """Chebyshev psi(x) = sum of von Mangoldt Lambda(n) for n <= x, by sieve.

    Prime powers are walked in exact integer arithmetic, so boundary
    values like x = 8 pick up ln 2 from 2^3 without float-log slop.
    """
    if x < 0:
        raise ValueError(f"psi is defined for x >= 0, got {x}")
    limit = int(math.floor(x))
    if limit < 2:
        return 0.0
    total = 0.0
    for p in _prime_sieve(limit):
        p = int(p)
        lp = math.log(p)
        pk = p
        while pk <= limit:
            total += lp
            pk *= p
    return total


def _is_near_prime_power(x: float, tol: float = 1e-6) -> bool:
    n = round(x)
    if abs(x - n) >= tol or n < 2:
        return False
    for p in _prime_sieve(int(n)):
        p = int(p)
        pk = p
        while pk <= n:
            if pk == n:
                return True
            pk *= p
    return False


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
    if zero_count < 0 or zero_count > len(zeros.ordinates):
        raise ValueError(f"zero_count={zero_count} exceeds table size {len(zeros.ordinates)}")
    if _is_near_prime_power(x):
        warnings.warn(f"x={x} is within 1e-6 of a prime power; psi jumps there",
                      DiscontinuityWarning, stacklevel=2)
    lx = math.log(x)
    total = x - math.log(TWO_PI) - 0.5 * math.log1p(-x ** (-2.0))
    last = 0.0
    if zero_count:
        g = np.asarray(zeros.ordinates[:zero_count])
        rho = 0.5 + 1j * g
        terms = 2.0 * (np.exp(rho * lx) / rho).real
        total -= float(np.sum(terms))
        last = abs(float(terms[-1]))
    return result_from_value(complex(total), last, zero_count)
