"""Shared numerical kernels.

The result and signal types every route returns or raises, the
pole-lattice test, and two numerical primitives:

* a principal-branch complex log-gamma, accurate to >= 12 significant
  digits for |z| <= 100, computed by Stirling's series after pushing the
  argument right with the recurrence log Gamma(z) = log Gamma(z+1) - log z;
  the QNM gamma towers and the Riemann-Siegel theta are built on it;
* a log-domain product accumulator that tracks the argument continuously
  between consecutive factors, so slowly winding products never lose a
  branch.  It is a utility for callers with winding streams: the
  library's own products pair their factors and sum principal logs.

All functions are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

TWO_PI = 2.0 * math.pi
HALF_LOG_TWO_PI = 0.5 * math.log(TWO_PI)

# Largest x with exp(x) finite in IEEE double.
EXP_OVERFLOW = 709.0


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


class ZeroFactorSignal(NumericalDomainError):
    """A product factor is exactly zero; carries the factor index."""

    def __init__(self, index: int, message: str | None = None):
        super().__init__(message or f"factor at index {index} is exactly zero (log -> -inf)")
        self.index = index


class ZeroHitSignal(NumericalDomainError):
    """The evaluation point coincides with a zero of the function."""

    def __init__(self, message: str, *, index: int | None = None,
                 location: complex | None = None):
        super().__init__(message)
        self.index = index
        self.location = location


class PoleHitSignal(NumericalDomainError):
    """The evaluation point coincides with a pole entry of a zero/pole set."""

    def __init__(self, message: str, *, index: int | None = None,
                 location: complex | None = None):
        super().__init__(message)
        self.index = index
        self.location = location


class AccuracyWarning(UserWarning):
    """Requested point lies outside the validated accuracy window."""


def lattice_pole_index(x: complex) -> int | None:
    """k when x is within 1e-12 of the pole 2 pi i k, otherwise None: the
    domain check of every closed form or product with poles on 2 pi i Z."""
    k = round(x.imag / TWO_PI)
    return k if abs(x - complex(0.0, TWO_PI * k)) < 1e-12 else None


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
    """Build an EvaluationResult from an accumulated log, guarding exp overflow."""
    log_value = complex(log_value)
    if log_value.real == -math.inf:
        value = 0j
    elif log_value.real > EXP_OVERFLOW:
        value = complex(math.inf, 0.0)  # phase dropped on overflow
    else:
        value = cmath.exp(log_value)
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


# Stirling coefficients B_{2k} / (2k (2k-1)) for k = 1..10.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

# Stirling's series with 10 terms is good to ~1e-18 once Re z >= 9;
# smaller arguments are pushed up by the exact recurrence.
_STIRLING_MIN_RE = 9.0


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Exact functional recurrence plus Stirling's asymptotic series; the
    recurrence with principal logs preserves the principal branch
    everywhere off the cut (-inf, 0].  Raises PoleError when z is within
    1e-12 of a non-positive integer.
    """
    z = complex(z)
    n = round(z.real)
    if n <= 0 and abs(z - n) < 1e-12:
        raise PoleError(f"log_gamma pole at non-positive integer {n}",
                        location=z, nearest=n)
    w = z
    shift = 0j
    while w.real < _STIRLING_MIN_RE:
        shift += cmath.log(w)
        w += 1.0
    rr = 1.0 / (w * w)
    p = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        p = p * rr + c
    return (w - 0.5) * cmath.log(w) - w + HALF_LOG_TWO_PI + p / w - shift


def stable_log_product(factors: Iterable[complex], *,
                       tail_hint: float | None = None) -> EvaluationResult:
    """Accumulate sum(log f) over a factor stream with branch continuation.

    Each factor's argument is chosen on the branch nearest the previous
    factor's argument, so a stream whose arguments drift slowly is unwound
    continuously past +-pi.  Streams whose consecutive arguments jump by
    more than pi/2 must be refactored (e.g. paired) by the caller; the
    unwinding is then ambiguous, although ``value`` remains correct
    because exp is 2*pi*i periodic.

    Raises ZeroFactorSignal (with the offending index) on an exactly-zero
    factor and OverflowError on a non-finite one.  ``error_estimate`` is
    |log f_last|, scaled by ``tail_hint`` (an expected remaining-terms
    count) when the caller supplies one.
    """
    total_re = 0.0
    total_im = 0.0
    prev_arg: float | None = None
    count = 0
    last_log_mag = 0.0
    for i, f in enumerate(factors):
        f = complex(f)
        if f == 0:
            raise ZeroFactorSignal(i)
        if not (math.isfinite(f.real) and math.isfinite(f.imag)):
            raise OverflowError(f"non-finite factor at index {i}: {f!r}")
        a = cmath.phase(f)
        if prev_arg is not None:
            a += TWO_PI * round((prev_arg - a) / TWO_PI)
        lr = math.log(abs(f))
        total_re += lr
        total_im += a
        prev_arg = a
        count += 1
        last_log_mag = math.hypot(lr, a)
    if count == 0:
        return result_from_log(0j, 0.0, 0)
    err = last_log_mag * (tail_hint if tail_hint is not None else 1.0)
    return result_from_log(complex(total_re, total_im), err, count)
