"""Energy spectra and direct Boltzmann summation.

A Spectrum is one of the two level sequences with a zeros route:

* affine(a, g):    E_n = a + n g, n >= 0, taken as (n + a/g) g; the
                    oscillator(E0) is affine(E0/2, E0), E_n = (n + 1/2) E0
* primon:          E_n = ln n, n >= 1 (so the partition sum is literally
                    the truncated Dirichlet series for zeta)

partition_direct sums exp(-beta E_n) term by term; this is the
"energy-level side" of the spectrum/zeros duality and is deliberately
kept independent of every closed form and product evaluation elsewhere
in the package.

The closed forms sum the same geometric series exactly:
closed_form_affine_array evaluates exp(-beta a) / (1 - e^{-beta g}) over
an array of nodes, and closed_form_affine and closed_form_oscillator
(a = E0/2, g = E0, i.e. 1/(2 sinh(beta E0/2))) are one-node calls of it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DivergenceDomainError,
    EvaluationResult,
    PoleError,
    TWO_PI,
    integer_powers,
    lattice_pole_mask,
    node_chunks,
    result_from_value,
)

# log of the smallest normal double: the closed forms flush to 0 below it
_LOG_TINY = math.log(sys.float_info.min)

_DEFAULT_TERMS = {"affine": 1000, "primon": 100_000}


@dataclass(frozen=True)
class Spectrum:
    """Immutable level-sequence description; build via the factories below."""

    kind: str
    offset: float = 0.0
    gap: float = 0.0


def oscillator(e0: float) -> Spectrum:
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    return affine(0.5 * e0, e0)


def primon() -> Spectrum:
    return Spectrum(kind="primon")


def affine(offset: float, gap: float) -> Spectrum:
    if not gap > 0:
        raise ValueError(f"affine gap must be positive, got {gap}")
    return Spectrum(kind="affine", offset=float(offset), gap=float(gap))


def _affine_levels(spec: Spectrum, n):
    """(n + a/g) g over an array n: for the oscillator a/g is
    exactly 1/2, so its levels (n + 1/2) E0 take one rounding."""
    return (n + spec.offset / spec.gap) * spec.gap


def _require_convergent(spec: Spectrum, beta: complex) -> None:
    if spec.kind == "affine":
        # Re(beta)*gap first: a negative one would overflow exp
        if not (beta.real * spec.gap > 0 and math.exp(-beta.real * spec.gap) < 1):
            raise DivergenceDomainError(
                "Boltzmann sum needs Re(beta)*gap > 0 and e^(-Re(beta)*gap) < 1 in floats, "
                f"got Re(beta)*gap = {beta.real * spec.gap}", abscissa=0.0)
    elif not beta.real > 1:
        raise DivergenceDomainError(
            "primon sum is the Dirichlet series for zeta; its abscissa of "
            f"convergence is 1 and Re(beta) = {beta.real} <= 1", abscissa=1.0)


def partition_direct(spec: Spectrum, beta: complex, n_terms: int | None = None) -> EvaluationResult:
    """Truncated Boltzmann sum sum_{n < n_terms} exp(-beta E_n).

    The value is the level sum alone; error_estimate bounds the omitted
    tail.  The primon terms n^(-beta) come from core.integer_powers, bit
    for bit numpy's n ** (-beta) without its complex log per term: ln n is
    read from the cached table while n_terms <= 2^17 (the default 100,000
    fits) and computed per call past it.
    """
    beta = complex(beta)
    if n_terms is None:
        n_terms = _DEFAULT_TERMS[spec.kind]
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    _require_convergent(spec, beta)

    if spec.kind == "primon":
        # sum_{n=1}^{N} n^(-beta), in chunks to keep memory flat at large N
        total = 0j
        chunk = 1 << 18
        for lo in range(1, n_terms + 1, chunk):
            total += complex(np.sum(integer_powers(beta, lo, min(lo + chunk, n_terms + 1))))
        err = n_terms ** (1.0 - beta.real) / (beta.real - 1.0)
        return result_from_value(total, err, n_terms)

    energies = _affine_levels(spec, np.arange(n_terms))
    total = complex(np.sum(np.exp(-beta * energies)))
    r = cmath.exp(-beta * spec.gap)           # |r| < 1 here
    head = cmath.exp(-beta * spec.offset) * r ** n_terms
    err = abs(head) / (1.0 - abs(r))
    return result_from_value(total, err, n_terms)


def closed_form_oscillator(beta: complex, e0: float) -> complex:
    """1/(2 sinh(beta E0/2)), closed_form_affine at offset E0/2 and gap E0.

    Raises PoleError carrying the nearest integer k when beta*E0 is
    within 1e-12 of a pole 2 pi i k (k = 0 is the essential 1/(beta E0)
    divergence).
    """
    spec = oscillator(e0)
    return closed_form_affine(beta, spec.offset, spec.gap)


def closed_form_affine(beta: complex, offset: float, gap: float) -> complex:
    """exp(-beta*offset) / (1 - exp(-beta*gap)), the geometric closed form.

    Poles sit at beta*gap = 2*pi*i*k independently of the offset, which
    only scales the residues; this is the analytic content of "the poles
    alone can't determine the energy level".  One node of
    closed_form_affine_array, so no intermediate overflows; a value below
    the normal range of doubles (|Z| < 2.2e-308; for the oscillator, from
    |Re beta E0| > ~1417) underflows to 0.  Raises PoleError carrying the
    nearest k on the lattice.
    """
    beta = complex(beta)
    log_z = closed_form_affine_array(np.array([beta]), offset, gap)[0]
    if log_z == math.inf:
        k = round((beta * gap).imag / TWO_PI)
        raise PoleError(f"closed form has a pole at beta*gap = 2*pi*i*{k}",
                        location=beta, nearest=k)
    return 0j if log_z.real == -math.inf else cmath.exp(log_z)


def _one_minus_exp(a, b):
    """(Re, Im) of 1 - e^{-y} for y = a + ib with a >= 0, as
    -expm1(-a) + 2 e^{-a} sin^2(b/2) + i e^{-a} sin(b): the real part adds
    two non-negative terms, so nothing cancels or overflows.  sin(b/2)
    comes third, for the pole test."""
    decay = np.exp(-a)
    s = np.sin(0.5 * b)
    return 2.0 * decay * s * s - np.expm1(-a), decay * np.sin(b), s


def _split(v):
    """Veltkamp's split v = hi + lo, halves of at most 26 significant bits
    whose products are exact."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def closed_form_affine_array(beta: np.ndarray, offset: float, gap: float) -> np.ndarray:
    """closed_form_affine on a complex array of nodes: log Z per node.

    With x = beta*gap it is taken at y = +-x with Re y >= 0, so no
    intermediate overflows: log Z = -beta*offset - log(1 - e^{-x}), or
    for Re x < 0, where Z = -exp(beta*(gap - offset)) / (1 - e^{x}),
    log Z = beta*(gap - offset) - log(1 - e^{-y}) + i pi.  log Z is +inf on
    the lattice x = 2 pi i k, and Re log Z is -inf where |Z| is below the
    normal range of doubles, the flush to 0.
    """
    if not gap > 0:
        raise ValueError(f"affine gap must be positive, got {gap}")
    # gap - offset = d + d_err exactly (2Sum): exp would amplify the error
    # of beta (gap - offset) by its size, up to ~700 here
    d = gap - offset
    t = d - gap
    d_err = (gap - (d - t)) + (-offset - t)
    d_hi, d_lo = _split(d)
    log_z = np.empty(beta.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for sl in node_chunks(beta.size, 1):
            b_re, b_im = beta.real[sl], beta.imag[sl]
            x_re, x_im = b_re * gap, b_im * gap
            flip = x_re < 0
            # Re beta (gap - offset), rounded once: the exact rounding error
            # of p (Dekker; NaN where a split overflows, then dropped) joins
            # beta d_err before the sum, so with d_err = 0 the sum is p
            p = b_re * d
            b_hi, b_lo = _split(b_re)
            p_err = ((b_hi * d_hi - p) + b_hi * d_lo + b_lo * d_hi) + b_lo * d_lo
            exp_re = np.where(flip, p + np.nan_to_num(p_err + b_re * d_err), -(b_re * offset))
            exp_im = np.where(flip, b_im * d + b_im * d_err, -(b_im * offset))
            den_re, den_im, sin_half = _one_minus_exp(np.abs(x_re), np.where(flip, -x_im, x_im))
            log_z.real[sl] = log_abs = exp_re - np.log(np.hypot(den_re, den_im))
            log_z.real[sl][log_abs < _LOG_TINY] = -np.inf
            # arctan2 reduces the exponent's phase exactly; pi is the sign of -1
            log_z.imag[sl] = (np.arctan2(np.sin(exp_im), np.cos(exp_im))
                              - np.arctan2(den_im, den_re) + np.where(flip, math.pi, 0.0))
            log_z[sl][lattice_pole_mask(x_re, sin_half)] = np.inf
    return log_z
