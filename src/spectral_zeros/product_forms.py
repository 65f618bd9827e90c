"""The oscillator partition function as a product over its poles.

This is the "zeros side" of the duality: given where a partition
function vanishes or blows up, rebuild the function as a Weierstrass
product.  The oscillator case is fully worked: its closed form
1/(2 sinh(beta E0/2)) has poles on the imaginary axis at 2 pi i k / E0,
and the Hadamard factorization of the denominator,

    1 - e^{-x} = x e^{-x/2} prod_{n>0} (1 + x^2 / 4 pi^2 n^2),

forces

    Z(beta) = 1 / [ beta E0 prod_{n>0} (1 + beta^2 E0^2 / 4 pi^2 n^2) ].

Note the product sits in the DENOMINATOR and the half-quantum
exponential cancels; a tempting variant with the product upstairs is
kept in pole_product_oscillator_naive as a regression witness.

The factors are paired (conjugate poles +-2 pi i n give one factor
1 + x^2/4 pi^2 n^2), which is what makes the product converge and real
on the real axis.  The other products over zeros live with their
spectra: zeta.hadamard_product, qnm.conjectured_partition_log.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .core import (
    EvaluationResult,
    PoleError,
    TWO_PI,
    hurwitz_zeta,
    lattice_pole_mask,
    node_chunks,
    result_from_log,
    scaled_error,
)
from .spectra import Spectrum

FOUR_PI_SQ = 4.0 * math.pi * math.pi


class DualitySpacing(NamedTuple):
    delta_e: float
    delta_beta: complex
    product: complex


def duality_spacing(spec: Spectrum) -> DualitySpacing:
    """Level spacing, pole spacing, and their product (2 pi i, algebraically).

    The product is constructed as the identity delta_E * (2 pi i / delta_E)
    = 2 pi i rather than multiplied out, so it is exact for every gap.
    """
    if spec.kind != "affine":
        raise ValueError(
            f"duality spacing needs an equally spaced spectrum, got kind={spec.kind!r}")
    return DualitySpacing(delta_e=spec.gap, delta_beta=complex(0.0, TWO_PI / spec.gap),
                          product=complex(0.0, TWO_PI))


def pole_product_oscillator(beta: complex, e0: float, n_factors: int = 1000) -> EvaluationResult:
    """Oscillator partition rebuilt from its pole lattice alone:

        Z = 1 / [ beta E0 prod_{n=1}^{N} (1 + beta^2 E0^2 / 4 pi^2 n^2) ]

    times exp(-c psi'(N+1)), c = beta^2 E0^2 / 4 pi^2, the first-order
    estimate of the omitted tail (residual O(c^2/N^3)); psi'(N+1) is
    hurwitz_zeta(2, N+1).  One node of pole_product_oscillator_array;
    raises PoleError carrying k on the lattice beta E0 = 2 pi i k.
    """
    beta = complex(beta)
    log_z, err, terms = pole_product_oscillator_array(np.array([beta]), e0, n_factors)
    if log_z[0] == math.inf:
        k = round((beta * e0).imag / TWO_PI)
        raise PoleError(f"pole of the product at beta*E0 = 2*pi*i*{k}",
                        location=beta, nearest=k)
    return result_from_log(log_z[0], err[0], terms[0])


# Terms J of the oscillator's far-factor series, and the most rows (values
# of n0) of its power-sum table; see pole_product_oscillator_array.
_SERIES_TERMS = 30
_TABLE_ROWS = 1024


@functools.lru_cache(maxsize=8)
def _far_series(n_factors: int) -> tuple[np.ndarray, np.ndarray]:
    """The far-factor series of pole_product_oscillator_array for
    n0 = 0 .. L-1, L = min(N, _TABLE_ROWS), with J = _SERIES_TERMS:
    (a, log r), a[n0, j-1] = (-1)^(j+1) S_j(n0) / j and
    log r[n0] = log((4/3)/(J+1) S_(J+1)(n0)), where
    S_j(n0) = sum_{n0 < n <= N} n^-2j.  Row L (a node without far
    factors) is a = 0, log r = -inf.

    Each S_j(n0) adds n^-2j from n = L down to n0 + 1 onto
    S_j(L) = zeta(2j, L+1) - zeta(2j, N+1), so no row costs O(N).
    """
    rows = min(n_factors, _TABLE_ROWS)
    j = np.arange(1, _SERIES_TERMS + 2)
    if rows < n_factors:
        start = [hurwitz_zeta(2 * k, rows + 1) - hurwitz_zeta(2 * k, n_factors + 1)
                 for k in j.tolist()]
    else:
        start = np.zeros(j.size)
    powers = np.arange(rows, 0, -1, dtype=np.float64)[:, None] ** (-2 * j)
    sums = np.cumsum(np.vstack([start, powers]), axis=0)[::-1]
    sums[rows] = 0.0
    j = j[:-1]
    with np.errstate(divide="ignore"):
        log_remainder = math.log(4.0 / 3.0 / (_SERIES_TERMS + 1)) + np.log(sums[:, -1])
    return sums[:, :-1] * ((-1.0) ** (j + 1) / j), log_remainder


def pole_product_oscillator_array(beta: np.ndarray, e0: float, n_factors: int = 1000):
    """The pole product of pole_product_oscillator on a complex array of
    nodes: (log Z, error_estimate, terms_used) per node.

    With c = x^2/4 pi^2, x = beta E0, a node sums its near factors
    n <= n0 = ceil(2 sqrt|c|) - 1 directly (n0 raised by one where rounding
    leaves 4|c| > (n0+1)^2), and its far factors, where |c|/n^2 <= 1/4,
    as the series sum_{j<=J} (-1)^(j+1)/j c^j S_j(n0), with
    S_j(n0) = sum_{n0 < n <= N} n^-2j.  Since log(1+w) - its first J
    terms is at most (4/3)/(J+1) |w|^(J+1) for |w| <= 1/4, the remainder
    is |R_J| <= (4/3)/(J+1) |c|^(J+1) S_(J+1)(n0) <= (4/3)/(J+1)
    4^-(J+1) (1 + (n0+1)/(2J+1)); J = 30 keeps it below 2e-19 for every
    n0 < 1024.  A node whose n0 reaches min(N, 1024) sums all N factors
    directly.  n0 comes from the node's own c and the direct factors are
    added in order, so no node's value depends on the other nodes.

    log Z is +inf on the lattice.  The error estimate is |Z| times the
    error of log Z: |c|^2/6N^3, left by the tail term, plus |R_J|.
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    coefficients, log_remainder = _far_series(n_factors)
    rows = len(coefficients) - 1
    x_re, x_im = beta.real * e0, beta.imag * e0
    sum_abs = np.empty(beta.shape)
    sum_arg = np.empty(beta.shape)
    with np.errstate(all="ignore"):
        c_re = (x_re * x_re - x_im * x_im) / FOUR_PI_SQ
        c_im = (x_re * x_im + x_im * x_re) / FOUR_PI_SQ
        abs_c = np.hypot(c_re, c_im)
        n0 = np.maximum(np.ceil(2.0 * np.sqrt(abs_c)) - 1.0, 0.0)
        n0 += 4.0 * abs_c > (n0 + 1.0) ** 2
        far = n0 < rows                 # false for nan and inf
        n0 = np.where(far, n0, n_factors).astype(np.intp)
        row = np.minimum(n0, rows)
        c = np.where(far, c_re + 1j * c_im, 0.0)
        widest = int(n0.max(initial=0))
        n = np.arange(1.0, widest + 1.0)[:, None]
        n_sq = n * n
        for sl in node_chunks(beta.size, max(widest, _SERIES_TERMS)):
            # far factors: c^j by cumprod, times the row of n0
            powers = np.cumprod(np.repeat(c[sl, None], _SERIES_TERMS, axis=1), axis=1)
            series = (powers * coefficients[row[sl]]).sum(axis=1)
            sum_abs[sl], sum_arg[sl] = series.real, series.imag
            width = int(n0[sl].max())
            if width:
                # near factors, one row per factor: cumsum adds the rows in
                # order, and the -0.0 past a node's n0 changes no bit of it
                w_re = c_re[sl] / n_sq[:width]
                w_im = c_im[sl] / n_sq[:width]
                near = w_re <= -0.5
                # log|1 + w| = log1p(w_re (2 + w_re) + w_im^2) / 2, by hypot near w = -1
                # (1 + w_re is exact there, while the log1p argument cancels)
                log_abs = np.log1p((w_re + 2.0) * w_re + w_im * w_im)
                log_abs *= 0.5
                log_abs[near] = np.log(np.hypot(1.0 + w_re[near], w_im[near]))
                arg = np.arctan2(w_im, w_re + 1.0)
                past = n[:width] > n0[sl]
                log_abs[past] = arg[past] = -0.0
                sum_abs[sl] += np.cumsum(log_abs, axis=0)[-1]
                sum_arg[sl] += np.cumsum(arg, axis=0)[-1]
        psi1 = hurwitz_zeta(2, n_factors + 1)
        log_z = -(np.log(x_re + 1j * x_im) + (sum_abs + 1j * sum_arg))
        log_z -= (c_re * psi1) + 1j * (c_im * psi1)
        # log|c| from log|x|: c itself overflows once |x| > ~1e154
        log_c = 2.0 * np.log(np.hypot(x_re, x_im)) - math.log(FOUR_PI_SQ)
        log_err = np.logaddexp(2.0 * log_c - math.log(6.0 * float(n_factors) ** 3),
                               log_remainder[row] + (_SERIES_TERMS + 1) * log_c)
        error = scaled_error(log_z.real, log_err)
    log_z[lattice_pole_mask(x_re, np.sin(0.5 * x_im))] = np.inf
    return log_z, error, np.full(beta.shape, n_factors)


def pole_product_oscillator_naive(beta: complex, e0: float,
                                  n_factors: int = 1000) -> EvaluationResult:
    """The tempting misreading of the factorization, kept as a regression
    witness: exp(-beta E0/2)/(beta E0) times the pair product UPSTAIRS.

    This disagrees with the closed form by tens of percent already at
    beta*E0 = 1 (the product should divide, and the half-quantum
    exponential cancels against the denominator's own e^{-x/2}).
    Do not use for anything but the regression test.
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    x = complex(beta) * e0
    if lattice_pole_mask(x.real, math.sin(0.5 * x.imag)):
        k = round(x.imag / TWO_PI)
        raise PoleError(f"pole at beta*E0 = 2*pi*i*{k}",
                        location=complex(beta), nearest=k)
    c = x * x / FOUR_PI_SQ
    n = np.arange(1, n_factors + 1, dtype=np.float64)
    log_z = -0.5 * x - cmath.log(x) + complex(np.sum(np.log(1.0 + c / (n * n))))
    return result_from_log(log_z, 0.0, n_factors)
