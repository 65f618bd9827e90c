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
import math
from typing import NamedTuple

import numpy as np

from .core import (
    EvaluationResult,
    PoleError,
    TWO_PI,
    lattice_pole_mask,
    node_chunks,
    result_from_log,
    scaled_error,
    trigamma,
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
    if spec.kind not in ("oscillator", "affine"):
        raise ValueError(
            f"duality spacing needs an equally spaced spectrum, got kind={spec.kind!r}")
    return DualitySpacing(delta_e=spec.gap, delta_beta=complex(0.0, TWO_PI / spec.gap),
                          product=complex(0.0, TWO_PI))


def pole_product_oscillator(beta: complex, e0: float, n_factors: int = 1000,
                            tail_correction: bool = True) -> EvaluationResult:
    """Oscillator partition rebuilt from its pole lattice alone:

        Z = 1 / [ beta E0 prod_{n=1}^{N} (1 + beta^2 E0^2 / 4 pi^2 n^2) ]

    optionally times exp(-beta^2 E0^2/(4 pi^2) * trigamma(N+1)), the
    first-order estimate of the omitted tail (residual O(c^2/N^3) with
    c = beta^2 E0^2 / 4 pi^2).  One node of pole_product_oscillator_array;
    raises PoleError carrying k on the lattice beta E0 = 2 pi i k.
    """
    beta = complex(beta)
    log_z, err, terms = pole_product_oscillator_array(
        np.array([beta]), e0, n_factors, tail_correction)
    if log_z[0] == math.inf:
        k = round((beta * e0).imag / TWO_PI)
        raise PoleError(f"pole of the product at beta*E0 = 2*pi*i*{k}",
                        location=beta, nearest=k)
    return result_from_log(log_z[0], err[0], terms[0])


def _aligned_empty(shape) -> np.ndarray:
    """Uninitialized float64 array whose data starts on a 64-byte boundary."""
    n = int(np.prod(shape))
    raw = np.empty(n + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + n].reshape(shape)


def pole_product_oscillator_array(beta: np.ndarray, e0: float, n_factors: int = 1000,
                                  tail_correction: bool = True):
    """The pole product of pole_product_oscillator on a complex array of
    nodes: (log Z, error_estimate, terms_used) per node.

    log Z is +inf on the lattice.  The error estimate is |Z| times the
    error of log Z, |c|^2/6N^3 with the tail term and |c trigamma(N+1)|
    without it.
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    x_re, x_im = beta.real * e0, beta.imag * e0
    with np.errstate(over="ignore"):
        c_re = (x_re * x_re - x_im * x_im) / FOUR_PI_SQ
        c_im = (x_re * x_im + x_im * x_re) / FOUR_PI_SQ
    n_sq = _aligned_empty(n_factors)
    n_sq[:] = np.arange(1, n_factors + 1, dtype=np.float64) ** 2
    sum_abs = np.empty(beta.shape)
    sum_arg = np.empty(beta.shape)
    # Every chunk works in the same four cache-line-aligned buffers.  With a
    # fresh temporary per operation the kernel ran up to ~25% slower in some
    # processes than in others, depending on where malloc placed the arrays.
    chunks = node_chunks(beta.size, n_factors)
    rows = min(beta.size, chunks[0].stop) if chunks else 0
    bufs = [_aligned_empty((rows, n_factors)) for _ in range(4)]
    with np.errstate(all="ignore"):
        for sl in chunks:
            w_re, w_im, log_abs, arg = (b[:min(sl.stop, beta.size) - sl.start] for b in bufs)
            np.divide(c_re[sl, None], n_sq, out=w_re)
            np.divide(c_im[sl, None], n_sq, out=w_im)
            near = w_re <= -0.5
            # log|1 + w| = log1p(w_re (2 + w_re) + w_im^2) / 2, by hypot near w = -1
            # (1 + w_re is exact there, while the log1p argument cancels)
            np.add(w_re, 2.0, out=log_abs)
            log_abs *= w_re
            log_abs += np.multiply(w_im, w_im, out=arg)
            np.log1p(log_abs, out=log_abs)
            log_abs *= 0.5
            log_abs[near] = np.log(np.hypot(1.0 + w_re[near], w_im[near]))
            sum_abs[sl] = log_abs.sum(axis=1)
            np.arctan2(w_im, np.add(w_re, 1.0, out=arg), out=arg)
            sum_arg[sl] = arg.sum(axis=1)
        psi1 = trigamma(n_factors + 1)
        log_z = -(np.log(x_re + 1j * x_im) + (sum_abs + 1j * sum_arg))
        # log|c| from log|x|: c itself overflows once |x| > ~1e154
        log_c = 2.0 * np.log(np.hypot(x_re, x_im)) - math.log(FOUR_PI_SQ)
        if tail_correction:
            log_z -= (c_re * psi1) + 1j * (c_im * psi1)
            log_err = 2.0 * log_c - math.log(6.0 * float(n_factors) ** 3)
        else:
            log_err = log_c + math.log(psi1)
        error = scaled_error(log_z.real, log_err)
    log_z[lattice_pole_mask(x_re, x_im)] = np.inf
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
    if lattice_pole_mask(x.real, x.imag):
        k = round(x.imag / TWO_PI)
        raise PoleError(f"pole at beta*E0 = 2*pi*i*{k}",
                        location=complex(beta), nearest=k)
    c = x * x / FOUR_PI_SQ
    n = np.arange(1, n_factors + 1, dtype=np.float64)
    log_z = -0.5 * x - cmath.log(x) + complex(np.sum(np.log(1.0 + c / (n * n))))
    return result_from_log(log_z, 0.0, n_factors)
