"""Zero/pole sets and partition functions as products over them.

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

Products converge usably only when factors are paired so that their
arguments cancel (conjugate or reflection pairing); unpaired partial
products over a symmetric set oscillate and depend on ordering.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.special import polygamma

from .core import (
    EXP_UNDERFLOW,
    EvaluationResult,
    PoleError,
    PoleHitSignal,
    TWO_PI,
    ZeroHitSignal,
    lattice_pole_index,
    lattice_pole_mask,
    node_chunks,
    result_from_log,
)
from .spectra import Spectrum

FOUR_PI_SQ = 4.0 * math.pi * math.pi


class PairingStrategy(Enum):
    UNPAIRED = "unpaired"
    CONJUGATE_PAIRS = "conjugate_pairs"
    REFLECTION_PAIRS = "reflection_pairs"


@dataclass(frozen=True)
class ZeroEntry:
    location: complex
    multiplicity: int = 1
    kind: str = "zero"  # "zero" | "pole"


@dataclass(frozen=True)
class ZeroSet:
    """Locations of zeros/poles with multiplicities and a symmetry tag.

    symmetry="conjugate" asserts closure under z -> conj(z),
    symmetry="reflection" closure under z -> -conj(z); both are checked
    at construction (exact floating equality: conjugation and negation
    are exact operations, and symmetric sets should be built that way).
    Outside the dataclass fields it keeps the location -> index map, the
    ascending-|location| order in which products consume entries and,
    on a symmetric set, the index of each entry's image (else None).
    """

    entries: tuple[ZeroEntry, ...]
    symmetry: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen: dict[complex, int] = {}
        for i, e in enumerate(self.entries):
            if e.multiplicity < 1:
                raise ValueError(f"multiplicity must be >= 1, got {e.multiplicity}")
            if e.kind not in ("zero", "pole"):
                raise ValueError(f"kind must be 'zero' or 'pole', got {e.kind!r}")
            if e.location in seen:
                raise ValueError(f"duplicate location {e.location}; merge multiplicities")
            seen[e.location] = i
        object.__setattr__(self, "_index_of", seen)
        locs = [e.location for e in self.entries]
        object.__setattr__(self, "_order", tuple(sorted(
            range(len(locs)), key=lambda i: (abs(locs[i]), locs[i].real, locs[i].imag))))
        object.__setattr__(self, "_partner", None)
        if self.symmetry == "conjugate":
            image = lambda z: z.conjugate()
        elif self.symmetry == "reflection":
            image = lambda z: -z.conjugate()
        elif self.symmetry == "none":
            return
        else:
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        partner = tuple(seen.get(image(z)) for z in locs)
        for e, j in zip(self.entries, partner):
            mate = self.entries[j] if j is not None else None
            if mate is None or mate.multiplicity != e.multiplicity or mate.kind != e.kind:
                raise ValueError(
                    f"symmetry={self.symmetry} but no matching partner for {e.location}")
        object.__setattr__(self, "_partner", partner)


def zero_set_to_json(zs: ZeroSet) -> str:
    entries = [[e.location.real, e.location.imag, e.multiplicity, e.kind]
               for e in zs.entries]
    return json.dumps({"entries": entries, "symmetry": zs.symmetry},
                      sort_keys=True, separators=(",", ":"))


def zero_set_from_json(text: str) -> ZeroSet:
    doc = json.loads(text)
    entries = tuple(ZeroEntry(complex(re, im), int(mult), str(kind))
                    for re, im, mult, kind in doc["entries"])
    return ZeroSet(entries=entries, symmetry=doc.get("symmetry", "none"))


def oscillator_pole_set(e0: float, count: int) -> ZeroSet:
    """Poles of the oscillator closed form: beta = 2 pi i k / E0, |k| <= count.

    k=0 is included: the closed form manifestly diverges like 1/(beta E0)
    at beta=0 even though the lattice is often quoted for k != 0.
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    entries = tuple(ZeroEntry(complex(0.0, TWO_PI * k / e0), 1, "pole")
                    for k in range(-count, count + 1))
    return ZeroSet(entries=entries, symmetry="conjugate")


class DualitySpacing(NamedTuple):
    delta_e: float
    delta_beta: complex
    product: complex


def duality_spacing(spec: Spectrum) -> DualitySpacing:
    """Level spacing, pole spacing, and their product (2 pi i, algebraically).

    The product is constructed as the identity delta_E * (2 pi i / delta_E)
    = 2 pi i rather than multiplied out, so it is exact for every gap.
    """
    if spec.kind == "oscillator":
        gap = spec.e0
    elif spec.kind == "affine":
        gap = spec.gap
    else:
        raise ValueError(
            f"duality spacing needs an equally spaced spectrum, got kind={spec.kind!r}")
    return DualitySpacing(delta_e=gap, delta_beta=complex(0.0, TWO_PI / gap),
                          product=complex(0.0, TWO_PI))


def general_weierstrass_eval(z: complex, zeros: ZeroSet, genus: int = 0,
                             pairing: PairingStrategy = PairingStrategy.UNPAIRED,
                             ) -> EvaluationResult:
    """Log-domain product over a ZeroSet: the engine behind every
    product-form partition function here.

    Factor per entry at location a != 0: (1 - z/a), times exp(z/a) when
    genus=1; entries exactly at 0 contribute the monomial z^multiplicity.
    Poles contribute negated logs; multiplicities scale the logs.  Entries
    are consumed in ascending |location| so partial products are stable.
    Each (paired) factor enters with its principal log: symmetric pairs
    come out as exact conjugates and their arguments cancel, which is
    what makes symmetric products real on the real axis.  Winding
    streams belong in stable_log_product, not here.
    """
    z = complex(z)
    if genus not in (0, 1):
        raise ValueError(f"genus must be 0 or 1, got {genus}")
    if pairing is PairingStrategy.CONJUGATE_PAIRS and zeros.symmetry != "conjugate":
        raise ValueError("conjugate_pairs pairing requires a conjugation-closed ZeroSet")
    if pairing is PairingStrategy.REFLECTION_PAIRS and zeros.symmetry != "reflection":
        raise ValueError("reflection_pairs pairing requires a reflection-closed ZeroSet")

    # exact-location hits first, so grid scans can flag them
    hit = zeros._index_of.get(z)
    if hit is not None:
        e = zeros.entries[hit]
        if e.kind == "zero":
            raise ZeroHitSignal(f"evaluation point {z} is a zero of the product",
                                index=hit, location=z)
        raise PoleHitSignal(f"evaluation point {z} is a pole of the product",
                            index=hit, location=z)

    # the checks above admit pairing only on a set closed under its map
    partners = None if pairing is PairingStrategy.UNPAIRED else zeros._partner
    total = 0j
    consumed = [False] * len(zeros.entries)
    for i in zeros._order:
        if consumed[i]:
            continue
        consumed[i] = True
        e = zeros.entries[i]
        a = e.location
        mult = e.multiplicity
        if a == 0:
            if genus == 1:
                raise ValueError("entry at 0 has no genus-1 factor; use genus=0 "
                                 "(monomial) or drop the entry")
            f = z
        else:
            f = 1.0 - z / a
            if genus == 1:
                f *= cmath.exp(z / a)
            j = i if partners is None else partners[i]
            if j != i and not consumed[j]:
                consumed[j] = True
                partner = zeros.entries[j].location
                g = 1.0 - z / partner
                if genus == 1:
                    g *= cmath.exp(z / partner)
                f *= g
        if f == 0:
            # z is numerically on top of the locus without matching it exactly
            if e.kind == "zero":
                raise ZeroHitSignal(f"factor for entry {i} vanished at z={z}",
                                    index=i, location=z)
            raise PoleHitSignal(f"factor for entry {i} vanished at z={z}",
                                index=i, location=z)
        lf = cmath.log(f)
        total += mult * (lf if e.kind == "zero" else -lf)
    return result_from_log(total, 0.0, len(zeros.entries))


def pole_product_oscillator(beta: complex, e0: float, n_factors: int = 1000,
                            tail_correction: bool = True) -> EvaluationResult:
    """Oscillator partition rebuilt from its pole lattice alone:

        Z = 1 / [ beta E0 prod_{n=1}^{N} (1 + beta^2 E0^2 / 4 pi^2 n^2) ]

    optionally times exp(-beta^2 E0^2/(4 pi^2) * trigamma(N+1)), the
    first-order estimate of the omitted tail (residual O(c^2/N^3) with
    c = beta^2 E0^2 / 4 pi^2).
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    x = complex(beta) * e0
    k = lattice_pole_index(x)
    if k is not None:
        raise PoleError(f"pole of the product at beta*E0 = 2*pi*i*{k}",
                        location=complex(beta), nearest=k)
    c = x * x / FOUR_PI_SQ
    n_sq = np.arange(1, n_factors + 1, dtype=np.float64) ** 2
    # sum of log(1 + w), w = c/n^2, in real arithmetic: log|1 + w| by log1p
    # of |1 + w|^2 - 1 = w_re (2 + w_re) + w_im^2, the principal arg by arctan2.
    # Where w_re <= -1/2 that difference cancels (w -> -1 near the poles), but
    # 1 + w_re is exact there, so log|1 + w| comes from hypot instead.
    w_re, w_im = c.real / n_sq, c.imag / n_sq
    near = w_re <= -0.5
    log_abs = 0.5 * np.log1p(np.where(near, 0.0, w_re * (2.0 + w_re) + w_im * w_im))
    log_abs[near] = np.log(np.hypot(1.0 + w_re[near], w_im[near]))
    log_factors = complex(np.sum(log_abs), np.sum(np.arctan2(w_im, 1.0 + w_re)))
    log_z = -(cmath.log(x) + log_factors)
    tail = c * float(polygamma(1, n_factors + 1))
    if tail_correction:
        log_z -= tail
        log_err = abs(c) ** 2 / (6.0 * n_factors ** 3)
    else:
        log_err = abs(tail)
    r = result_from_log(log_z, 0.0, n_factors)
    return dataclasses.replace(r, error_estimate=abs(r.value) * log_err)


def _aligned_empty(shape) -> np.ndarray:
    """Uninitialized float64 array whose data starts on a 64-byte boundary."""
    n = int(np.prod(shape))
    raw = np.empty(n + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + n].reshape(shape)


def pole_product_oscillator_array(beta: np.ndarray, e0: float, n_factors: int = 1000,
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of pole_product_oscillator (tail-corrected) for grid scans:
    (log Z, flags) per point of a complex array.  The factor logs are the
    scalar's, element for element; flags are "pole" on the lattice,
    "zero" where exp(log Z) underflows to 0, else "".
    """
    if not e0 > 0:
        raise ValueError(f"oscillator quantum must be positive, got {e0}")
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    x_re, x_im = beta.real * e0, beta.imag * e0
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
            np.add(w_re, 2.0, out=log_abs)
            log_abs *= w_re
            log_abs += np.multiply(w_im, w_im, out=arg)
            np.log1p(log_abs, out=log_abs)
            log_abs *= 0.5
            log_abs[near] = np.log(np.hypot(1.0 + w_re[near], w_im[near]))
            sum_abs[sl] = log_abs.sum(axis=1)
            np.arctan2(w_im, np.add(w_re, 1.0, out=arg), out=arg)
            sum_arg[sl] = arg.sum(axis=1)
        trigamma = float(polygamma(1, n_factors + 1))
        log_z = -(np.log(x_re + 1j * x_im) + (sum_abs + 1j * sum_arg))
        log_z -= (c_re * trigamma) + 1j * (c_im * trigamma)
    flags = np.where(log_z.real < EXP_UNDERFLOW, "zero", "")
    flags[lattice_pole_mask(x_re, x_im)] = "pole"
    return log_z, flags


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
    k = lattice_pole_index(x)
    if k is not None:
        raise PoleError(f"pole at beta*E0 = 2*pi*i*{k}",
                        location=complex(beta), nearest=k)
    c = x * x / FOUR_PI_SQ
    n = np.arange(1, n_factors + 1, dtype=np.float64)
    log_z = -0.5 * x - cmath.log(x) + complex(np.sum(np.log(1.0 + c / (n * n))))
    return result_from_log(log_z, 0.0, n_factors)
