"""Quasinormal-mode partition machinery.

A QNMSpectrum is input data (finite list of complex frequencies z*,
temperature, Euclidean action, optional polynomial ambiguity); nothing
here solves a wave equation.  Two partition evaluations are built on it:

* one_loop_log_partition: the zeta-regularized one-loop determinant

      log Z_B = Pol + sum_{z*} [ ln(|z*|/2piT)
                                 + tower(i z*/2piT) + tower(-i zbar*/2piT) ]

  where tower(a) = log Gamma(a) - (1/2) ln 2pi is the regularized
  log prod_{n>=0} (n+a)^{-1}.  The two tower arguments of one mode are
  exact conjugates, so each mode's contribution is real by construction.

* conjectured_partition_log: log Z = -S_E + sum log(1 - z/z*), the
  zero-product guess, evaluated through the shared Weierstrass engine
  so QNMs are literally zeros of Z (hitting one raises the zero-hit
  signal).  Reflection closure z -> -conj(z) may hold to 1e-12; the
  spectrum snaps its modes onto exact mirrors and builds the engine's
  ZeroSet once, at construction, not per evaluation.

The regularization is testable without trusting it: the ratio of two
truncated towers, renormalized by N^(a-b), converges to
exp(tower(a) - tower(b)) = Gamma(a)/Gamma(b).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EvaluationResult,
    HALF_LOG_TWO_PI,
    NumericalDomainError,
    PoleError,
    TWO_PI,
    log_gamma,
    result_from_log,
)
from .product_forms import PairingStrategy, ZeroEntry, ZeroSet, general_weierstrass_eval


class InsufficientModesError(NumericalDomainError):
    """Too few modes for the requested analysis."""


@dataclass(frozen=True)
class QNMSpectrum:
    """Finite quasinormal spectrum plus saddle data; immutable input.

    symmetry="reflection": closed under z -> -conj(z) to within 1e-12.
    Construction snaps inexact partners onto exact mirrors (a mode that is
    its own near-mirror onto the imaginary axis) and builds the snapped
    ZeroSet once; the modes field stays as given.
    """

    modes: tuple[complex, ...]
    temperature: float
    pol_coefficients: tuple[float, ...] = ()
    euclidean_action: float = 0.0
    symmetry: str = "none"  # "none" | "reflection" (closed under z -> -conj z)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(complex(z) for z in self.modes))
        object.__setattr__(self, "pol_coefficients",
                           tuple(float(c) for c in self.pol_coefficients))
        if not self.modes:
            raise ValueError("spectrum needs at least one mode")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.euclidean_action < 0:
            raise ValueError(f"action must be >= 0, got {self.euclidean_action}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("modes must be distinct")
        for z in self.modes:
            if z == 0:
                raise ValueError("modes must be nonzero")
        if self.symmetry not in ("none", "reflection"):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")
        locations = list(self.modes)
        if self.symmetry == "reflection":
            index_of = {z: i for i, z in enumerate(locations)}
            for i, z in enumerate(locations):
                mirror = -z.conjugate()
                if mirror in index_of:
                    continue
                # the first other mode within the slack becomes the exact mirror
                j = next((j for j, w in enumerate(locations)
                          if j != i and abs(w - mirror) <= 1e-12), None)
                if j is None and abs(z - mirror) <= 1e-12:
                    j, mirror = i, complex(0.0, z.imag)
                if j is None:
                    raise ValueError(f"symmetry=reflection but mode {z} has no "
                                     f"partner near {mirror}")
                del index_of[locations[j]]
                locations[j] = mirror
                index_of[mirror] = j
        object.__setattr__(self, "_zeros", ZeroSet(
            tuple(ZeroEntry(z, 1, "zero") for z in locations), symmetry=self.symmetry))


def qnm_to_json(spec: QNMSpectrum) -> str:
    doc = {
        "modes": [[z.real, z.imag] for z in spec.modes],
        "temperature": spec.temperature,
        "pol": list(spec.pol_coefficients),
        "action": spec.euclidean_action,
        "symmetry": spec.symmetry,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def qnm_from_json(text: str) -> QNMSpectrum:
    doc = json.loads(text)
    return QNMSpectrum(
        modes=tuple(complex(re, im) for re, im in doc["modes"]),
        temperature=float(doc["temperature"]),
        pol_coefficients=tuple(doc.get("pol", ())),
        euclidean_action=float(doc.get("action", 0.0)),
        symmetry=doc.get("symmetry", "none"),
    )


def load_qnm_file(path) -> QNMSpectrum:
    with open(path) as fh:
        try:
            return qnm_from_json(fh.read())
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: bad QNM spectrum: {type(e).__name__}: {e}") from None


def gamma_regularized_tower(a: complex) -> complex:
    """Regularized log prod_{n>=0}(n+a)^{-1} = log[Gamma(a)/sqrt(2 pi)].

    The Hurwitz-zeta derivative at 0 assigns the divergent product this
    finite value; the assignment is checked by the regularization-free
    ratio law (see truncated_tower_ratio).
    """
    return log_gamma(a) - HALF_LOG_TWO_PI


def truncated_tower_ratio(a: complex, b: complex, n_factors: int) -> complex:
    """prod_{n<N} (n+b)/(n+a) * N^(a-b): the regularization-independent
    probe of the tower; converges to Gamma(a)/Gamma(b) like O(1/N)."""
    if n_factors < 1:
        raise ValueError(f"n_factors must be >= 1, got {n_factors}")
    n = np.arange(n_factors, dtype=np.float64)
    log_ratio = complex(np.sum(np.log(n + b) - np.log(n + a)))
    log_ratio += (a - b) * math.log(n_factors)
    return cmath.exp(log_ratio)


def _pol_value(spec: QNMSpectrum, delta: float) -> float:
    total = 0.0
    for c in reversed(spec.pol_coefficients):
        total = total * delta + c
    return total


def one_loop_log_partition(spec: QNMSpectrum, delta: float = 0.0) -> complex:
    """Zeta-regularized one-loop log Z_B; see module docstring for the sum.

    Real by construction for real Pol coefficients: -i conj(z*)/2piT is
    the exact conjugate of i z*/2piT and log_gamma commutes with
    conjugation.  Raises PoleError naming the offending mode and tower
    argument if a mode sits on the tower's pole lattice.
    """
    scale = TWO_PI * spec.temperature
    total = complex(_pol_value(spec, delta))
    for k, z in enumerate(spec.modes):
        u = 1j * z / scale
        v = -1j * z.conjugate() / scale
        try:
            towers = gamma_regularized_tower(u) + gamma_regularized_tower(v)
        except PoleError as e:
            raise PoleError(
                f"mode {k} ({z}): tower argument {e.location} is the "
                f"non-positive integer {e.nearest}",
                location=e.location, nearest=e.nearest) from None
        total += math.log(abs(z) / scale) + towers
    return total


def conjectured_partition_log(z: complex, spec: QNMSpectrum,
                              pairing: PairingStrategy | None = None,
                              ) -> EvaluationResult:
    """log Z = -S_E + sum_{z*} log(1 - z/z*), modes as first-order zeros.

    pairing defaults to reflection_pairs when the spectrum is
    reflection-symmetric, else unpaired.  z exactly on a mode raises the
    zero-hit signal: the conjecture's testable content is that Z
    vanishes there.
    """
    if pairing is None:
        pairing = (PairingStrategy.REFLECTION_PAIRS
                   if spec.symmetry == "reflection" else PairingStrategy.UNPAIRED)
    r = general_weierstrass_eval(complex(z), spec._zeros, genus=0, pairing=pairing)
    return result_from_log(r.log_value - spec.euclidean_action,
                           r.error_estimate, r.terms_used)


class SpacingFit(NamedTuple):
    gap: complex
    offset: complex
    residual_rms: float


def asymptotic_spacing_fit(spec: QNMSpectrum,
                           tail_fraction: float = 1.0) -> SpacingFit:
    """Least-squares affine fit z_n ~ offset + n*gap over the deep tail.

    Modes are sorted by ascending |Im| (overtone ordering), the last
    ceil(tail_fraction * N) are fitted, and residual_rms is normalized
    by |gap|: an exactly affine tail gives ~1e-16, while anything
    genuinely non-affine (e.g. geometric) lands well above 0.1.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    ordered = sorted(spec.modes, key=lambda z: (abs(z.imag), z.imag, z.real))
    m = math.ceil(tail_fraction * len(ordered))
    if m < 3:
        raise InsufficientModesError(
            f"affine fit needs >= 3 tail modes, got {m} of {len(ordered)}")
    tail = np.asarray(ordered[-m:], dtype=np.complex128)
    n = np.arange(m, dtype=np.float64)
    gap, offset = np.polyfit(n, tail, 1)
    resid = tail - (offset + gap * n)
    rms = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
    if gap == 0:
        return SpacingFit(complex(gap), complex(offset), math.inf)
    return SpacingFit(complex(gap), complex(offset), rms / abs(gap))


# ------------------------------------------------------------------ synthetic

def synthetic_affine_tower(temperature: float, count: int,
                           euclidean_action: float = 0.0) -> QNMSpectrum:
    """Purely damped equally spaced modes z_n = -2 pi i T (n+1).

    The tower arguments are then the integers n+1: the one-loop factors
    carry the same equally spaced lattice as the oscillator poles.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    modes = tuple(complex(0.0, -TWO_PI * temperature * (n + 1)) for n in range(count))
    return QNMSpectrum(modes=modes, temperature=temperature,
                       euclidean_action=euclidean_action, symmetry="reflection")


def synthetic_perturbed_tower(temperature: float, count: int, amplitude: float,
                              seed: int = 0,
                              euclidean_action: float = 0.0) -> QNMSpectrum:
    """Affine tower with a deterministic imaginary jitter per mode.

    Jitter is imaginary so the mirror symmetry z -> -conj(z) survives
    (each mode is its own mirror on the imaginary axis).
    """
    rng = random.Random(seed)
    modes = tuple(complex(0.0, -TWO_PI * temperature * (n + 1)
                          + amplitude * rng.uniform(-1.0, 1.0))
                  for n in range(count))
    return QNMSpectrum(modes=modes, temperature=temperature,
                       euclidean_action=euclidean_action, symmetry="reflection")


def synthetic_quadruple_spectrum(pairs: Sequence[tuple[float, float]],
                                 temperature: float = 1.0,
                                 euclidean_action: float = 0.0) -> QNMSpectrum:
    """Modes in full quadruples {(+-omega) + (+-i kappa)} from (omega, kappa)
    pairs with omega, kappa > 0.

    Closure under conjugation as well as reflection makes every product
    evaluation real on the real axis, which is what the realness checks
    exercise."""
    modes: list[complex] = []
    for omega, kappa in pairs:
        if not (omega > 0 and kappa > 0):
            raise ValueError(f"quadruple needs omega, kappa > 0, got {(omega, kappa)}")
        modes += [complex(omega, -kappa), complex(-omega, -kappa),
                  complex(omega, kappa), complex(-omega, kappa)]
    return QNMSpectrum(modes=tuple(modes), temperature=temperature,
                       euclidean_action=euclidean_action, symmetry="reflection")
