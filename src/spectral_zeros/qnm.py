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
  zero-product guess, so QNMs are literally zeros of Z (hitting one
  raises the zero-hit signal).  Reflection closure z -> -conj(z) may
  hold to 1e-12; the spectrum snaps its modes onto exact mirrors and
  groups each mode with its mirror once, at construction, not per
  evaluation.

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
    ZeroHitSignal,
    log_gamma,
    node_chunks,
    result_from_log,
)


_LOG_FOUR = math.log(4.0)


class InsufficientModesError(NumericalDomainError):
    """Too few modes for the requested analysis."""


@dataclass(frozen=True)
class QNMSpectrum:
    """Finite quasinormal spectrum plus saddle data; immutable input.

    symmetry="reflection": closed under z -> -conj(z) to within 1e-12.
    Construction snaps inexact partners onto exact mirrors (a mode that is
    its own near-mirror onto the imaginary axis) and groups the snapped
    modes once, each with its mirror under reflection symmetry, alone
    otherwise; the modes field stays as given.
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
        for name, values in (("modes", self.modes), ("temperature", [self.temperature]),
                             ("action", [self.euclidean_action]),
                             ("pol coefficients", self.pol_coefficients)):
            if not all(map(cmath.isfinite, values)):
                raise ValueError(f"{name} must be finite")
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
        partner = list(range(len(locations)))
        if self.symmetry == "reflection":
            index_of = {z: i for i, z in enumerate(locations)}
            for i, z in enumerate(locations):
                mirror = -z.conjugate()
                if mirror in index_of:
                    continue
                # the first other mode within the slack becomes the exact mirror
                j = next((j for j, w in enumerate(locations)
                          if j != i and _near(w, mirror)), None)
                if j is None and _near(z, mirror):
                    j, mirror = i, complex(0.0, z.imag)
                if j is None:
                    raise ValueError(f"symmetry=reflection but mode {z} has no "
                                     f"partner near {mirror}")
                del index_of[locations[j]]
                locations[j] = mirror
                index_of[mirror] = j
            partner = [index_of[-z.conjugate()] for z in locations]
        # groups: each mirrored pair once (leading, so a kernel multiplies the
        # pairs' factors in one slice), then the modes that are their own mirror
        modes = np.array(locations, dtype=complex)
        pairs = [(i, j) for i, j in enumerate(partner) if i < j]
        lead = [i for i, _ in pairs] + [i for i, j in enumerate(partner) if i == j]
        object.__setattr__(self, "_modes", modes)
        object.__setattr__(self, "_groups", (modes[lead], modes[[j for _, j in pairs]]))


def _near(a: complex, b: complex) -> bool:
    # |a - b| <= 1e-12; hypot gives inf where complex abs raises past DBL_MAX
    return math.hypot((a - b).real, (a - b).imag) <= 1e-12


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
        except (KeyError, TypeError, ValueError, OverflowError) as e:
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

    Real by construction: -i conj(z*)/2piT is the exact conjugate of
    u = i z*/2piT and log_gamma commutes with conjugation bit for bit, so
    a mode's two towers are 2 Re tower(u), one log-gamma call.  Raises
    PoleError naming the mode and tower argument on the pole lattice.
    """
    scale = TWO_PI * spec.temperature
    total = complex(_pol_value(spec, delta))
    for k, z in enumerate(spec.modes):
        u = 1j * z / scale
        try:
            towers = 2.0 * gamma_regularized_tower(u).real
        except PoleError as e:
            raise PoleError(
                f"mode {k} ({z}): tower argument {e.location} is the "
                f"non-positive integer {e.nearest}",
                location=e.location, nearest=e.nearest) from None
        total += math.log(abs(z) / scale) + towers
    return total


def conjectured_partition_log(z: complex, spec: QNMSpectrum) -> EvaluationResult:
    """log Z = -S_E + sum_{z*} log(1 - z/z*), modes as first-order zeros.

    One node of conjectured_partition_log_array.  z on a mode raises the
    zero-hit signal, carrying the index of the nearest mode: the
    conjecture's testable content is that Z vanishes there.
    """
    z = complex(z)
    log_z, err, terms = conjectured_partition_log_array(np.array([z]), spec)
    if log_z[0].real == -math.inf:
        raise ZeroHitSignal(f"evaluation point {z} is a zero of the product",
                            index=int(np.argmin(np.abs(spec._modes - z))), location=z)
    return result_from_log(log_z[0], err[0], terms[0])


def _split_factors(modes: np.ndarray, nodes: np.ndarray, inv: np.ndarray):
    """log|(z* - z) inv| and its phase, neither taken from the product,
    which may lie past the float range.  The difference is formed from
    quarters, exactly, and log 4 added back: |z* - z| itself may pass
    DBL_MAX, a quarter of it cannot."""
    diff = 0.25 * modes - 0.25 * nodes
    diff_abs, inv_abs = np.abs(diff), np.abs(inv)
    return (np.log(diff_abs) + (np.log(inv_abs) + _LOG_FOUR),
            (diff / diff_abs) * (inv / inv_abs))


def _reciprocal(modes: np.ndarray) -> np.ndarray:
    """1/z* of each mode.  numpy's complex division gives 0 (or a
    non-finite value) where |z*| nears DBL_MAX, as for 1.5e308 + 1.5e308i,
    though 1/z* is a finite subnormal: those are taken as (1/(z*/4))/4.
    Every other reciprocal keeps numpy's bits."""
    with np.errstate(all="ignore"):
        inv = 1.0 / modes
        bad = (inv == 0) | ~np.isfinite(inv)
        inv[bad] = (1.0 / (0.25 * modes[bad])) * 0.25
    return inv


def conjectured_partition_log_array(z: np.ndarray, spec: QNMSpectrum):
    """The product of conjectured_partition_log on a complex array of
    nodes: (log Z, error_estimate, terms_used) per node.

    Each group (a mode with its mirror under reflection symmetry, else a
    mode alone) enters with the principal log of its product.  A factor
    1 - z/z* is formed as (z* - z) (1/z*), exactly 0 on a mode, so a
    mode hit, like a group product that underflows to 0, has Re log Z =
    -inf.  The product is finite, so the error estimate is 0 and every
    mode is a term.
    """
    lead, mate = spec._groups
    lead_inv, mate_inv = _reciprocal(lead), _reciprocal(mate)
    log_z = np.empty(z.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for sl in node_chunks(z.size, lead.size):
            nodes = z[sl, None]
            f = lead - nodes
            f *= lead_inv
            g = mate - nodes
            g *= mate_inv
            f[:, :mate.size] *= g
            log_z.real[sl] = np.log(np.abs(f)).sum(axis=1)
            # + 0.0 turns a -0.0 imaginary part into +0.0: a group product on
            # the negative real axis has the principal argument +pi
            log_z.imag[sl] = np.arctan2(f.imag + 0.0, f.real).sum(axis=1)
        # a factor or a pair product past the float range leaves log|Z| +inf
        # or NaN: at those nodes each factor (z* - z)(1/z*) enters split,
        # as the log of each part's modulus and the product of their phases
        over = np.flatnonzero(~(log_z.real < np.inf))
        if over.size:
            log_abs, phase = _split_factors(lead, z[over, None], lead_inv)
            mate_log_abs, mate_phase = _split_factors(mate, z[over, None], mate_inv)
            log_abs[:, :mate.size] += mate_log_abs
            phase[:, :mate.size] *= mate_phase
            log_z.real[over] = log_abs.sum(axis=1)
            log_z.imag[over] = np.arctan2(phase.imag + 0.0, phase.real).sum(axis=1)
    log_z -= spec.euclidean_action
    return log_z, np.zeros(z.shape), np.full(z.shape, len(spec.modes))


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
    """Purely damped equally spaced modes z_n = -2 pi i T (n+1): the
    perturbed tower at amplitude 0.

    The tower arguments are then the integers n+1: the one-loop factors
    carry the same equally spaced lattice as the oscillator poles.
    """
    return synthetic_perturbed_tower(temperature, count, 0.0,
                                     euclidean_action=euclidean_action)


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
