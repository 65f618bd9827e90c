"""End-to-end acceptance gate.

One test per advertised guarantee, each at its stated tolerance; every
test prints a single PASS/FAIL line so `pytest tests/test_acceptance.py -s`
reads as a checklist.  Everything here goes through public entry points
only.
"""

import math
import random

import numpy as np
import pytest

from spectral_zeros.core import PoleError, TWO_PI
from spectral_zeros.product_forms import (
    duality_spacing,
    pole_product_oscillator,
    pole_product_oscillator_naive,
)
from spectral_zeros.qnm import (
    QNMSpectrum,
    asymptotic_spacing_fit,
    conjectured_partition_log,
    gamma_regularized_tower,
    synthetic_affine_tower,
    synthetic_quadruple_spectrum,
    truncated_tower_ratio,
)
from spectral_zeros.scan_cli import cli_dispatch, grid_scan, locate_poles, locate_zeros
from spectral_zeros.spectra import (
    affine,
    closed_form_affine,
    closed_form_oscillator,
    oscillator,
    partition_direct,
    primon,
)
from spectral_zeros.zeta import (
    euler_product,
    explicit_formula_psi,
    find_zeros,
    hadamard_product,
    psi_direct,
    zeta_em,
)


def _check(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_oscillator_triple_agreement():
    ok = True
    for x in (0.5, 1.0, 2.0, 5.0):
        direct = partition_direct(oscillator(1.0), x, n_terms=200).value
        closed = closed_form_oscillator(x, 1.0)
        product = pole_product_oscillator(x, 1.0, n_factors=10 ** 5).value
        scale = abs(closed)
        ok &= abs(direct - closed) < 1e-12 * scale
        ok &= abs(product - closed) < 1e-6 * scale
        ok &= abs(product - direct) < 1e-6 * scale
    _check(1, "oscillator direct/closed/product agree at beta*E0 in {0.5,1,2,5}", ok)


def test_criterion_02_product_form_regression():
    closed = closed_form_oscillator(1.0, 1.0)
    naive = pole_product_oscillator_naive(1.0, 1.0, n_factors=10 ** 5).value
    corrected = pole_product_oscillator(1.0, 1.0, n_factors=10 ** 5).value
    bad = abs(naive - closed) / abs(closed)
    good = abs(corrected - closed) / abs(closed)
    _check(2, f"printed product off by {bad:.1%}, corrected to {good:.1e}",
           bad > 0.10 and good < 1e-6)


def test_criterion_03_pole_duality():
    # step 0.025 in both axes; poles of the E0=1 closed form at 2 pi i k
    scan = grid_scan("oscillator_closed", (-0.3, 0.3, 5.9, 13.1), (25, 289))
    found = locate_poles(scan)
    ok = True
    for k in (1, 2):
        target = complex(0.0, TWO_PI * k)
        ok &= any(abs(z.real - target.real) <= 0.025 + 1e-9 and
                  abs(z.imag - target.imag) <= 0.025 + 1e-9 for z in found)
    rng = random.Random(2026)
    for _ in range(20):
        spacing = duality_spacing(affine(rng.uniform(-2, 2), rng.uniform(0.05, 40)))
        ok &= spacing.product == complex(0.0, TWO_PI)
    _check(3, "scan poles within one 0.025 cell of 2*pi*i*k; gap*spacing == 2*pi*i", ok)


def test_criterion_04_offset_degeneracy():
    re_axis = np.linspace(-0.5, 0.5, 21)
    im_axis = np.linspace(5.0, 8.0, 61)
    # pin the row nearest 2 pi onto the pole so the flag set is non-empty
    im_axis[np.argmin(np.abs(im_axis - TWO_PI))] = TWO_PI
    flag_sets = []
    for offset in (0.0, 0.3, 1.7):
        flags = set()
        for j, y in enumerate(im_axis):
            for i, x in enumerate(re_axis):
                try:
                    closed_form_affine(complex(x, y), offset, 1.0)
                except PoleError:
                    flags.add((i, j))
        flag_sets.append(frozenset(flags))
    ok = flag_sets[0] == flag_sets[1] == flag_sets[2] and len(flag_sets[0]) > 0
    _check(4, "pole flags over [-0.5,0.5]x[5,8] identical for offsets {0,0.3,1.7}", ok)


def test_criterion_05_zeta_cross_oracle():
    em = zeta_em(2.0).value
    d_basel = abs(em - math.pi ** 2 / 6)
    d_euler = abs(euler_product(2.0, 10 ** 4).value - em)
    d_primon = abs(partition_direct(primon(), 2.0, n_terms=10 ** 6).value - em)
    _check(5, f"basel {d_basel:.1e} < 1e-10; euler {d_euler:.1e} < 2e-4; "
              f"primon {d_primon:.1e} < 2e-6",
           d_basel < 1e-10 and d_euler < 2e-4 and d_primon < 2e-6)


def test_criterion_06_zeros_self_consistency():
    table = find_zeros(10)
    ordinates = list(table.ordinates)
    ok = len(ordinates) == 10 and ordinates == sorted(ordinates)

    # independent locator: bisect |zeta| on the critical line over [14, 15]
    def mod_zeta(t: float) -> float:
        return abs(zeta_em(complex(0.5, t), cutoff=200).value)

    lo, hi = 14.0, 15.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = mod_zeta(a), mod_zeta(b)
    while hi - lo > 1e-9:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = mod_zeta(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = mod_zeta(b)
    ok &= abs(ordinates[0] - (lo + hi) / 2.0) < 1e-6
    for g in ordinates:
        cutoff = max(100, math.ceil(2.0 * g + 50.0))
        ok &= abs(zeta_em(complex(0.5, g), cutoff=cutoff).value) < 1e-8
    _check(6, "10 ascending ordinates; first matches |zeta| bisection; all verify", ok)


def test_criterion_07_hadamard_reconstruction(zeros100):
    ok = True
    for count in (0, 5, 100):
        ok &= abs(hadamard_product(0.0, zeros100, count).value - (-0.5)) < 1e-12
    # frozen regression bounds, measured once at zero_count=100:
    # 6.21e-3 at beta=2 and 1.85e-2 at beta=3 relative
    for beta, bound in ((2.0, 6.5e-3), (3.0, 1.95e-2)):
        truth = zeta_em(beta).value
        errs = [abs(hadamard_product(beta, zeros100, k).value - truth) / abs(truth)
                for k in (10, 50, 100)]
        ok &= errs[0] > errs[1] > errs[2]
        ok &= errs[2] < bound
    _check(7, "-1/2 at beta=0 exactly; truncation error falls 10->50->100 "
              "and meets the frozen bound", ok)


def test_criterion_08_explicit_formula(zeros100):
    truth = psi_direct(20.0)
    err100 = abs(explicit_formula_psi(20.0, zeros100, 100).value.real - truth)
    err10 = abs(explicit_formula_psi(20.0, zeros100, 10).value.real - truth)
    _check(8, f"psi(20) from 100 zeros off by {err100:.3f} < 0.2 and < {err10:.3f} "
              "(10 zeros)", err100 < 0.2 and err100 < err10)


def test_criterion_09_regularization_ratio_law():
    ok = True
    for a, b in ((1.0, 0.5), (2.5, 1.25)):
        probe = truncated_tower_ratio(a, b, 10 ** 6)
        target = math.exp(gamma_regularized_tower(a).real
                          - gamma_regularized_tower(b).real)
        ok &= abs(probe - target) < 1e-4 * abs(target)
    _check(9, "normalized truncated ratio matches exp(tower(a)-tower(b)) to 1e-4", ok)


def test_criterion_10_conjecture_mechanics():
    spec = synthetic_quadruple_spectrum(
        [(0.5, 0.25), (1.0, 0.5), (1.5, 0.75), (2.0, 1.0), (2.5, 1.25)],
        temperature=1.0, euclidean_action=3.2)
    ok = len(spec.modes) == 20
    ok &= conjectured_partition_log(0.0, spec).log_value == -3.2
    # quarter-integer modes land exactly on the 0.25-step grid nodes
    scan = grid_scan("qnm_conjectured", (-2.75, 2.75, -1.5, 1.5), (23, 13),
                     params={"spectrum": spec})
    ok &= scan.flag_count("zero") == 20 and scan.flag_count("pole") == 0
    ok &= set(locate_zeros(scan)) == set(spec.modes)
    for x in (-2.3, -0.8, 0.05, 1.7, 2.6):
        ok &= abs(conjectured_partition_log(x, spec).log_value.imag) < 1e-10
    _check(10, "z=0 gives -S_E exactly; scan flags all and only the 20 modes; "
               "real axis real", ok)


def test_criterion_11_spacing_fit():
    ok = True
    for temperature in (0.25, 1.0, 3.0):
        fit = asymptotic_spacing_fit(synthetic_affine_tower(temperature, 24))
        ok &= fit.residual_rms < 1e-12
        ok &= abs(fit.gap - complex(0.0, -TWO_PI * temperature)) < 1e-10
    geometric = QNMSpectrum(modes=tuple(complex(0.0, -(2.0 ** n)) for n in range(10)),
                            temperature=1.0)
    ok &= asymptotic_spacing_fit(geometric).residual_rms > 0.1
    _check(11, "affine towers fit with residual < 1e-12; geometric flagged > 0.1", ok)


def test_criterion_12_cli_determinism(tmp_path):
    ok = True
    outs = []
    for tag in ("a", "b"):
        p = tmp_path / f"zeros_{tag}.txt"
        ok &= cli_dispatch(["zeta", "zeros", "--count", "5", "--out", str(p)]) == 0
        outs.append(p.read_bytes())
    ok &= outs[0] == outs[1]
    scans = []
    for tag in ("a", "b"):
        p = tmp_path / f"scan_{tag}.csv"
        ok &= cli_dispatch(["scan", "--evaluator", "oscillator_closed",
                            "--region", "-0.5", "0.5", "5.5", "7.1",
                            "--cols", "64", "--rows", "64",
                            "--out", str(p), "--format", "csv"]) == 0
        scans.append(p.read_bytes())
    ok &= scans[0] == scans[1]
    _check(12, "zeta zeros --count 5 and the 64x64 scan are byte-identical "
               "across runs", ok)
