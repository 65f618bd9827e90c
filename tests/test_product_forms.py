import cmath
import dataclasses
import inspect
import math
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from spectral_zeros import core, product_forms, qnm, scan_cli, spectra, zeta
from spectral_zeros.core import PoleError, TWO_PI, ZeroHitSignal, hurwitz_zeta, lattice_pole_mask
from spectral_zeros.product_forms import (
    DualitySpacing,
    FOUR_PI_SQ,
    duality_spacing,
    pole_product_oscillator,
    pole_product_oscillator_array,
    pole_product_oscillator_naive,
)
from spectral_zeros.spectra import (
    affine,
    closed_form_affine,
    closed_form_affine_array,
    closed_form_oscillator,
    oscillator,
    primon,
)


# ------------------------------------------------------------- pole product

def test_corrected_product_matches_closed_form():
    cf = closed_form_oscillator(1.0, 1.0).value
    r = pole_product_oscillator(1.0, 1.0, n_factors=10 ** 5)
    assert abs(r.value - cf) < 1e-6 * abs(cf)


def test_naive_variant_disagrees_but_corrected_agrees():
    # one test asserting both facts: the naive reading is wrong by > 10%,
    # the corrected form agrees to < 1e-6 (same truncation)
    cf = closed_form_oscillator(1.0, 1.0).value
    naive = pole_product_oscillator_naive(1.0, 1.0, n_factors=10 ** 5)
    good = pole_product_oscillator(1.0, 1.0, n_factors=10 ** 5)
    assert abs(naive.value - cf) / abs(cf) > 0.10
    assert abs(good.value - cf) / abs(cf) < 1e-6


def test_naive_variant_names_the_pole():
    beta = complex(0.0, 1.5 * math.pi)          # beta E0 = 2 pi i * 3 at E0 = 4
    with pytest.raises(PoleError) as exc:
        pole_product_oscillator_naive(beta, 4.0)
    assert exc.value.nearest == 3 and exc.value.location == beta


def test_small_beta_leading_order_is_inverse():
    beta = 1e-7
    r = pole_product_oscillator(beta, 1.0, n_factors=100)
    assert abs(r.value * beta - 1.0) < 1e-6


def _complex_log_sum(beta, n_factors=1000):
    # reference: the same truncated, tail-corrected product with numpy's
    # complex log. It takes the same quotients c/n^2 as the code under test:
    # near a pole the sum is as sensitive as 1/|beta - 2 pi i k| to their
    # last bit, and numpy's complex division by n^2 rounds differently.
    x = complex(beta)
    c = x * x / FOUR_PI_SQ
    n_sq = np.arange(1, n_factors + 1, dtype=np.float64) ** 2
    w = c.real / n_sq + 1j * (c.imag / n_sq)
    return -(cmath.log(x) + complex(np.sum(np.log(1.0 + w)))) \
        - c * float(polygamma(1, n_factors + 1))


def _assert_matches_complex_log_sum(beta):
    r = pole_product_oscillator(beta, 1.0, n_factors=1000)
    want = _complex_log_sum(beta)
    assert math.isfinite(r.log_value.real) and math.isfinite(r.error_estimate)
    assert abs(r.log_value.real - want.real) < 1e-12
    assert abs(math.remainder(r.log_value.imag - want.imag, TWO_PI)) < 1e-12
    # inside the truncation estimate, up to rounding of the value itself
    assert abs(r.value - cmath.exp(want)) <= r.error_estimate + 1e-13 * abs(r.value)


@settings(max_examples=200, deadline=None)
@given(st.floats(-6.0, 6.0), st.floats(-20.0, 20.0))
def test_factor_logs_match_the_complex_log_sum(re, im):
    beta = complex(re, im)
    assume(not lattice_pole_mask(beta.real, math.sin(0.5 * beta.imag)))
    _assert_matches_complex_log_sum(beta)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.floats(-11.0, -2.0), st.floats(0.0, TWO_PI))
def test_factor_logs_near_the_poles(k, log10_eps, phase):
    # 1 + c/n^2 -> 0 for n = |k|: log|1 + w| must not cancel there
    beta = complex(0.0, TWO_PI * k) + 10.0 ** log10_eps * cmath.exp(1j * phase)
    assume(not lattice_pole_mask(beta.real, math.sin(0.5 * beta.imag)))
    _assert_matches_complex_log_sum(beta)


def _near_count(beta, e0):
    """n0 = ceil(2 sqrt|c|) - 1 of the kernel's docstring, raised by one
    where 4|c| > (n0+1)^2, with c formed as the kernel forms it."""
    x_re, x_im = beta.real * e0, beta.imag * e0
    abs_c = np.hypot((x_re * x_re - x_im * x_im) / FOUR_PI_SQ,
                     (x_re * x_im + x_im * x_re) / FOUR_PI_SQ)
    n0 = np.maximum(np.ceil(2.0 * np.sqrt(abs_c)) - 1.0, 0.0)
    return n0 + (4.0 * abs_c > (n0 + 1.0) ** 2), abs_c


@pytest.mark.parametrize("n_factors", [1, 2, 8, 1000])
def test_scan_nodes_equal_one_node_calls_bit_for_bit(n_factors):
    # |beta| up to 1.3 pi (N + 1) gives nodes with n0 = 0, with n0 in
    # between and with all N factors direct; a chunk mixes them, so a
    # node's n0 is not its chunk's widest.  A node's value must not depend
    # on its neighbours.
    height = 1.3 * math.pi * (n_factors + 1)
    re_axis, im_axis = np.linspace(-2.5, 2.5, 9), np.linspace(-height, height, 161)
    z = (re_axis + 1j * im_axis[:, None]).ravel()
    n0, _ = _near_count(z, 1.0)
    assert n0.min() == 0 and n0.max() > n_factors
    if n_factors > 2:
        assert np.count_nonzero((0 < n0) & (n0 < n_factors)) > 50
    log_z, error, _ = pole_product_oscillator_array(z, 1.0, n_factors)
    scan = scan_cli.make_evaluator("oscillator_product", e0=1.0, n_factors=n_factors)(z)
    assert np.array_equal(scan, log_z)
    for k, beta in enumerate(z.tolist()):
        if log_z[k] == math.inf:
            with pytest.raises(PoleError):
                pole_product_oscillator(beta, 1.0, n_factors)
            continue
        r = pole_product_oscillator(beta, 1.0, n_factors)
        assert np.array_equal(r.log_value, log_z[k]) and r.error_estimate == error[k], beta


def _quarter_node(r, theta):
    """beta (E0 = 1) of phase theta with |c|/r^2 the largest float <= 1/4:
    n0 = r - 1, the far factor n = r at the series' worst ratio."""
    beta = cmath.rect(math.pi * r, theta)
    while True:
        n0, abs_c = _near_count(np.array([beta]), 1.0)
        if n0[0] == r - 1:
            return beta, abs_c[0] / r ** 2
        beta *= 1.0 - 2.0 ** -52


def _truncated_product_mp(beta, n_factors):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        x = mpmath.mpc(beta)
        c = x * x / (4 * mpmath.pi ** 2)
        logs = mpmath.fsum(mpmath.log(1 + c / (n * n)) for n in range(1, n_factors + 1))
        return complex(-(mpmath.log(x) + logs) - c * mpmath.psi(1, n_factors + 1))


# rounding of the kernel against the exact truncated product, relative to
# max(1, |log Z|): 1e-14 (~45 ulp); the worst seen is 2e-15
_ROUNDING = 1e-14


def _assert_within_estimate(beta, n_factors):
    r = pole_product_oscillator(beta, 1.0, n_factors)
    want = _truncated_product_mp(beta, n_factors)
    rounding = _ROUNDING * max(1.0, abs(want))
    assert abs(r.log_value.real - want.real) <= rounding, beta
    assert abs(math.remainder(r.log_value.imag - want.imag, TWO_PI)) <= rounding, beta
    assert abs(r.value - cmath.exp(want)) <= r.error_estimate + rounding * abs(r.value), beta


@pytest.mark.parametrize("r", [1, 2, 5, 17, 100, 513, 1000])
def test_far_series_at_its_worst_ratio(r):
    # |c|/(n0+1)^2 as close to 1/4 as floats allow, at phases away from the
    # imaginary axis, where x = i pi r is a lattice pole for even r
    for theta in (0.0, 0.3, math.pi / 4, 1.2, 2.0, 2.8):
        beta, ratio = _quarter_node(r, theta)
        assert 0.25 - 1e-15 < ratio <= 0.25
        _assert_within_estimate(beta, 1000)


def test_far_series_at_100000_factors():
    # n0 = 6 direct factors, the other 99994 from the power sums
    beta, _ = _quarter_node(7, 0.7)
    _assert_within_estimate(beta, 100000)


def test_pole_signal_on_the_lattice():
    with pytest.raises(PoleError) as exc:
        pole_product_oscillator(complex(0.0, TWO_PI), 1.0)
    assert exc.value.nearest == 1
    with pytest.raises(PoleError):
        pole_product_oscillator(0.0, 1.0)
    # the lattice 2 pi i k / E0 scales inversely with the quantum
    for k in (-2, 1, 3):
        with pytest.raises(PoleError) as exc:
            pole_product_oscillator(complex(0.0, math.pi * k), 2.0)
        assert exc.value.nearest == k
    assert pole_product_oscillator(complex(0.0, math.pi), 1.0).value != 0


def test_zero_hit_and_pole_hit_signals():
    # a zero hit names the zero it hit, a pole hit the lattice point
    spec = qnm.QNMSpectrum(modes=(0.5 - 0.5j, -0.5 - 0.5j, 2.0 - 1.0j), temperature=1.0)
    with pytest.raises(ZeroHitSignal) as exc:
        qnm.conjectured_partition_log(2.0 - 1.0j, spec)
    assert exc.value.index == 2
    zeros = zeta.find_zeros(3)
    with pytest.raises(ZeroHitSignal) as exc:
        zeta.hadamard_product(complex(0.5, -zeros.ordinates[1]), zeros, 3)
    assert exc.value.index == 1
    with pytest.raises(PoleError) as exc:
        pole_product_oscillator(complex(0.0, -2 * TWO_PI), 1.0)
    assert exc.value.nearest == -2


@given(st.floats(-4.0, 4.0), st.floats(0.1, 10.0))
@settings(max_examples=150)
def test_conjugate_pairing_real_on_real_axis(x, e0):
    # the poles +-2 pi i k / E0 enter as conjugate pairs, one real factor
    # 1 + (x / 2 pi k)^2 each, so Z is real on the real axis
    assume(abs(x) >= 1e-3)
    r = pole_product_oscillator(x, e0, 100)
    assert abs(r.value.imag) <= 1e-15 * abs(r.value)


@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, -0.2)),
                min_size=1, max_size=10),
       st.floats(-2.0, 2.0))
@settings(max_examples=150)
def test_pairing_cannot_change_the_value(lowers, x):
    # reflection pairing regroups a finite product; the value (not the
    # branch of its log) must not change
    modes = []
    for re, im in lowers:
        for a in (complex(re, im), complex(-re, im)):
            if a not in modes:
                modes.append(a)
    paired = qnm.QNMSpectrum(modes=tuple(modes), temperature=1.0, symmetry="reflection")
    flat = dataclasses.replace(paired, symmetry="none")
    p = qnm.conjectured_partition_log(x, paired).value
    f = qnm.conjectured_partition_log(x, flat).value
    assert abs(p - f) < 1e-9 * max(1.0, abs(p))


def _untailed(beta_e0, n):
    """Z of the N-factor product without its tail term exp(-c psi'(N+1)),
    c = (beta E0/2 pi)^2, by the exact identity log Z_untailed = log Z + c psi'(N+1)."""
    log_z = pole_product_oscillator(beta_e0, 1.0, n).log_value
    return cmath.exp(log_z + (beta_e0 / TWO_PI) ** 2 * hurwitz_zeta(2, n + 1))


@pytest.mark.parametrize("beta_e0", [0.5, 1.0, 2.0, 5.0])
def test_truncation_error_decreases_and_tail_beats_it(beta_e0):
    cf = closed_form_oscillator(beta_e0, 1.0).value
    errs = [abs(_untailed(beta_e0, n) - cf) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert errs[0] > errs[1] > errs[2]
    tail_on = abs(pole_product_oscillator(beta_e0, 1.0, 10 ** 3).value - cf)
    assert tail_on < errs[2]


# ------------------------------------------------------------------ duality

def test_duality_spacing_oscillator():
    d = duality_spacing(oscillator(1.0))
    assert d == DualitySpacing(1.0, complex(0.0, TWO_PI), complex(0.0, TWO_PI))


def test_duality_spacing_affine_gap_two():
    d = duality_spacing(affine(0.0, 2.0))
    assert d.delta_e == 2.0
    assert d.delta_beta == complex(0.0, math.pi)
    assert d.product == complex(0.0, TWO_PI)


def test_duality_product_exact_for_random_gaps():
    rng = random.Random(42)
    for _ in range(20):
        gap = rng.uniform(0.05, 40.0)
        assert duality_spacing(affine(rng.uniform(-5, 5), gap)).product == complex(0.0, TWO_PI)


def test_duality_spacing_ignores_offset():
    assert duality_spacing(affine(0.0, 1.0)).delta_beta == duality_spacing(affine(0.5, 1.0)).delta_beta


def test_duality_spacing_rejects_unequal_spectra():
    with pytest.raises(ValueError):
        duality_spacing(primon())


def test_lattice_poles_flagged_by_every_route_up_to_k_100():
    # beta = i k at E0 = 2 pi: x = fl(k fl(2 pi)) lies within ~1e-14 of
    # 2 pi i k, so the sine test keeps every such node a pole
    beta = 1j * np.arange(-100.0, 101.0)
    assert (closed_form_affine_array(beta, math.pi, TWO_PI) == np.inf).all()
    assert (pole_product_oscillator_array(beta, TWO_PI, 8)[0] == np.inf).all()
    for k in (-100, -1, 0, 1, 37, 100):
        for route in (closed_form_oscillator, pole_product_oscillator,
                      pole_product_oscillator_naive):
            with pytest.raises(PoleError) as exc:
                route(complex(0.0, k), TWO_PI)
            assert exc.value.nearest == k


def test_no_pole_flag_off_the_lattice_at_any_magnitude():
    # fl(2 pi rint(Im x / 2 pi)) equals Im x once the float spacing passes
    # 2 pi, so a test on it would flag beta = 1e17 i; beta = 1e5 i at
    # E0 = fl(2 pi) is 3.4e-11 off the pole, where Z is large but finite
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for beta, e0 in ((1e17j, 1.0), (1e5j, TWO_PI), (complex(0.0, 2.0 ** 60), 1.0)):
        want = 1 / (2 * mpmath.sinh(mpmath.mpc(beta * e0) / 2))
        got = closed_form_oscillator(beta, e0).value
        assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want), (beta, got, want)
        pole_product_oscillator(beta, e0, 8)
        pole_product_oscillator_naive(beta, e0, 8)


def test_pole_flags_do_not_depend_on_offset():
    # closed-form geometric sums for shifted spectra signal poles at the
    # same lattice 2*pi*i*k/gap: the offset scales residues, not locations
    for k in (-2, -1, 0, 1, 2):
        candidate = complex(0.0, TWO_PI * k)
        for a in (0.0, 0.3, 1.7):
            with pytest.raises(PoleError) as exc:
                closed_form_affine(candidate, a, 1.0)
            assert exc.value.nearest == k


# --------------------------------------------------------- shared-code guard

def _names(code: types.CodeType) -> set[str]:
    """Global and attribute names a function's code refers to, nested
    lambdas, comprehensions and generator expressions included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def _functions(module, prefixes=("",)):
    """The module's own functions named with one of the prefixes, each
    unwrapped from its functools decorator (an lru_cache wrapper is not a
    function to inspect.isfunction)."""
    members = {name: inspect.unwrap(obj) for name, obj in vars(module).items()}
    return {name: fn for name, fn in members.items() if inspect.isfunction(fn)
            and fn.__module__ == module.__name__ and name.startswith(prefixes)}


# the zeros side keeps the Hurwitz power sums, the spectrum side the
# Euler-Maclaurin continuation of the level sum; the two share only data
_ZEROS_SIDE = {**_functions(product_forms), **_functions(zeta, ("hadamard_product",)),
               **_functions(qnm, ("conjectured_partition_log",)),
               **_functions(core, ("hurwitz_zeta",))}
_SPECTRUM_SIDE = {**_functions(spectra, ("closed_form_", "partition_direct")),
                  **_functions(zeta, ("zeta_em", "hardy_z", "_cosine_sums", "_em_bracket",
                                      "_adaptive_cutoff", "riemann_siegel_z")),
                  **_functions(core, ("log_integers", "integer_powers"))}


@pytest.mark.parametrize("side, other", [(_ZEROS_SIDE, _SPECTRUM_SIDE),
                                         (_SPECTRUM_SIDE, _ZEROS_SIDE)],
                         ids=["zeros_side", "spectrum_side"])
def test_routes_share_no_evaluation_code(side, other):
    # the duality is only evidence while neither route calls the other's
    # evaluators: no closed form or level sum inside a product, and back
    assert {"pole_product_oscillator", "_far_series", "hurwitz_zeta"} <= _ZEROS_SIDE.keys()
    assert {"closed_form_oscillator", "zeta_em", "zeta_em_array", "hardy_z", "hardy_z_array",
            "_cosine_sums", "_em_bracket", "_adaptive_cutoff", "riemann_siegel_z", "log_integers",
            "integer_powers"} <= _SPECTRUM_SIDE.keys()
    for name, fn in side.items():
        assert not _names(fn.__code__) & other.keys(), name
