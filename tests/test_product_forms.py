import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from spectral_zeros.core import (
    PoleError, PoleHitSignal, TWO_PI, ZeroHitSignal, lattice_pole_index,
)
from spectral_zeros.product_forms import (
    DualitySpacing,
    FOUR_PI_SQ,
    PairingStrategy,
    ZeroEntry,
    ZeroSet,
    duality_spacing,
    general_weierstrass_eval,
    oscillator_pole_set,
    pole_product_oscillator,
    pole_product_oscillator_naive,
    zero_set_from_json,
    zero_set_to_json,
)
from spectral_zeros.spectra import affine, closed_form_affine, closed_form_oscillator, oscillator, primon


# ----------------------------------------------------------------- pole sets

def test_oscillator_pole_set_unit_quantum():
    ps = oscillator_pole_set(1.0, 1)
    locs = sorted(e.location.imag for e in ps.entries)
    assert locs == [-TWO_PI, 0.0, TWO_PI]
    assert all(e.kind == "pole" and e.multiplicity == 1 for e in ps.entries)
    assert ps.symmetry == "conjugate"


def test_oscillator_pole_set_scales_inversely_with_quantum():
    ps = oscillator_pole_set(2.0, 1)
    locs = sorted(e.location.imag for e in ps.entries)
    assert locs == [-math.pi, 0.0, math.pi]


@given(st.floats(0.1, 10.0), st.integers(1, 30))
@settings(max_examples=100)
def test_pole_set_closed_under_conjugation(e0, count):
    ps = oscillator_pole_set(e0, count)
    locations = {e.location for e in ps.entries}
    assert {z.conjugate() for z in locations} == locations


def test_zero_set_rejects_duplicates_and_broken_symmetry():
    with pytest.raises(ValueError):
        ZeroSet((ZeroEntry(1j), ZeroEntry(1j)))
    with pytest.raises(ValueError):
        ZeroSet((ZeroEntry(1 + 1j),), symmetry="conjugate")
    with pytest.raises(ValueError):
        ZeroSet((ZeroEntry(1 + 1j, 1), ZeroEntry(1 - 1j, 2)), symmetry="conjugate")


def test_zero_set_json_roundtrip_and_determinism():
    ps = oscillator_pole_set(0.7, 3)
    text = zero_set_to_json(ps)
    assert zero_set_from_json(text) == ps
    assert zero_set_to_json(zero_set_from_json(text)) == text


# ------------------------------------------------------------- pole product

def test_corrected_product_matches_closed_form():
    cf = closed_form_oscillator(1.0, 1.0)
    r = pole_product_oscillator(1.0, 1.0, n_factors=10 ** 5, tail_correction=True)
    assert abs(r.value - cf) < 1e-6 * abs(cf)


def test_naive_variant_disagrees_but_corrected_agrees():
    # one test asserting both facts: the naive reading is wrong by > 10%,
    # the corrected form agrees to < 1e-6 (same truncation)
    cf = closed_form_oscillator(1.0, 1.0)
    naive = pole_product_oscillator_naive(1.0, 1.0, n_factors=10 ** 5)
    good = pole_product_oscillator(1.0, 1.0, n_factors=10 ** 5)
    assert abs(naive.value - cf) / abs(cf) > 0.10
    assert abs(good.value - cf) / abs(cf) < 1e-6


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
    assume(lattice_pole_index(beta) is None)
    _assert_matches_complex_log_sum(beta)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.floats(-11.0, -2.0), st.floats(0.0, TWO_PI))
def test_factor_logs_near_the_poles(k, log10_eps, phase):
    # 1 + c/n^2 -> 0 for n = |k|: log|1 + w| must not cancel there
    beta = complex(0.0, TWO_PI * k) + 10.0 ** log10_eps * cmath.exp(1j * phase)
    assume(lattice_pole_index(beta) is None)
    _assert_matches_complex_log_sum(beta)


def test_pole_signal_on_the_lattice():
    with pytest.raises(PoleError) as exc:
        pole_product_oscillator(complex(0.0, TWO_PI), 1.0)
    assert exc.value.nearest == 1
    with pytest.raises(PoleError):
        pole_product_oscillator(0.0, 1.0)


@pytest.mark.parametrize("beta_e0", [0.5, 1.0, 2.0, 5.0])
def test_truncation_error_decreases_and_tail_beats_it(beta_e0):
    cf = closed_form_oscillator(beta_e0, 1.0)
    errs = [abs(pole_product_oscillator(beta_e0, 1.0, n, tail_correction=False).value - cf)
            for n in (10 ** 3, 10 ** 4, 10 ** 5)]
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


def test_pole_flags_do_not_depend_on_offset():
    # closed-form geometric sums for shifted spectra signal poles at the
    # same lattice 2*pi*i*k/gap: the offset scales residues, not locations
    for k in (-2, -1, 0, 1, 2):
        candidate = complex(0.0, TWO_PI * k)
        for a in (0.0, 0.3, 1.7):
            with pytest.raises(PoleError) as exc:
                closed_form_affine(candidate, a, 1.0)
            assert exc.value.nearest == k


# ------------------------------------------------------- weierstrass engine

def test_empty_exponent_at_origin():
    zs = ZeroSet((ZeroEntry(1j), ZeroEntry(-1j)), symmetry="conjugate")
    r = general_weierstrass_eval(0.0, zs, 0, PairingStrategy.CONJUGATE_PAIRS)
    assert r.value == 1.0


def test_conjugate_pair_at_unit_distance():
    zs = ZeroSet((ZeroEntry(1j), ZeroEntry(-1j)), symmetry="conjugate")
    r = general_weierstrass_eval(1.0, zs, 0, PairingStrategy.CONJUGATE_PAIRS)
    assert abs(r.value - 2.0) < 1e-15


def test_matches_dedicated_pole_product():
    ps = oscillator_pole_set(1.0, 1000)
    g = general_weierstrass_eval(1.0, ps, 0, PairingStrategy.CONJUGATE_PAIRS)
    p = pole_product_oscillator(1.0, 1.0, 1000, tail_correction=False)
    assert abs(g.log_value - p.log_value) < 1e-10


def test_zero_hit_and_pole_hit_signals():
    zs = ZeroSet((ZeroEntry(0.5 + 0.5j, kind="zero"), ZeroEntry(2.0 + 0j, kind="pole")))
    with pytest.raises(ZeroHitSignal) as exc:
        general_weierstrass_eval(0.5 + 0.5j, zs)
    assert exc.value.index == 0
    with pytest.raises(PoleHitSignal) as exc:
        general_weierstrass_eval(2.0 + 0j, zs)
    assert exc.value.index == 1


def test_genus_one_factor_includes_exponential():
    a = 1.0 + 1.0j
    zs = ZeroSet((ZeroEntry(a), ZeroEntry(a.conjugate())), symmetry="conjugate")
    z = 0.5
    want = ((1 - z / a) * cmath.exp(z / a)
            * (1 - z / a.conjugate()) * cmath.exp(z / a.conjugate()))
    r = general_weierstrass_eval(z, zs, 1, PairingStrategy.CONJUGATE_PAIRS)
    assert abs(r.value - want) < 1e-14 * abs(want)


def test_genus_one_rejects_entry_at_origin():
    zs = ZeroSet((ZeroEntry(0j),))
    with pytest.raises(ValueError):
        general_weierstrass_eval(1.0, zs, genus=1)


def test_monomial_entry_at_origin():
    zs = ZeroSet((ZeroEntry(0j, multiplicity=2, kind="zero"),))
    r = general_weierstrass_eval(3.0, zs, genus=0)
    assert abs(r.value - 9.0) < 1e-14


def test_pairing_requires_matching_symmetry():
    zs = ZeroSet((ZeroEntry(1j), ZeroEntry(-1j)))  # symmetry tag left "none"
    with pytest.raises(ValueError):
        general_weierstrass_eval(1.0, zs, 0, PairingStrategy.CONJUGATE_PAIRS)
    with pytest.raises(ValueError):
        general_weierstrass_eval(1.0, zs, 0, PairingStrategy.REFLECTION_PAIRS)


@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.2, 3.0)),
                min_size=1, max_size=12),
       st.floats(-2.0, 2.0))
@settings(max_examples=150)
def test_conjugate_pairing_real_on_real_axis(uppers, x):
    entries = []
    seen = set()
    for re, im in uppers:
        a = complex(re, im)
        if a in seen:
            continue
        seen.update((a, a.conjugate()))
        entries += [ZeroEntry(a), ZeroEntry(a.conjugate())]
    zs = ZeroSet(tuple(entries), symmetry="conjugate")
    r = general_weierstrass_eval(x, zs, 1, PairingStrategy.CONJUGATE_PAIRS)
    assert abs(r.log_value.imag) < 1e-10


@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.2, 3.0)),
                min_size=1, max_size=10),
       st.floats(-2.0, 2.0), st.integers(0, 1))
@settings(max_examples=150)
def test_pairing_cannot_change_the_value(uppers, x, genus):
    # pairing reorders/regroups an absolutely convergent finite product;
    # the value (not the accumulated log branch) must be unchanged
    entries = []
    seen = set()
    for re, im in uppers:
        a = complex(re, im)
        if a in seen:
            continue
        seen.update((a, a.conjugate()))
        entries += [ZeroEntry(a), ZeroEntry(a.conjugate())]
    zs = ZeroSet(tuple(entries), symmetry="conjugate")
    paired = general_weierstrass_eval(x, zs, genus, PairingStrategy.CONJUGATE_PAIRS)
    flat = general_weierstrass_eval(x, zs, genus, PairingStrategy.UNPAIRED)
    scale = max(1.0, abs(paired.value))
    assert abs(paired.value - flat.value) < 1e-9 * scale
