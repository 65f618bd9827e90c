import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_zeros.core import DivergenceDomainError, PoleError
from spectral_zeros.spectra import (
    affine,
    closed_form_affine,
    closed_form_oscillator,
    oscillator,
    partition_direct,
    primon,
)


# ------------------------------------------------------------------ levels

@given(st.integers(1, 500), st.floats(0.1, 10.0), st.floats(0.05, 5.0), st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_oscillator_levels_are_half_integer_multiples(k, e0, beta_e0, im):
    # the level sum takes E_n = (n + 1/2) E0 exactly, one rounding per level
    beta = complex(beta_e0 / e0, im)
    want = complex(np.sum(np.exp(-beta * ((np.arange(k) + 0.5) * e0))))
    got = partition_direct(oscillator(e0), beta, n_terms=k).value
    assert repr(got) == repr(want)     # bit for bit, signed zeros too


# --------------------------------------------------------------- summation

def test_direct_sum_oscillator_beta_one():
    # closed form e^(-1/2)/(1 - e^(-1)) evaluated by hand
    expect = math.exp(-0.5) / (1.0 - math.exp(-1.0))
    r = partition_direct(oscillator(1.0), 1.0, n_terms=200)
    assert abs(r.value - expect) < 1e-12 * expect
    assert r.error_estimate < 1e-40


def test_direct_sum_ground_state_dominance():
    r = partition_direct(oscillator(1.0), 50.0, n_terms=200)
    assert abs(r.value - math.exp(-25.0)) < 1e-12 * math.exp(-25.0)


def test_primon_sum_approaches_zeta_two():
    r = partition_direct(primon(), 2.0, n_terms=10 ** 6)
    assert abs(r.value - math.pi ** 2 / 6.0) < 2e-6
    assert r.error_estimate >= abs(r.value - math.pi ** 2 / 6.0)


def test_default_term_counts():
    assert partition_direct(oscillator(1.0), 1.0).terms_used == 1000
    assert partition_direct(primon(), 2.0).terms_used == 100_000


@given(st.floats(0.5, 5.0), st.floats(0.2, 4.0))
@settings(max_examples=100, deadline=None)
def test_direct_matches_closed_form(beta_e0, e0):
    beta = beta_e0 / e0
    r = partition_direct(oscillator(e0), beta, n_terms=200)
    cf = closed_form_oscillator(beta, e0).value
    assert abs(r.value - cf) < 1e-12 * abs(cf)


@given(st.lists(st.floats(0.5, 5.0), min_size=2, max_size=8, unique=True))
@settings(max_examples=100, deadline=None)
def test_partition_strictly_decreases_in_real_beta(betas):
    spec = oscillator(1.0)
    vals = [partition_direct(spec, b, n_terms=400).value.real for b in sorted(betas)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.3, 4.0))
@settings(max_examples=100, deadline=None)
def test_affine_offset_factors_out(a, g, beta):
    # Z_a(beta) = exp(-beta a) Z_0(beta): shifting levels cannot move poles
    za = partition_direct(affine(a, g), beta, n_terms=200).value
    z0 = partition_direct(affine(0.0, g), beta, n_terms=200).value
    assert abs(za - cmath.exp(-beta * a) * z0) < 1e-12 * abs(za)


def test_divergence_outside_half_plane():
    # at Re(beta)*gap = 1e-17 the ratio e^(-beta) rounds to 1, where the
    # tail bound is not defined; at 1e-15 it does not, and the sum still answers
    for spec, beta in [(oscillator(1.0), -0.5), (affine(0.0, 1.0), complex(0.0, 3.0)),
                       (oscillator(1.0), 1e-17), (oscillator(1.0), complex(1e-17, 2.0))]:
        with pytest.raises(DivergenceDomainError) as exc:
            partition_direct(spec, beta)
        assert "Re(beta)*gap = " in str(exc.value) and "\n" not in str(exc.value)
    r = partition_direct(oscillator(1.0), 1e-15)
    assert r.value == pytest.approx(1000.0, rel=1e-12)
    assert r.error_estimate == pytest.approx(1.000799917192443e15, rel=1e-12)


def test_primon_divergence_names_abscissa():
    with pytest.raises(DivergenceDomainError) as exc:
        partition_direct(primon(), 1.0)
    assert exc.value.abscissa == 1.0
    assert "1" in str(exc.value)


# --------------------------------------------------------------- closed form

def test_closed_form_at_i_pi():
    got = closed_form_oscillator(complex(0.0, math.pi), 1.0).value
    assert abs(got - complex(0.0, -0.5)) < 1e-14


@settings(max_examples=300, deadline=None)
@given(st.floats(-1500.0, 1500.0), st.floats(-1e4, 1e4))
def test_closed_form_agrees_with_mpmath(re, im):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = complex(re, im)
    try:
        got = closed_form_oscillator(x, 1.0).value
    except PoleError:
        return
    want = 1 / (2 * mpmath.sinh(mpmath.mpc(x) / 2))
    if abs(want) < 2.2250738585072014e-308:      # below the normal range: underflows
        assert got == 0 or abs(got) < 2.3e-308
        return
    assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.floats(-11.0, -1.0), st.floats(0.0, 2.0 * math.pi))
def test_closed_form_near_the_poles_agrees_with_mpmath(k, log10_eps, phase):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = complex(0.0, 2.0 * math.pi * k) + 10.0 ** log10_eps * cmath.exp(1j * phase)
    want = 1 / (2 * mpmath.sinh(mpmath.mpc(x) / 2))
    assert abs(mpmath.mpc(closed_form_oscillator(x, 1.0).value) - want) <= 1e-12 * abs(want)


def _assert_far_field_result(got, want_log):
    """The closed forms' contract past the normal range: log_value within
    1e-13 max(1, |log Z|) of mpmath's log Z (arg mod 2 pi), and value
    exactly exp(log_value), subnormal or 0 (below EXP_UNDERFLOW) included."""
    diff = complex(got.log_value) - complex(want_log)
    tol = 1e-13 * max(1.0, abs(complex(want_log)))
    assert abs(diff.real) <= tol, (got, want_log)
    assert abs(math.remainder(diff.imag, 2.0 * math.pi)) <= tol, (got, want_log)
    assert got.value == cmath.exp(got.log_value)
    assert got.error_estimate == 0.0 and got.terms_used == 0


@pytest.mark.parametrize("re", [1416.0, 1419.0, 1420.0, 1500.0, 1e5, 1e300])
def test_closed_form_far_field_underflows_instead_of_raising(re):
    # cmath.sinh overflowed once |Re x/2| > ~710; the value is now exp of its
    # log: subnormal to |Re x| ~ 1490, 0 past it
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (complex(re, 0.5), complex(-re, -0.5)):
        got = closed_form_oscillator(x, 1.0)
        _assert_far_field_result(got, -mpmath.log(2 * mpmath.sinh(mpmath.mpc(x) / 2)))
        assert (got.value == 0) == (re > 1491.0)


def test_closed_form_pole_signal_carries_index():
    with pytest.raises(PoleError) as exc:
        closed_form_oscillator(complex(0.0, 2.0 * math.pi), 1.0)
    assert exc.value.nearest == 1
    with pytest.raises(PoleError) as exc:
        closed_form_oscillator(0.0, 1.0)
    assert exc.value.nearest == 0
    with pytest.raises(PoleError) as exc:
        closed_form_oscillator(complex(0.0, -math.pi), 2.0)
    assert exc.value.nearest == -1


# ------------------------------------------------------------ affine closed form

def _mp_affine(mpmath, beta, offset, gap):
    b = mpmath.mpc(beta)
    return mpmath.exp(-b * offset) / (1 - mpmath.exp(-b * gap))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-800.0, 800.0), st.floats(-50.0, 50.0), st.floats(0.15, 0.85),
       st.sampled_from([0.5, 1.0, 2.0]))
@example(-800.0, 0.0, 0.5, 1.0)           # overflowed in exp(-beta*gap); the value is -1.9e-174
@example(800.0, 3.0, 0.5, 1.0)
def test_closed_form_affine_agrees_with_mpmath(re, im, offset_fraction, gap):
    # offsets between 0.15 and 0.85 gaps keep |Z| in the normal range over
    # the whole strip, so the comparison is relative everywhere
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    beta, offset = complex(re, im) / gap, offset_fraction * gap
    try:
        got = closed_form_affine(beta, offset, gap).value
    except PoleError:
        return
    want = _mp_affine(mpmath, beta, offset, gap)
    assert abs(mpmath.mpc(got) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("re", [1416.0, 1419.0, 1420.0, 1450.0, 1500.0, 1e5, 1e300])
def test_closed_form_affine_far_field_flushes_below_the_normal_range(re):
    # no flush of its own any more: below the normal range the value is the
    # subnormal exp(log_value) (Re beta*gap = +-1450 gives +-1.37e-315), and
    # 0 only below EXP_UNDERFLOW, where the scan flags a zero
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (complex(re, 0.5), complex(-re, -0.5)):
        got = closed_form_affine(x, 0.5, 1.0)
        # e^(-x/2) / (1 - e^(-x)) = 1/(2 sinh(x/2)); mpmath's 1 - e^(-x) fails at x = 1e300
        _assert_far_field_result(got, -mpmath.log(2 * mpmath.sinh(mpmath.mpc(x) / 2)))
        assert (got.value == 0) == (re > 1491.0)
        if re == 1450.0:
            assert abs(abs(got.value) - 1.37e-315) < 0.01e-315


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-3, 3), st.floats(-11.0, -1.0), st.floats(0.0, 2.0 * math.pi),
       st.sampled_from([0.0, 0.3, 1.7]), st.sampled_from([0.5, 1.0, 2.0]))
def test_closed_form_affine_near_the_poles_agrees_with_mpmath(k, log10_eps, phase, offset, gap):
    # beta * gap is exact for these gaps, so the pole sits where mpmath puts it
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    beta = (complex(0.0, 2.0 * math.pi * k) + 10.0 ** log10_eps * cmath.exp(1j * phase)) / gap
    want = _mp_affine(mpmath, beta, offset, gap)
    assert abs(mpmath.mpc(closed_form_affine(beta, offset, gap).value) - want) <= 1e-13 * abs(want)
