import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_zeros.core import EXP_UNDERFLOW, PoleError, TWO_PI, ZeroHitSignal, hurwitz_zeta
from spectral_zeros.product_forms import pole_product_oscillator
from spectral_zeros.qnm import (
    InsufficientModesError,
    QNMSpectrum,
    asymptotic_spacing_fit,
    conjectured_partition_log,
    conjectured_partition_log_array,
    gamma_regularized_tower,
    load_qnm_file,
    one_loop_log_partition,
    qnm_from_json,
    qnm_to_json,
    synthetic_affine_tower,
    synthetic_perturbed_tower,
    synthetic_quadruple_spectrum,
    truncated_tower_ratio,
)

QUAD = synthetic_quadruple_spectrum(
    [(0.5, 0.25), (1.0, 0.5), (1.5, 0.75), (2.0, 1.0), (2.5, 1.25)],
    temperature=1.0, euclidean_action=3.2)


# -------------------------------------------------------------------- towers

def test_tower_at_one():
    assert abs(gamma_regularized_tower(1.0) + 0.5 * math.log(TWO_PI)) < 1e-14


def test_tower_at_half():
    assert abs(gamma_regularized_tower(0.5) + 0.5 * math.log(2.0)) < 1e-14


def test_tower_pole():
    with pytest.raises(PoleError):
        gamma_regularized_tower(0.0)
    with pytest.raises(PoleError):
        gamma_regularized_tower(-3.0)


@pytest.mark.parametrize("a,b", [(1.0, 0.5), (2.5, 1.25)])
def test_regularization_ratio_law(a, b):
    # the truncated ratio prod (n+b)/(n+a) * N^(a-b) probes the tower
    # assignment without assuming any regularization
    probe = truncated_tower_ratio(a, b, 10 ** 6)
    target = cmath.exp(gamma_regularized_tower(a) - gamma_regularized_tower(b))
    assert abs(probe - target) < 1e-4 * abs(target)


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
@settings(max_examples=25, deadline=None)
def test_ratio_law_across_the_window(a, b):
    probe = truncated_tower_ratio(a, b, 10 ** 6)
    target = cmath.exp(gamma_regularized_tower(a) - gamma_regularized_tower(b))
    assert abs(probe - target) < 1e-4 * abs(target)


# ------------------------------------------------------------------ one loop

def test_single_purely_damped_mode():
    T = 0.7
    spec = QNMSpectrum(modes=(complex(0.0, -TWO_PI * T),), temperature=T,
                       symmetry="reflection")
    assert abs(one_loop_log_partition(spec) + math.log(TWO_PI)) < 1e-13


def test_one_loop_real_on_symmetric_spectra():
    assert abs(one_loop_log_partition(QUAD).imag) < 1e-10
    assert abs(one_loop_log_partition(synthetic_affine_tower(0.3, 12)).imag) < 1e-10


@given(st.floats(0.1, 10.0))
@settings(max_examples=50)
def test_one_loop_scale_invariance(lam):
    # Eq.-(7)-style sums depend only on mode/temperature ratios
    base = one_loop_log_partition(QUAD)
    scaled = QNMSpectrum(modes=tuple(lam * z for z in QUAD.modes),
                         temperature=lam * QUAD.temperature,
                         euclidean_action=QUAD.euclidean_action,
                         symmetry="reflection")
    assert abs(one_loop_log_partition(scaled) - base) < 1e-10


def test_one_loop_pole_names_the_mode():
    T = 0.5
    spec = QNMSpectrum(modes=(complex(0.0, TWO_PI * T),), temperature=T)
    with pytest.raises(PoleError) as exc:
        one_loop_log_partition(spec)
    assert "mode 0" in str(exc.value)
    assert exc.value.nearest == -1


def test_polynomial_ambiguity_shifts_by_its_value():
    with_pol = QNMSpectrum(modes=QUAD.modes, temperature=QUAD.temperature,
                           pol_coefficients=(1.5, -2.0, 0.25),
                           euclidean_action=QUAD.euclidean_action,
                           symmetry="reflection")
    delta = 1.3
    shift = 1.5 - 2.0 * delta + 0.25 * delta ** 2
    a = one_loop_log_partition(with_pol, delta=delta)
    b = one_loop_log_partition(QUAD)
    assert abs((a - b) - shift) < 1e-12


@st.composite
def tower_spectra(draw):
    """Spectra of up to 8 modes, closed under z -> -conj z or not."""
    modes = draw(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e4,
                                             allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        modes = list(dict.fromkeys(modes + [-z.conjugate() for z in modes]))
    return QNMSpectrum(modes=tuple(modes), temperature=draw(st.floats(0.05, 20.0)),
                       pol_coefficients=tuple(draw(st.lists(st.floats(-5.0, 5.0), max_size=3))))


@given(tower_spectra(), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_loop_takes_one_tower_per_mode(spec, delta):
    # tower(-i conj(z*)/2piT) is the conjugate of tower(i z*/2piT) bit for
    # bit, so 2 Re tower(u) is a mode's two-tower sum exactly
    try:
        got = one_loop_log_partition(spec, delta)
    except PoleError:
        return
    scale = TWO_PI * spec.temperature
    pol = 0.0
    for c in reversed(spec.pol_coefficients):
        pol = pol * delta + c
    want = complex(pol)
    for z in spec.modes:
        u, v = 1j * z / scale, -1j * z.conjugate() / scale
        want += math.log(abs(z) / scale) + (gamma_regularized_tower(u)
                                            + gamma_regularized_tower(v))
    assert got.imag == 0.0
    assert got.real == want.real


# ------------------------------------------------------ conjectured partition

def test_conjectured_at_origin_is_minus_action():
    r = conjectured_partition_log(0.0, QUAD)
    assert r.log_value == -3.2


def test_conjectured_vanishes_at_modes():
    with pytest.raises(ZeroHitSignal):
        conjectured_partition_log(QUAD.modes[0], QUAD)


@given(st.floats(-4.0, 4.0))
@settings(max_examples=100)
def test_conjectured_real_on_real_axis(x):
    if any(x == m for m in QUAD.modes):
        return
    r = conjectured_partition_log(x, QUAD)
    assert abs(r.log_value.imag) < 1e-10


def test_reflection_pairing_requires_symmetry():
    # pairing follows the declared symmetry: reflection needs the mirror of
    # every mode, and a spectrum declared without it multiplies single factors
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1.0 - 1.0j,), temperature=1.0, symmetry="reflection")
    spec = QNMSpectrum(modes=(1.0 - 1.0j,), temperature=1.0)
    r = conjectured_partition_log(0.5, spec)
    assert abs(r.log_value - cmath.log(1 - 0.5 / (1.0 - 1.0j))) < 1e-15


def test_near_mirror_modes_are_snapped():
    # closure within 1e-12 is legal on the spectrum; pairing needs exact
    # mirrors, so construction snaps the partner
    eps = 1e-13
    spec = QNMSpectrum(modes=(1.0 - 1.0j, complex(-1.0 + eps, -1.0)),
                       temperature=1.0, symmetry="reflection")
    r = conjectured_partition_log(0.5, spec)
    exact = QNMSpectrum(modes=(1.0 - 1.0j, -1.0 - 1.0j),
                        temperature=1.0, symmetry="reflection")
    want = conjectured_partition_log(0.5, exact)
    assert abs(r.log_value - want.log_value) < 1e-11


def test_self_mirror_mode_near_the_axis_is_snapped():
    # a mode within the slack of its own mirror has no other partner; it
    # goes onto the imaginary axis, so the accepted spectrum evaluates
    spec = QNMSpectrum(modes=(1e-13 - 1j, 1 - 2j, -1 - 2j), temperature=1.0,
                       symmetry="reflection")
    assert spec.modes[0] == 1e-13 - 1j
    exact = QNMSpectrum(modes=(-1j, 1 - 2j, -1 - 2j), temperature=1.0,
                        symmetry="reflection")
    for z in (0.5, 0.3 + 0.7j, -2.0 - 1.0j):
        assert (conjectured_partition_log(z, spec).log_value
                == conjectured_partition_log(z, exact).log_value)
    with pytest.raises(ZeroHitSignal):
        conjectured_partition_log(-1j, spec)


def test_structural_echo_of_the_oscillator_lattice():
    # conjugation-completed affine tower {+-2 pi i T n}: the conjectured
    # product over it is the reciprocal of the oscillator pole product
    # at E0 = 1/T (up to the k=0 monomial), same equally spaced lattice
    n_pairs = 400
    T = 0.5
    modes = tuple(complex(0.0, s * TWO_PI * T * n)
                  for n in range(1, n_pairs + 1) for s in (+1, -1))
    tower = QNMSpectrum(modes=modes, temperature=T, symmetry="reflection")
    z = 0.9
    lhs = conjectured_partition_log(z, tower).log_value
    # the product without its tail term exp(-c psi'(N+1)), c = (z E0/2 pi)^2
    pp = pole_product_oscillator(z, 1.0 / T, n_factors=n_pairs).log_value
    untailed = pp + (z / T / TWO_PI) ** 2 * hurwitz_zeta(2, n_pairs + 1)
    rhs = -(untailed + cmath.log(z / T))
    assert abs(lhs - rhs) < 1e-10


# Oracle: the closure snap, written out on its own, and mpmath (dps 30)
# summing the principal log of each group's product, a mode with its
# mirror under reflection symmetry, else a mode alone.

def _reference_snap(spec: QNMSpectrum) -> list[complex]:
    locations = list(spec.modes)
    if spec.symmetry == "reflection":
        exact = set(locations)
        for i, z in enumerate(locations):
            mirror = -z.conjugate()
            if mirror in exact:
                continue
            for j, w in enumerate(locations):
                if j != i and abs(w - mirror) <= 1e-12:
                    exact.discard(locations[j])
                    locations[j] = mirror
                    exact.add(mirror)
                    break
            else:
                locations[i] = complex(0.0, z.imag)
    return locations


def _mp_conjectured(z: complex, spec: QNMSpectrum) -> tuple[complex, bool]:
    """log Z = -S_E + sum over groups of log prod (1 - z/z*), and whether a
    group's product lies within 1e-12 (relative) of the negative real axis,
    where rounding decides its principal argument (+-pi); raises
    ZeroHitSignal, with the mode's index, when z is a mode."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    modes = _reference_snap(spec)
    if z in modes:
        raise ZeroHitSignal("hit", index=modes.index(z))
    zz, total, done, on_cut = mpmath.mpc(z), mpmath.mpf(0), set(), False
    for i, a in enumerate(modes):
        if i in done:
            continue
        group = [a]
        if spec.symmetry == "reflection" and -a.conjugate() != a:
            group.append(-a.conjugate())
            done.add(modes.index(-a.conjugate()))
        p = mpmath.fprod(1 - zz / mpmath.mpc(w) for w in group)
        on_cut |= p.real < 0 and abs(p.imag) <= 1e-12 * abs(p)
        total += mpmath.log(p)
    total -= spec.euclidean_action
    return complex(float(total.real), float(total.imag)), on_cut


def _assert_log_matches(got: complex, want: complex, z, on_cut: bool = False):
    """log|Z| and arg within 1e-13 max(1, |log Z|); arg mod 2 pi where a
    group sits on the cut of the principal log, else branch included."""
    tol = 1e-13 * max(1.0, abs(want))
    d_arg = got.imag - want.imag
    assert abs(got.real - want.real) <= tol, (z, got, want)
    assert abs(math.remainder(d_arg, TWO_PI) if on_cut else d_arg) <= tol, (z, got, want)


@st.composite
def reflection_spectra(draw):
    """Reflection-closed spectra, some partners jittered by up to 1e-13.

    Pair members sit on a 1/64 grid plus a per-pair offset below half a
    step, so distinct modes stay far apart compared with the slack; real
    modes take either sign of zero, axis modes are exact."""
    cells = draw(st.lists(st.tuples(st.integers(1, 200), st.integers(-200, 200)),
                          min_size=1, max_size=12, unique=True))
    modes = []
    for a, b in cells:
        w = (a + draw(st.floats(0.0, 0.45))) / 64.0
        k = (b + draw(st.floats(0.0, 0.45))) / 64.0 if b else 0.0
        jitter = draw(st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13)))
        mirror_im = k if b else draw(st.sampled_from((0.0, -0.0)))
        modes += [complex(w, k), complex(-w + jitter, mirror_im)]
    axis = draw(st.lists(st.integers(-200, 200).filter(bool), max_size=4, unique=True))
    modes += [complex(0.0, (b + 0.25) / 64.0) for b in axis]
    order = draw(st.permutations(range(len(modes))))
    return QNMSpectrum(modes=tuple(modes[i] for i in order), temperature=1.0,
                       euclidean_action=draw(st.floats(0.0, 5.0)),
                       symmetry="reflection")


_MIRRORED = QNMSpectrum(modes=(0.5 - 1j, -0.5 - 1j, 0.25j, 1.0 + 0.5j, -1.0 + 0.5j),
                        temperature=1.0, euclidean_action=0.5, symmetry="reflection")


@given(reflection_spectra(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_conjectured_matches_per_call_reference(spec, reflection, data):
    # reflection pairs, or the same modes unpaired; on modes and off them
    if not reflection:
        spec = dataclasses.replace(spec, symmetry="none")
    z = data.draw(st.one_of(
        st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(spec.modes)))
    try:
        want, on_cut = _mp_conjectured(z, spec)
    except ZeroHitSignal as e:
        with pytest.raises(ZeroHitSignal) as exc:
            conjectured_partition_log(z, spec)
        assert exc.value.index == e.index
        return
    got = conjectured_partition_log(z, spec)
    _assert_log_matches(got.log_value, want, z, on_cut)
    assert got.terms_used == len(spec.modes) and got.error_estimate == 0.0


@pytest.mark.parametrize("z", [2.0 ** 1022, complex(-2.0 ** 1023, 1.0), 1e200j],
                         ids=["real_2^1022", "real_-2^1023", "imag_1e200"])
def test_conjectured_past_the_float_range_matches_mpmath(z):
    # a single factor and the pair products overflow; log Z stays finite
    want, on_cut = _mp_conjectured(z, _MIRRORED)
    _assert_log_matches(conjectured_partition_log(z, _MIRRORED).log_value, want, z, on_cut)
    log_z, _, _ = conjectured_partition_log_array(np.array([z]), _MIRRORED)
    assert np.isfinite(log_z).all() and log_z.real[0] >= EXP_UNDERFLOW


def test_conjectured_product_finite_up_to_log_dbl_max():
    # log Z = log(1.5e308) = 709.60 < log(DBL_MAX) = 709.78: Z is a finite double
    r = conjectured_partition_log(-1.5e308, QNMSpectrum(modes=(1.0,), temperature=1.0))
    assert r.log_value == complex(709.6016737502742, 0.0)
    assert r.value == pytest.approx(1.5000000000000140e+308, rel=1e-15)


@pytest.mark.parametrize("z, mode", [(1e308 - 1.7e308j, 1.0), (-1.7e308 - 1.7e308j, 1.5e308),
                                     (1.0, 1.5e308 + 1.5e308j)],
                         ids=["difference_past_dbl_max", "half_difference_past_dbl_max",
                              "reciprocal_subnormal"])
def test_conjectured_finite_where_the_mode_difference_passes_dbl_max(z, mode):
    # |z* - z| passes DBL_MAX, and in the second row so does half of it,
    # while log Z is finite; in the third 1/z* is subnormal, which numpy's
    # complex division rounds to 0
    spec = QNMSpectrum(modes=(mode,), temperature=1.0)
    want, on_cut = _mp_conjectured(z, spec)
    _assert_log_matches(conjectured_partition_log(z, spec).log_value, want, z, on_cut)


@pytest.mark.parametrize("reflection", [True, False], ids=["paired", "unpaired"])
def test_conjectured_mode_hits_name_the_mode(reflection):
    spec = _MIRRORED if reflection else dataclasses.replace(_MIRRORED, symmetry="none")
    for i, mode in enumerate(spec.modes):
        with pytest.raises(ZeroHitSignal) as exc:
            _mp_conjectured(mode, spec)
        assert exc.value.index == i
        with pytest.raises(ZeroHitSignal) as exc:
            conjectured_partition_log(mode, spec)
        assert exc.value.index == i
    log_z, _, _ = conjectured_partition_log_array(np.array(spec.modes + (2j,)), spec)
    assert (log_z.real == -np.inf).tolist() == [True] * len(spec.modes) + [False]


@given(reflection_spectra(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_conjectured_array_matches_the_scalar(spec, reflection, data):
    # several nodes in one kernel call, and the scalar at each node: -inf
    # and signals at the zeros, underflow, and the log of each node against
    # the oracle
    if not reflection:
        spec = dataclasses.replace(spec, symmetry="none")
    points = data.draw(st.lists(st.one_of(
        st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(spec.modes)), min_size=1, max_size=12))
    log_z, err, terms = conjectured_partition_log_array(
        np.array(points, dtype=complex), spec)
    assert err.tolist() == [0.0] * len(points) and terms.tolist() == [len(spec.modes)] * len(points)
    for z, lz in zip(points, log_z.tolist()):
        try:
            want, on_cut = _mp_conjectured(z, spec)
        except ZeroHitSignal as e:
            assert lz.real == -math.inf, z
            with pytest.raises(ZeroHitSignal) as exc:
                conjectured_partition_log(z, spec)
            assert exc.value.index == e.index
            continue
        assert (lz.real < EXP_UNDERFLOW) == (want.real < EXP_UNDERFLOW), z
        _assert_log_matches(lz, want, z, on_cut)
        _assert_log_matches(conjectured_partition_log(z, spec).log_value, want, z, on_cut)


def test_conjectured_array_flags_a_vanishing_pair():
    # z = i is no mode, but the pair's factor (1 - z/a)(1 - z/a') = 1e-340
    # underflows to 0: the kernel's log is -inf, which the scalar reports
    # as a zero hit
    spec = QNMSpectrum(modes=(1e-170 + 1j, -1e-170 + 1j), temperature=1.0,
                       symmetry="reflection")
    with pytest.raises(ZeroHitSignal):
        conjectured_partition_log(1j, spec)
    log_z, _, _ = conjectured_partition_log_array(np.array([1j, 2j]), spec)
    assert log_z.real[0] == -np.inf and np.isfinite(log_z[1])


# ----------------------------------------------------------------- spacing

def test_exact_affine_spectrum_recovers_gap():
    spec = QNMSpectrum(modes=tuple(complex(1.0, -(n + 1.0)) for n in range(20)),
                       temperature=1.0)
    fit = asymptotic_spacing_fit(spec)
    assert abs(fit.gap - (-1j)) < 1e-12
    assert fit.residual_rms < 1e-12


def test_affine_tower_gap_scales_with_temperature():
    T = 0.37
    fit = asymptotic_spacing_fit(synthetic_affine_tower(T, 15))
    assert abs(fit.gap - complex(0.0, -TWO_PI * T)) < 1e-10


def test_perturbed_affine_is_still_recognized():
    spec = synthetic_perturbed_tower(1.0 / TWO_PI, 20, amplitude=1e-3, seed=11)
    fit = asymptotic_spacing_fit(spec)
    assert abs(fit.gap - (-1j)) < 1e-2
    assert 1e-4 < fit.residual_rms < 1e-2


def test_geometric_spectrum_is_flagged():
    spec = QNMSpectrum(modes=tuple(complex(0.0, -(2.0 ** n)) for n in range(8)),
                       temperature=1.0)
    assert asymptotic_spacing_fit(spec).residual_rms > 0.1


def test_spacing_fit_needs_three_tail_modes():
    spec = QNMSpectrum(modes=(1.0 - 1j, 1.0 - 2j), temperature=1.0)
    with pytest.raises(InsufficientModesError):
        asymptotic_spacing_fit(spec)
    big = synthetic_affine_tower(1.0, 20)
    with pytest.raises(InsufficientModesError):
        asymptotic_spacing_fit(big, tail_fraction=0.1)
    with pytest.raises(ValueError):
        asymptotic_spacing_fit(big, tail_fraction=0.0)


# ------------------------------------------------------------------- inputs

def test_spectrum_validation():
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(), temperature=1.0)
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(0j,), temperature=1.0)
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j, 1j), temperature=1.0)
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j,), temperature=0.0)
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1.0 - 1j,), temperature=1.0, symmetry="reflection")
    # 3-2i is further than DBL_MAX from the first mode's mirror, where
    # complex abs raises OverflowError
    with pytest.raises(ValueError, match=r"mode \(3-2j\) has no partner"):
        QNMSpectrum(modes=(1.5e308 + 1.5e308j, -1.5e308 + 1.5e308j, 3 - 2j),
                    temperature=1.0, symmetry="reflection")
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j,), temperature=1.0, symmetry="mirror")
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j,), temperature=1.0, euclidean_action=-1.0)
    nan, inf = math.nan, math.inf
    for bad in ({"modes": (complex(nan, -1.0),)}, {"modes": (complex(1.0, -inf),)},
                {"temperature": inf}, {"euclidean_action": nan},
                {"pol_coefficients": (1.0, inf)}):
        with pytest.raises(ValueError, match="must be finite"):
            QNMSpectrum(**{"modes": (1j,), "temperature": 1.0, **bad})


def test_json_roundtrip_and_file_io(tmp_path):
    text = qnm_to_json(QUAD)
    assert qnm_from_json(text) == QUAD
    assert qnm_to_json(qnm_from_json(text)) == text
    p = tmp_path / "spec.json"
    p.write_text(text)
    assert load_qnm_file(p) == QUAD


def test_json_defaults():
    spec = qnm_from_json('{"modes": [[0.0, -1.0]], "temperature": 2.0}')
    assert spec.pol_coefficients == ()
    assert spec.euclidean_action == 0.0
    assert spec.symmetry == "none"
