import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_zeros.core import PoleError, TWO_PI, ZeroHitSignal
from spectral_zeros.product_forms import (
    PairingStrategy,
    ZeroEntry,
    ZeroSet,
    pole_product_oscillator,
)
from spectral_zeros.qnm import (
    InsufficientModesError,
    QNMSpectrum,
    asymptotic_spacing_fit,
    conjectured_partition_log,
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
    spec = QNMSpectrum(modes=(1.0 - 1.0j,), temperature=1.0)
    with pytest.raises(ValueError):
        conjectured_partition_log(0.5, spec, PairingStrategy.REFLECTION_PAIRS)


def test_near_mirror_modes_are_snapped():
    # closure within 1e-12 is legal on the spectrum; the product engine
    # demands exact closure, so the conversion snaps the partner
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
    pp = pole_product_oscillator(z, 1.0 / T, n_factors=n_pairs, tail_correction=False)
    rhs = -(pp.log_value + cmath.log(z / T))
    assert abs(lhs - rhs) < 1e-10


# Reference: the closure snap and the engine's per-call partner lookup as
# they ran on every conjectured_partition_log call before the spectrum
# built its ZeroSet once.  The product must come out bit for bit the same.

def _reference_mode_zero_set(spec: QNMSpectrum) -> ZeroSet:
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
    entries = tuple(ZeroEntry(z, 1, "zero") for z in locations)
    return ZeroSet(entries,
                   symmetry="reflection" if spec.symmetry == "reflection" else "none")


def _reference_engine(z: complex, zeros: ZeroSet, pairing: PairingStrategy) -> complex:
    """Genus-0 product over zeros, partners looked up per call."""
    index_of = zeros._index_of
    hit = index_of.get(z)
    if hit is not None:
        raise ZeroHitSignal("hit", index=hit, location=z)
    if pairing is PairingStrategy.REFLECTION_PAIRS:
        partner_of = lambda a: -a.conjugate()
    else:
        partner_of = None
    total = 0j
    consumed = [False] * len(zeros.entries)
    for i in zeros._order:
        if consumed[i]:
            continue
        consumed[i] = True
        a = zeros.entries[i].location
        f = 1.0 - z / a
        partner = partner_of(a) if partner_of is not None else None
        if partner is not None and partner != a:
            j = index_of.get(partner)
            if j is not None and not consumed[j]:
                consumed[j] = True
                f *= 1.0 - z / partner
        if f == 0:
            raise ZeroHitSignal("vanished", index=i, location=z)
        total += cmath.log(f)
    return total


def _reference_conjectured(z: complex, spec: QNMSpectrum, pairing) -> complex:
    if pairing is None:
        pairing = (PairingStrategy.REFLECTION_PAIRS
                   if spec.symmetry == "reflection" else PairingStrategy.UNPAIRED)
    zeros = _reference_mode_zero_set(spec)
    return _reference_engine(complex(z), zeros, pairing) - spec.euclidean_action


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


@given(reflection_spectra(), st.data())
@settings(max_examples=200, deadline=None)
def test_conjectured_matches_per_call_reference(spec, data):
    z = data.draw(st.one_of(
        st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
        st.sampled_from(spec.modes)))
    pairing = data.draw(st.sampled_from((None, PairingStrategy.UNPAIRED)))
    try:
        want = _reference_conjectured(z, spec, pairing)
    except ZeroHitSignal as e:
        with pytest.raises(ZeroHitSignal) as exc:
            conjectured_partition_log(z, spec, pairing)
        assert exc.value.index == e.index
        return
    got = conjectured_partition_log(z, spec, pairing).log_value
    assert repr(got) == repr(want)  # bit for bit, signed zeros included


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
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j,), temperature=1.0, symmetry="mirror")
    with pytest.raises(ValueError):
        QNMSpectrum(modes=(1j,), temperature=1.0, euclidean_action=-1.0)


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
