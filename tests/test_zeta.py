import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from spectral_zeros.core import (
    AccuracyWarning,
    DivergenceDomainError,
    NumericalDomainError,
    PoleError,
    ZeroHitSignal,
    log_gamma,
)
from spectral_zeros.spectra import partition_direct, primon
from spectral_zeros.zeta import (
    EULER_GAMMA,
    DiscontinuityWarning,
    WindowExhaustedError,
    ZerosFileError,
    ZetaZeroTable,
    euler_product,
    explicit_formula_psi,
    find_zeros,
    hadamard_product,
    hardy_z,
    ingest_zeros_file,
    psi_direct,
    riemann_siegel_theta,
    zeta_critical_line,
    zeta_em,
)


# ----------------------------------------------------------- euler-maclaurin

def test_zeta_em_at_two_against_sum_plus_tail_oracle():
    # independent oracle: truncated series plus the integral tail 1/N,
    # accurate to ~1/(2N^2); no Euler-Maclaurin machinery involved
    n_cut = 10 ** 5
    n = np.arange(1, n_cut + 1, dtype=np.float64)
    oracle = float(np.sum(n ** -2.0)) + 1.0 / n_cut
    r = zeta_em(2.0)
    assert abs(r.value - oracle) < 1e-9
    assert abs(r.value - math.pi ** 2 / 6.0) < 1e-10


def test_zeta_em_at_zero():
    assert abs(zeta_em(0.0).value + 0.5) < 1e-14


def test_zeta_em_trivial_zero():
    assert abs(zeta_em(-2.0).value) < 1e-10


def test_zeta_em_pole_at_one():
    with pytest.raises(PoleError):
        zeta_em(1.0)
    with pytest.raises(PoleError):
        zeta_em(complex(1.0, 1e-13))
    zeta_em(1.001)  # near but outside the window must evaluate


def test_zeta_em_parameter_validation():
    with pytest.raises(ValueError):
        zeta_em(2.0, cutoff=5)
    with pytest.raises(ValueError):
        zeta_em(2.0, correction_order=0)
    with pytest.raises(ValueError):
        zeta_em(2.0, correction_order=9)


def test_zeta_em_warns_outside_validated_window():
    with pytest.warns(AccuracyWarning):
        zeta_em(complex(0.5, 60.0), cutoff=100)
    with pytest.warns(AccuracyWarning):
        zeta_em(-6.0)


def test_zeta_em_internal_consistency_high_on_the_line():
    # same point, very different truncation/correction choices
    a = zeta_em(complex(0.5, 50.0), cutoff=150, correction_order=6).value
    b = zeta_em(complex(0.5, 50.0), cutoff=400, correction_order=8).value
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("s", [-1.5, -2.5])
def test_zeta_em_reflection_formula(s):
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s); left of 0
    # a small cutoff sidesteps the cancellation in the partial sum (the
    # sub-50 cutoff is outside the advertised window, hence the warning)
    with pytest.warns(AccuracyWarning):
        lhs = zeta_em(s, cutoff=24, correction_order=8).value
    rhs = (2.0 ** s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
           * cmath.exp(log_gamma(1.0 - s)) * zeta_em(1.0 - s).value)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_euler_gamma_against_harmonic_limit():
    n_cut = 10 ** 8
    total = 0.0
    chunk = 1 << 22
    for lo in range(1, n_cut + 1, chunk):
        k = np.arange(lo, min(lo + chunk, n_cut + 1), dtype=np.float64)
        total += float(np.sum(1.0 / k))
    assert abs((total - math.log(n_cut)) - EULER_GAMMA) < 1e-8


# ------------------------------------------------------------- euler product

def test_euler_product_small_limit_exact_rational():
    want = Fraction(4, 3) * Fraction(9, 8) * Fraction(25, 24) * Fraction(49, 48)
    r = euler_product(2.0, 10)
    assert abs(r.value - float(want)) < 1e-14
    assert r.terms_used == 4


def test_euler_product_converges_to_zeta():
    r = euler_product(2.0, 10 ** 4)
    assert abs(r.value - 1.6449340668482264) < 1e-4
    assert r.error_estimate < 2e-4


def test_euler_product_divergence_error():
    with pytest.raises(DivergenceDomainError) as exc:
        euler_product(1.0, 100)
    assert exc.value.abscissa == 1.0
    with pytest.raises(DivergenceDomainError):
        euler_product(complex(0.9, 5.0), 100)


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_series_product_cross_oracle(s):
    assert abs(zeta_em(s).value - euler_product(s, 10 ** 5).value) < 1e-4


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
def test_series_vs_primon_partition_with_tail(s):
    # the truncated Dirichlet sum plus its integral tail agrees to 1e-6
    # even at s=1.5 where the bare truncation error is ~2e-3
    n_cut = 10 ** 6
    direct = partition_direct(primon(), s, n_terms=n_cut).value
    tail = n_cut ** (1.0 - s) / (s - 1.0)
    assert abs(zeta_em(s).value - (direct + tail)) < 1e-6


def test_primon_partition_raw_at_two():
    direct = partition_direct(primon(), 2.0, n_terms=10 ** 6).value
    assert abs(zeta_em(2.0).value - direct) < 2e-6


# ---------------------------------------------------------------- zero table

def test_zero_table_validation():
    with pytest.raises(ValueError):
        ZetaZeroTable((12.0,))          # below the first zero
    with pytest.raises(ValueError):
        ZetaZeroTable((15.0, 14.5))     # descending
    with pytest.raises(ValueError):
        ZetaZeroTable((15.0,), source="guessed")


def test_find_zeros_first_ordinate_against_independent_bisection():
    # independent oracle: golden-section minimization of |zeta(1/2+it)|
    # on [14, 15]; no Hardy function, no theta
    lo, hi = 14.0, 15.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fa, fb = abs(zeta_critical_line(a)), abs(zeta_critical_line(b))
    while hi - lo > 1e-9:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = abs(zeta_critical_line(a))
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = abs(zeta_critical_line(b))
    gamma1_oracle = 0.5 * (lo + hi)
    table = find_zeros(1)
    assert abs(table.ordinates[0] - gamma1_oracle) < 1e-6


def test_find_zeros_ten_ascending_and_verified(zeros100):
    ords = zeros100.ordinates[:10]
    assert len(ords) == 10
    assert all(b > a for a, b in zip(ords, ords[1:]))
    for gamma in ords:
        assert abs(zeta_critical_line(gamma)) < 1e-8


def test_find_zeros_deterministic():
    assert find_zeros(5).ordinates == find_zeros(5).ordinates


def test_find_zeros_window_exhaustion():
    with pytest.raises(WindowExhaustedError) as exc:
        find_zeros(3, t_max=15.0)
    assert exc.value.found == 1
    assert exc.value.t_max == 15.0


def test_hardy_function_is_real_rotation():
    for t in (14.0, 20.0, 33.3):
        w = cmath.exp(complex(0.0, riemann_siegel_theta(t))) * zeta_critical_line(t)
        assert abs(w.imag) < 1e-9 * max(1.0, abs(w))
        assert abs(hardy_z(t) - w.real) == 0.0


# ------------------------------------------------------------------- ingest

def test_ingest_roundtrip(tmp_path, zeros100):
    p = tmp_path / "zeros.txt"
    lines = ["# first five ordinates"]
    lines += [repr(g) for g in zeros100.ordinates[:5]]
    p.write_text("\n".join(lines) + "\n")
    table = ingest_zeros_file(p, verify=True)
    assert table.source == "file"
    assert table.ordinates == zeros100.ordinates[:5]


def test_ingest_rejects_empty_and_disorder(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(ZerosFileError):
        ingest_zeros_file(p)
    p.write_text("21.02\n14.13\n")
    with pytest.raises(ZerosFileError, match=":2"):
        ingest_zeros_file(p)
    p.write_text("14.13\nnot-a-number\n")
    with pytest.raises(ZerosFileError, match=":2"):
        ingest_zeros_file(p)


def test_ingest_verification_catches_fakes(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("15.0\n")  # valid format, not a zero
    ingest_zeros_file(p)    # unverified ingestion accepts it
    with pytest.raises(ZerosFileError):
        ingest_zeros_file(p, verify=True)


# ------------------------------------------------------------------ hadamard

@pytest.mark.parametrize("zero_count", [0, 10, 100])
def test_hadamard_at_zero_is_minus_half(zeros100, zero_count):
    r = hadamard_product(0.0, zeros100, zero_count)
    assert abs(r.value + 0.5) < 1e-12


@pytest.mark.parametrize("beta,bound", [(2.0, 6.5e-3), (3.0, 1.95e-2)])
def test_hadamard_reconstruction_frozen_bounds(zeros100, beta, bound):
    # measured once at zero_count=100 (6.21e-3 at beta=2, 1.85e-2 at
    # beta=3); frozen here with ~5% headroom as regression bounds
    em = zeta_em(beta).value
    errs = [abs(hadamard_product(beta, zeros100, k).value - em) / abs(em)
            for k in (10, 50, 100)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < bound


def test_hadamard_error_estimate_tracks_actual(zeros100):
    em = zeta_em(2.0).value
    r = hadamard_product(2.0, zeros100, 100)
    assert abs(r.value - em) <= 1.2 * r.error_estimate


def test_hadamard_trivial_zero_is_exact_value_not_signal(zeros100):
    r = hadamard_product(-2.0, zeros100, 50)
    assert r.value == 0
    assert r.log_value.real == -math.inf


def test_hadamard_pole_and_zero_hit(zeros100):
    with pytest.raises(PoleError):
        hadamard_product(1.0, zeros100, 10)
    g1 = zeros100.ordinates[0]
    with pytest.raises(ZeroHitSignal) as exc:
        hadamard_product(complex(0.5, g1), zeros100, 10)
    assert exc.value.index == 0
    with pytest.raises(ZeroHitSignal):
        hadamard_product(complex(0.5, -g1), zeros100, 10)


@pytest.mark.parametrize("k", [0, 1, 57, 99])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_hadamard_zero_hit_names_the_ordinate(zeros100, k, sign):
    with pytest.raises(ZeroHitSignal) as exc:
        hadamard_product(complex(0.5, sign * zeros100.ordinates[k]), zeros100, 100)
    assert exc.value.index == k


def test_hadamard_rejects_oversized_count(zeros100):
    with pytest.raises(ValueError):
        hadamard_product(2.0, zeros100, len(zeros100.ordinates) + 1)


# ------------------------------------------------------------ prime side

def test_psi_below_first_prime():
    assert psi_direct(1.9) == 0.0
    assert psi_direct(0.0) == 0.0


def test_psi_at_two():
    assert abs(psi_direct(2.0) - math.log(2.0)) < 1e-15


def test_psi_at_twenty_by_enumeration():
    # prime powers <= 20: 2,4,8,16 (ln2 each), 3,9 (ln3), 5,7,11,13,17,19
    want = (4 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
            + math.log(11) + math.log(13) + math.log(17) + math.log(19))
    assert abs(psi_direct(20.0) - want) < 1e-12


def test_psi_exact_power_boundary():
    # x=8 must include 2^3 despite float-log pitfalls
    assert abs(psi_direct(8.0) - psi_direct(7.9) - math.log(2.0)) < 1e-12


def test_psi_rejects_negative():
    with pytest.raises(ValueError):
        psi_direct(-1.0)


# ------------------------------------------------------- explicit formula

def test_explicit_formula_smooth_part():
    table = ZetaZeroTable((14.134725,))
    want = 20.0 - math.log(2.0 * math.pi) - 0.5 * math.log(1.0 - 1.0 / 400.0)
    r = explicit_formula_psi(20.0, table, 0)
    assert abs(r.value - want) < 1e-12


def test_explicit_formula_converges_to_psi(zeros100):
    pd = psi_direct(20.0)
    err100 = abs(explicit_formula_psi(20.0, zeros100, 100).value.real - pd)
    err10 = abs(explicit_formula_psi(20.0, zeros100, 10).value.real - pd)
    assert err100 < 0.2
    assert err100 < err10


def test_explicit_formula_domain_and_warnings(zeros100):
    with pytest.raises(NumericalDomainError):
        explicit_formula_psi(1.0, zeros100, 10)
    with pytest.raises(ValueError):
        explicit_formula_psi(20.0, zeros100, 101)
    with pytest.warns(DiscontinuityWarning):
        explicit_formula_psi(8.0 + 1e-9, zeros100, 10)
    with pytest.warns(DiscontinuityWarning):
        explicit_formula_psi(13.0, zeros100, 10)
