import ast
import cmath
import math
import time
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_zeros import spectra, zeta
from spectral_zeros.core import (
    AccuracyWarning,
    DivergenceDomainError,
    NumericalDomainError,
    PoleError,
    ZeroHitSignal,
    integer_powers,
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
    hardy_z_array,
    ingest_zeros_file,
    psi_direct,
    riemann_siegel_theta,
    riemann_siegel_z,
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


def test_only_em_bracket_reads_the_bernoulli_table():
    # zeta_em and hardy_z_array take their Euler-Maclaurin tail from
    # _em_bracket: a second reader of EVEN_BERNOULLI in zeta.py would be a
    # second copy of the corrections
    tree = ast.parse(Path(zeta.__file__).read_text())
    readers = {getattr(node, "name", type(node).__name__) for node in tree.body
               if any(isinstance(n, ast.Name) and n.id == "EVEN_BERNOULLI"
                      for n in ast.walk(node))}
    assert readers == {"_em_bracket"}


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


def test_zeta_em_warns_outside_validated_window():
    with pytest.warns(AccuracyWarning):
        zeta_em(complex(0.5, 60.0), cutoff=100)
    with pytest.warns(AccuracyWarning):
        zeta_em(-6.0)


@pytest.mark.parametrize("s", [1e30, 1e40, 1e150, complex(1e300, 3.0)])
def test_zeta_em_far_right_is_one_with_a_finite_estimate(s):
    # N^{-s-2k+1} underflows to 0 while the rising factorial overflows:
    # their product, 0 * inf, made the estimate (and from ~1e40 the sum) NaN
    r = zeta_em(s)
    assert r.value == 1 and r.error_estimate == 0.0


def test_zeta_em_internal_consistency_high_on_the_line():
    # same point, very different truncations
    a = zeta_em(complex(0.5, 50.0), cutoff=150).value
    b = zeta_em(complex(0.5, 50.0), cutoff=400).value
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("s", [-1.5, -2.5])
def test_zeta_em_reflection_formula(s):
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s); left of 0
    # a small cutoff sidesteps the cancellation in the partial sum (the
    # sub-50 cutoff is outside the advertised window, hence the warning)
    with pytest.warns(AccuracyWarning):
        lhs = zeta_em(s, cutoff=24).value
    rhs = (2.0 ** s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0)
           * cmath.exp(log_gamma(1.0 - s)) * zeta_em(1.0 - s).value)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def _numpy_powers(s, start, stop):
    """The terms n^-s as zeta_em and the primon partition_direct formed
    them before the ln n table: numpy's power, one complex log per term."""
    return np.arange(start, stop, dtype=np.float64) ** (-complex(s))


# real integer exponents, where numpy's power multiplies, and cutoffs past
# the n where float64 np.log is an ulp off and past the table
_INTEGER_S = st.sampled_from([2.0, 3.0, -2.0, 0.0, -5.0, 7.0])
_PAST_TABLE = st.sampled_from([9171, 9172, 19144, 94870, 102328, 2 ** 17, 2 ** 17 + 1,
                               2 ** 17 + 2, 140_000])


@given(st.one_of(_INTEGER_S, st.builds(complex, st.floats(-6.0, 8.0),
                                       st.floats(-6e4, 6e4))),
       st.one_of(st.integers(10, 3000), _PAST_TABLE))
@example(3.0, 9171).via("a real integer s whose sum numpy's exp misses")
@example(2.0, 2 ** 17 + 1)
@example(-2.0, 19144)
@example(0.0, 102328)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_zeta_em_keeps_the_bits_of_numpys_power(s, cutoff):
    assume(abs(s - 1.0) >= 1e-12)
    terms = integer_powers(s, 1, cutoff)
    oracle = np.arange(1.0, cutoff) ** (-complex(s))
    assert np.array_equal(terms.view(np.uint64), oracle.view(np.uint64))
    assert repr(np.sum(terms)) == repr(np.sum(oracle))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        got = zeta_em(s, cutoff)
        with mock.patch.object(zeta, "integer_powers", _numpy_powers):
            assert repr(got) == repr(zeta_em(s, cutoff))


@given(st.one_of(_INTEGER_S.filter(lambda s: s > 1),
                 st.builds(complex, st.floats(1.01, 8.0), st.floats(-1e3, 1e3))),
       st.one_of(st.integers(1, 3000), _PAST_TABLE, st.just(300_000)))
@example(3.0, 10).via("a real integer beta whose sum numpy's exp misses")
@settings(max_examples=60, deadline=None, derandomize=True)
def test_primon_partition_keeps_the_bits_of_numpys_power(beta, n_terms):
    got = partition_direct(primon(), beta, n_terms)
    with mock.patch.object(spectra, "integer_powers", _numpy_powers):
        assert repr(got) == repr(partition_direct(primon(), beta, n_terms))


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


def test_euler_product_matches_mpmath_over_the_same_primes():
    # log Z = -sum log(1 - p^-s) at 30 digits over the 1229 primes below
    # 1e4, sieved here; the complex logs it replaced came to 4.3e-15
    mpmath = pytest.importorskip("mpmath")
    limit = 10 ** 4
    composite = set()
    primes = []
    for n in range(2, limit + 1):
        if n not in composite:
            primes.append(n)
            composite.update(range(n * n, limit + 1, n))
    rng = np.random.default_rng(2024)
    points = [complex(re, im) for re, im in zip(rng.uniform(1.01, 4.0, 40),
                                                rng.uniform(-50.0, 50.0, 40))]
    with mpmath.workdps(30):
        for s in points + [1.01, 4.0 + 50j, 2.0]:
            ms = mpmath.mpc(s.real, s.imag)
            want = -mpmath.fsum(mpmath.log(1 - mpmath.power(p, -ms)) for p in primes)
            r = euler_product(s, limit)
            assert r.terms_used == len(primes)
            assert abs(r.log_value - complex(want)) <= 1e-14, s


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
    with pytest.raises(ValueError, match="not finite"):
        ZetaZeroTable((15.0, math.inf))


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


def test_find_zeros_window_exhaustion(monkeypatch):
    monkeypatch.setattr(zeta, "_estimated_window", lambda count: 15.0)
    with pytest.raises(WindowExhaustedError) as exc:
        find_zeros(3)
    assert exc.value.found == 1
    assert exc.value.t_max == 15.0


def test_find_zeros_refuses_a_window_past_the_validated_margin():
    # 10^8 zeros would scan t < 5.7e7: 2.3e8 nodes, 1.8 GB per temporary.
    # The window passes _RS_T_MAX = 6e4 first at count 59,714
    assert zeta._estimated_window(59713) < zeta._RS_T_MAX < zeta._estimated_window(59714)
    start = time.perf_counter()
    with pytest.raises(NumericalDomainError) as exc:
        find_zeros(10 ** 8)
    assert time.perf_counter() - start < 1.0
    message = str(exc.value)
    assert "\n" not in message
    assert all(part in message for part in ("count 100000000", "t < 5.73513e+07", "60000"))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["from_below", "from_above"])
def test_find_zeros_reports_a_zero_on_a_scan_node_once(monkeypatch, sign):
    # zeros at 15.0, which is the scan node 2 + 52 * 0.25, and at 16.1,
    # between nodes; sign picks the side the scan runs into the node from
    monkeypatch.setattr(zeta, "hardy_z_array", lambda t: sign * (15.0 - t) * (t - 16.1))
    monkeypatch.setattr(zeta, "zeta_critical_line", lambda t: 0j)
    table = find_zeros(2)
    assert table.ordinates[0] == 15.0
    assert abs(table.ordinates[1] - 16.1) < 1e-9


def _hardy_rounding_bound(t):
    # the bound stated in hardy_z_array's docstring
    cutoff = max(100, math.ceil(2.0 * abs(t) + 50.0))
    root_sum = float(np.sum(np.arange(1.0, cutoff + 1.0) ** -0.5))
    phase_scale = 3.0 * abs(riemann_siegel_theta(t)) + 9.0 * abs(t) * math.log(cutoff)
    return 2.0 ** -52 * phase_scale * root_sum


def test_hardy_function_is_real_rotation():
    for t in (14.0, 20.0, 33.3):
        w = cmath.exp(complex(0.0, riemann_siegel_theta(t))) * zeta_critical_line(t)
        assert abs(w.imag) < 1e-9 * max(1.0, abs(w))
        assert abs(hardy_z(t) - w.real) <= _hardy_rounding_bound(t)


# mpmath 1.3.0 zetazero at dps 30, generated by perfbench/gen_reference.py
_MPMATH_ZEROS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "zeta_zeros_1000.txt"
_REFERENCE_ZEROS = [float(line) for line in _MPMATH_ZEROS.read_text().splitlines()
                    if line and not line.startswith("#")]


def _find_zeros_em_only(count):
    # find_zeros as one sequential scan + bisection on hardy_z, no Riemann-Siegel
    found = []
    t = 2.0
    z_prev = hardy_z(t)
    while len(found) < count:
        t_next = t + 0.25
        z_next = hardy_z(t_next)
        if z_prev == 0.0:
            found.append(t)
        elif z_next != 0.0 and (z_prev < 0) != (z_next < 0):
            lo, hi = t, t_next
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                zm = hardy_z(mid)
                if zm == 0.0 or (zm < 0) != (z_prev < 0):
                    hi = mid
                else:
                    lo = mid
            found.append(0.5 * (lo + hi))
        t, z_prev = t_next, z_next
    return tuple(found)


def test_find_zeros_matches_the_em_only_scan_across_t_rs():
    # gamma_80 = 201.26 is the first zero above 200, where Riemann-Siegel
    # starts; the scan windows of 1, 2, 5 and 40 zeros end below 200 (at
    # 171.7 for 40), those of 79, 80 and 150 past it
    em_only = _find_zeros_em_only(150)
    for n in (1, 2, 5, 40, 79, 80, 150):
        assert find_zeros(n).ordinates == em_only[:n], n


def test_estimated_window_covers_the_count():
    # the count-th zero's bracket ends below the window; the smallest
    # window / gamma_n ratio is 1.20, at n = 922
    windows = np.array([zeta._estimated_window(n) for n in range(1, 1001)])
    assert np.all(windows > np.array(_REFERENCE_ZEROS) + zeta._SCAN_STEP)


@pytest.fixture(scope="module")
def scan_1000():
    # one 1000-zero scan (about 0.5 s) for the mpmath comparisons and the count
    # of Euler-Maclaurin nodes; hardy_z_array is wrapped as find_zeros looks it
    # up, by module attribute
    nodes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeta, "hardy_z_array", lambda t: nodes.append(t.size) or hardy_z_array(t))
        ordinates = find_zeros(1000).ordinates
    return ordinates, sum(nodes)


@pytest.fixture(scope="module")
def scanned_vs_mpmath(scan_1000):
    assert len(_REFERENCE_ZEROS) == 1000
    return scan_1000[0], _REFERENCE_ZEROS


def test_find_zeros_1000_keeps_the_fast_path(scan_1000):
    # Euler-Maclaurin alone takes 33,681 Hardy-Z nodes; Riemann-Siegel about 3,400
    assert scan_1000[1] <= 6000


def test_find_zeros_matches_mpmath_through_921(scanned_vs_mpmath):
    scanned, reference = scanned_vs_mpmath
    assert max(abs(a - b) for a, b in zip(scanned[:921], reference[:921])) < 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: gamma_922 and gamma_923 share one "
                   "0.25 scan cell, so both are skipped and every later index shifts by two")
def test_find_zeros_matches_mpmath_through_1000(scanned_vs_mpmath):
    scanned, reference = scanned_vs_mpmath
    assert [k for k, (a, b) in enumerate(zip(scanned, reference)) if not abs(a - b) < 1e-8] == []


# ---------------------------------------------------------- riemann-siegel

def test_riemann_siegel_z_matches_mpmath_within_the_margin():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    t = np.concatenate([[200.0, 1500.0, 2000.0, 5000.0, 1e4, 2.5e4, 6e4],
                        np.random.default_rng(9).uniform(200.0, 1500.0, 40)])
    oracle = np.array([float(mpmath.siegelz(x)) for x in t])
    assert np.all(np.abs(riemann_siegel_z(t) - oracle) < zeta._rs_margin(t))


def test_riemann_siegel_decides_no_sign_below_200(monkeypatch):
    # Gabcke's remainder bound, the first term of _rs_margin, holds from
    # t = 200 on; below it every sign is hardy_z's
    seen = []
    monkeypatch.setattr(zeta, "riemann_siegel_z",
                        lambda t: seen.append(t.copy()) or riemann_siegel_z(t))
    find_zeros(100)
    seen = np.concatenate(seen)
    assert seen.size and seen.min() >= 200.0


def test_riemann_siegel_theta_is_one_formula_for_floats_and_arrays():
    t = np.array([0.5, 14.1, 200.0, 1329.1, 1e6])
    assert riemann_siegel_theta(t).tolist() == [riemann_siegel_theta(x) for x in t.tolist()]
    assert riemann_siegel_theta(14.1) == log_gamma(complex(0.25, 7.05)).imag - 7.05 * math.log(math.pi)


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(
    st.floats(200.0, 1500.0),
    # the zeros, where |Z| is near the margin and the sign goes to hardy_z
    st.builds(lambda k, dt: _REFERENCE_ZEROS[k] + dt, st.integers(79, 999),
              st.floats(-1e-9, 1e-9))))
def test_riemann_siegel_certified_sign_is_the_sign_of_hardy_z(t):
    assert np.sign(zeta._hardy_sign(np.array([t]))[0]) == np.sign(hardy_z(t))


def test_riemann_siegel_corrections_match_edwards():
    # Edwards' combinations (Riemann's Zeta Function, sec. 7.4) of mpmath's
    # derivatives of Psi at points, with no Cauchy sum, against the C_k that
    # riemann_siegel_z evaluates
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    pi2 = mpmath.pi ** 2

    def psi(p):
        return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) / mpmath.cos(2 * mpmath.pi * p)

    for p in (0.02, 0.13, 0.37, 0.5, 0.61, 0.88, 0.999):
        d = list(mpmath.diffs(psi, mpmath.mpf(p), 12))
        edwards = [
            d[0],
            -d[3] / (96 * pi2),
            d[2] / (64 * pi2) + d[6] / (18432 * pi2 ** 2),
            -d[1] / (64 * pi2) - d[5] / (3840 * pi2 ** 2) - d[9] / (5308416 * pi2 ** 3),
            d[0] / (128 * pi2) + 19 * d[4] / (24576 * pi2 ** 2) + 11 * d[8] / (5898240 * pi2 ** 3)
            + d[12] / (2038431744 * pi2 ** 4),
        ]
        x = p - 0.5
        for k, (c, oracle) in enumerate(zip(zeta._RS_CORRECTIONS, edwards)):
            c_k = x ** (k % 2) * np.polynomial.polynomial.polyval(x * x, c)
            assert abs(c_k - float(oracle)) < 1e-15, (p, k)


# ------------------------------------------------------------------ hardy z

def test_hardy_z_array_within_its_rounding_bound_against_mpmath():
    # 40 log-spaced heights on [2, 6e4] and every 50th reference zero, where
    # Z changes sign; the largest error on [2, 1500] was 2.0e-12
    mpmath = pytest.importorskip("mpmath")
    t = np.concatenate([np.geomspace(2.0, 6e4, 40), _REFERENCE_ZEROS[::50]])
    with mpmath.workdps(30):
        oracle = np.array([float(mpmath.siegelz(x)) for x in t.tolist()])
    bound = np.array([_hardy_rounding_bound(x) for x in t.tolist()])
    assert np.all(np.abs(hardy_z_array(t) - oracle) <= bound)


def _near_pad_boundary(m, dt):
    # t = 32 m - 24.75 has cutoff 64 m + 1, whose 64 m head terms fill the
    # padded row exactly; dt in [-0.5, 0.5] spans cutoffs 64 m to 64 m + 2,
    # on both sides of the step to the next padded width
    return 32.0 * m - 24.75 + dt


_HARDY_NODES = st.one_of(
    st.floats(2.0, 200.0),
    st.builds(_near_pad_boundary, st.integers(2, 1875), st.floats(-0.5, 0.5)),
    st.floats(200.0, 6e4))


def _riemann_siegel_one_node(t):
    return float(riemann_siegel_z(np.array([t]))[0])


# both sum their phases in _cosine_sums, rows padded per node (64 and 8 terms)
@pytest.mark.parametrize("evaluate, one_node, nodes", [
    (hardy_z_array, hardy_z, _HARDY_NODES),
    (riemann_siegel_z, _riemann_siegel_one_node, st.floats(200.0, 6e4))],
    ids=["hardy_z_array", "riemann_siegel_z"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hardy_z_node_is_its_one_node_call(evaluate, one_node, nodes, data):
    t = np.array(data.draw(st.lists(nodes, min_size=1, max_size=8)))
    z = evaluate(t)
    assert z.tolist() == [one_node(x) for x in t.tolist()]
    order = np.array(data.draw(st.permutations(range(t.size))))
    assert evaluate(np.concatenate([t[order], t])).tolist() == z[order].tolist() + z.tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
def test_hardy_z_rejects_a_non_finite_t(bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        hardy_z(bad)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        hardy_z_array(np.array([14.0, bad, 20.0]))


# ------------------------------------------------------------------- ingest

def test_ingest_roundtrip(tmp_path, zeros100):
    p = tmp_path / "zeros.txt"
    lines = ["# first five ordinates"]
    lines += [repr(g) for g in zeros100.ordinates[:5]]
    p.write_text("\n".join(lines) + "\n")
    table = ingest_zeros_file(p, verify=True)
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the estimate is formed from the "
                   "truncated product's own |Z|, which 10 zeros collapse far right of the strip")
@pytest.mark.parametrize("beta", [100.0, 1e150])
def test_hadamard_error_estimate_bounds_the_error_far_right(zeros100, beta):
    # zeta(beta) = 1 to double precision for beta >= 100 (2^-100 ~ 8e-31)
    r = hadamard_product(beta, zeros100, 10)
    assert abs(r.value - 1.0) <= r.error_estimate


def test_hadamard_rejects_oversized_count(zeros100):
    with pytest.raises(ValueError):
        hadamard_product(2.0, zeros100, len(zeros100.ordinates) + 1)


@pytest.mark.parametrize("zero_count, message", [
    (-1, "zero_count must be >= 0, got -1"),
    (101, "zero_count=101 exceeds table size 100"),
])
@pytest.mark.parametrize("route", [
    lambda zeros, k: zeta.hadamard_product_array(np.array([2.0 + 0j]), zeros, k),
    lambda zeros, k: explicit_formula_psi(20.5, zeros, k),
], ids=["hadamard_product_array", "explicit_formula_psi"])
def test_zero_count_out_of_range_names_its_bound(zeros100, route, zero_count, message):
    with pytest.raises(ValueError) as exc:
        route(zeros100, zero_count)
    assert str(exc.value) == message


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
