import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import spectral_zeros
from spectral_zeros.core import (
    EvaluationResult,
    PoleError,
    hurwitz_zeta,
    log_gamma,
    result_from_log,
    scaled_error,
)


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_at_one_is_zero():
    assert abs(log_gamma(1.0)) < 1e-14


def test_log_gamma_at_five_is_log_24():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-14


def test_log_gamma_half_against_integral_oracle():
    # Gamma(1/2) = integral_0^inf t^(-1/2) e^(-t) dt, evaluated independently
    val, est_err = quad(lambda t: math.exp(-t) / math.sqrt(t), 0.0, np.inf)
    assert est_err < 1e-10
    assert abs(log_gamma(0.5) - math.log(val)) < 1e-10
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def _mp_log_gamma(z):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    return complex(mpmath.loggamma(mpmath.mpc(z)))


def test_log_gamma_matches_scipy_to_12_digits_inside_radius_100():
    # the name predates the implementation: log_gamma is scipy's loggamma
    # now, so the oracle is mpmath
    rng = np.random.default_rng(20240811)
    pts = rng.uniform(-100.0, 100.0, size=(2000, 2))
    for x, y in pts:
        z = complex(x, y)
        if x <= 0.5 and abs(y) < 1e-3:
            continue  # hug of the cut / pole line, excluded from the 12-digit claim
        ours = log_gamma(z)
        ref = _mp_log_gamma(z)
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref)), z


def test_log_gamma_principal_branch_between_negative_integers():
    # On (-3, -2) just off the axis, principal branch has |Im| ~ 3*pi
    ref = _mp_log_gamma(complex(-2.5, 0.0))
    assert abs(log_gamma(complex(-2.5, 0.0)) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("n", [0, -1, -2, -17])
def test_log_gamma_pole_at_nonpositive_integers(n):
    with pytest.raises(PoleError) as exc:
        log_gamma(complex(n, 0.0))
    assert exc.value.nearest == n


def test_log_gamma_pole_detection_window():
    with pytest.raises(PoleError):
        log_gamma(complex(-3.0, 1e-13))
    # 1e-10 away is outside the pole window and must evaluate
    assert cmath.isfinite(log_gamma(complex(-3.0, 1e-10)))


def test_log_gamma_of_an_array_is_its_one_node_calls():
    # riemann_siegel_theta takes a whole scan's log Gamma in one call
    z = np.array([0.5, 14.1 + 3j, -2.5 + 0j, 0.25 + 3e5j, -7.5 - 40j])
    assert type(log_gamma(complex(3.0, 1.0))) is complex
    assert log_gamma(z).tolist() == [log_gamma(x) for x in z.tolist()]
    with pytest.raises(PoleError) as exc:
        log_gamma(np.array([1.5, -3.0 + 1e-13j, -1.0]))
    assert exc.value.nearest == -3 and exc.value.location == complex(-3.0, 1e-13)


@given(st.complex_numbers(min_magnitude=0.5, max_magnitude=50.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_log_gamma_recurrence(z):
    if z.real <= 0 and abs(z.imag) < 1e-3:
        return
    lhs = log_gamma(z + 1)
    rhs = log_gamma(z) + cmath.log(z)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@given(st.floats(0.05, 0.95), st.floats(-20.0, 20.0))
@settings(max_examples=200)
def test_log_gamma_reflection_branch_matched(x, y):
    z = complex(x, y)
    lhs = log_gamma(z) + log_gamma(1 - z)
    rhs = cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z))
    d = lhs - rhs
    # identity holds modulo 2*pi*i; remove the integer winding, then compare
    residual = complex(d.real, d.imag - 2 * math.pi * round(d.imag / (2 * math.pi)))
    assert abs(residual) < 1e-10


# ----------------------------------------------------------------- trigamma

def test_trigamma_within_2_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    switch = 32.0  # the recurrence carries x up to here, the series takes over
    xs = [*np.geomspace(1.0, 1e8, 301).tolist(),
          101.0, 201.0, 1001.0,  # psi'(N + 1) of the product kernels' tails
          math.nextafter(switch, 0.0), switch, math.nextafter(switch, 64.0),
          switch - 1.0, switch - 0.5, switch - 0.1, switch + 0.1, switch + 1.0]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.psi(1, mpmath.mpf(x))
            ulps = abs(mpmath.mpf(hurwitz_zeta(2, x)) - ref) / math.ulp(float(ref))
            assert ulps <= 2, (x, float(ulps))


def test_trigamma_is_scipys_at_1001():
    # psi'(1001) is the tail of the default 1000-factor oscillator product,
    # so default scans keep the bytes they had with scipy's polygamma
    from scipy.special import polygamma
    assert hurwitz_zeta(2, 1001.0) == float(polygamma(1, 1001))


# trigamma psi'(x) = hurwitz_zeta(2, x) at its pinned bits, as float.hex
_TRIGAMMA_PINNED = [
    (0.25, '0x1.1328429d927c6p+4'),
    (1.0, '0x1.a51a6625307d3p+0'),
    (1.5, '0x1.de9e64df22ef3p-1'),
    (2.718281828459045, '0x1.c649419eafaf5p-2'),
    (7.0, '0x1.3a75e4ee59d08p-3'),
    (17.3, '0x1.e779aa29a3e7dp-5'),
    (31.0, '0x1.0c90ecbb22c5bp-5'),
    (31.999999999999996, '0x1.040aaa223a7b2p-5'),
    (32.0, '0x1.040aaa223a7b2p-5'),
    (33.5, '0x1.f07265f58e37ap-6'),
    (101.0, '0x1.460c0c34527b3p-7'),
    (201.0, '0x1.46dcb6dde9178p-8'),
    (1001.0, '0x1.0603521cdb264p-10'),
    (4097.25, '0x1.ffe800f54dd57p-13'),
    (100001.0, '0x1.4f8aea9acf2cap-17'),
    (100000000.0, '0x1.5798ee3fdb763p-27'),
]


@pytest.mark.parametrize("x, bits", _TRIGAMMA_PINNED)
def test_trigamma_keeps_its_bits(x, bits):
    # the Hadamard and oscillator tails, and so the scan files, depend on them
    assert hurwitz_zeta(2, x) == float.fromhex(bits)


def test_hurwitz_zeta_within_3_ulp_of_mpmath():
    # every s of the oscillator's far-factor series (2j, j <= 31) and the odd
    # s between, at x where each shift x + k of the recurrence is exact: the
    # integers the kernel uses, and eighths.  (A shift that rounds costs up
    # to s/2 ulp.)  mpmath.zeta(s, x) loses about s log10(x) digits, so the
    # working precision grows with them.
    mpmath = pytest.importorskip("mpmath")
    grid = np.geomspace(1.0, 1e6, 21)
    xs = sorted({*np.rint(grid).tolist(), *(np.rint(8.0 * grid) / 8.0).tolist(),
                 31.0, 32.0, 61.0, 62.0, 63.0, 1001.0, 1025.0, 100001.0})
    for s in range(2, 63):
        for x in xs:
            with mpmath.workdps(30 + int(s * math.log10(x + 1.0))):
                ref = mpmath.zeta(s, mpmath.mpf(x))
                if ref < 2.0 ** -1022:     # below the normal floats
                    continue
                ulps = abs(mpmath.mpf(hurwitz_zeta(s, x)) - ref) / math.ulp(float(ref))
            assert ulps <= 3, (s, x, float(ulps))


def test_hurwitz_zeta_is_trigamma_at_s_2_and_rejects_bad_input():
    for x, bits in _TRIGAMMA_PINNED:
        assert hurwitz_zeta(2, x) == float.fromhex(bits)
    for s, x in ((1, 2.0), (2.5, 2.0), (4, 0.0), (4, -1.5), (4, math.nan)):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, x)


# ------------------------------------------------------------------ results

def test_result_exp_log_consistency():
    # a winding log: its imaginary part is ~9, far past pi
    r = result_from_log(50 * cmath.log(complex(1.1, 0.2)))
    assert r.log_value.imag > math.pi
    assert abs(cmath.exp(r.log_value) - r.value) <= 1e-12 * abs(r.value)


def test_result_from_log_overflow_guard():
    r = result_from_log(complex(800.0, 1.0))
    assert r.value.real == math.inf
    assert r.log_value == complex(800.0, 1.0)


_LOG_DBL_MAX = math.log(np.finfo(float).max)       # 709.78...


@pytest.mark.parametrize("log_value, value", [
    # exp is finite up to log(DBL_MAX) = 709.78: log Z of
    # test_qnm.py::test_conjectured_product_finite_up_to_log_dbl_max
    (complex(709.6016737502742, 0.0), cmath.exp(709.6016737502742)),
    (complex(math.nextafter(_LOG_DBL_MAX, 0.0), 0.5), cmath.exp(
        complex(math.nextafter(_LOG_DBL_MAX, 0.0), 0.5))),
    # just past it the value overflows and its phase is dropped
    (complex(math.nextafter(_LOG_DBL_MAX, 800.0), 0.0), complex(math.inf, 0.0)),
    # unless the phase keeps both parts finite: |cos 2|, |sin 2| < 0.91
    (complex(709.79, -2.0), cmath.exp(complex(709.79, -2.0))),
    # an infinite log keeps no phase either (cmath.exp would give -inf+infj);
    # conjectured_partition_log(1e308 - 1.7e308j) over the mode 1 returns it
    (complex(math.inf, math.pi), complex(math.inf, 0.0)),
], ids=["709.60", "below_log_dbl_max", "past_log_dbl_max", "past_it_with_finite_parts",
        "infinite_log_with_a_phase"])
def test_result_from_log_is_finite_up_to_log_dbl_max(log_value, value):
    r = result_from_log(log_value)
    assert r.value == value and r.log_value == log_value


def test_result_from_log_rejects_nan():
    with pytest.raises(OverflowError):
        result_from_log(complex(math.nan, 0.0))


def test_scaled_error_never_forms_zero_times_inf():
    # |Z| underflows while the error is beyond the float range: 0, not NaN;
    # inf - inf, as at a pole with a vanishing error, gives inf
    with np.errstate(invalid="ignore"):
        got = scaled_error(np.array([-1e300, 0.0, math.inf]),
                           np.array([1e3, math.log(2.0), -math.inf]))
    assert got.tolist() == [0.0, 2.0, math.inf]


def test_result_rejects_negative_error_estimate():
    with pytest.raises(ValueError):
        EvaluationResult(value=1 + 0j, log_value=0j, error_estimate=-1.0, terms_used=0)
    with pytest.raises(ValueError):
        EvaluationResult(value=1 + 0j, log_value=0j, error_estimate=float("nan"), terms_used=0)


# --------------------------------------------------------------- invariants

def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_never_imports_mpmath():
    # mpmath is an oracle for the tests and the data scripts only.  Of scipy
    # the library takes scipy.special alone, for loggamma, imported inside
    # core.log_gamma, which zeta.riemann_siegel_theta calls, and nowhere
    # else, so that no scan loads it: importing scipy.special costs ~0.3 s
    # and ~20 MB, and scipy.optimize a further ~130 ms (lazily imported, it
    # pushed zeta_zeros peak RSS from 56.8 to 79.2 MB).  The AST walk sees
    # function-level imports too.  "from scipy import x" names the module
    # "scipy".
    package = Path(spectral_zeros.__file__).parent
    offenders = [(path.name, module) for path in sorted(package.glob("*.py"))
                 for module in _imported_modules(path)
                 if module.split(".")[0] == "mpmath"
                 or module.split(".")[0] == "scipy"
                 and (path.name, module) != ("core.py", "scipy.special")]
    assert offenders == []


def test_only_scan_cli_writes_flags():
    # a kernel signals a pole or a zero as an infinite log Z, and grid_scan
    # alone turns that into a flag: no other library module spells one, and
    # only core, where it is defined, and scan_cli name EXP_UNDERFLOW
    package = Path(spectral_zeros.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (path.name != "scan_cli.py" and isinstance(node, ast.Constant)
                    and node.value in ("zero", "pole")):
                offenders.append((path.name, node.value))
            # a Name's id, an Attribute's attr, an import alias's name
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name == "EXP_UNDERFLOW" and path.name not in ("core.py", "scan_cli.py"):
                offenders.append((path.name, name))
    assert offenders == []


def _is_exp_of_a_log(node):
    """True for a call cmath.exp(x) whose argument is a name beginning with log."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cmath" and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id.startswith("log"))


def test_only_core_turns_a_log_into_a_value():
    # result_from_log is the one rule from log Z to Z: 0 for Re log Z = -inf,
    # inf past log(DBL_MAX), OverflowError for NaN.  A cmath.exp of a log
    # elsewhere is a second rule, which raised OverflowError for a finite
    # log Z past 709.78 or stood beside a private flush to 0
    package = Path(spectral_zeros.__file__).parent
    offenders = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
                 if path.name != "core.py"
                 for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                 if _is_exp_of_a_log(node)]
    assert offenders == []
