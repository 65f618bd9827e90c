import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spectral_zeros import scan_cli, zeta
from spectral_zeros.core import (
    EXP_UNDERFLOW,
    TWO_PI,
    EvaluationResult,
    PoleError,
    PoleHitSignal,
    ZeroFactorSignal,
    ZeroHitSignal,
)
from spectral_zeros.product_forms import pole_product_oscillator
from spectral_zeros.qnm import (
    QNMSpectrum,
    conjectured_partition_log,
    qnm_to_json,
    synthetic_affine_tower,
)
from spectral_zeros.scan_cli import (
    GridScan,
    cli_dispatch,
    grid_scan,
    locate_poles,
    locate_zeros,
    make_evaluator,
    write_csv,
    write_json,
    write_pgm,
)
from spectral_zeros.spectra import closed_form_oscillator
from spectral_zeros.zeta import (
    ZetaZeroTable,
    _adaptive_cutoff,
    find_zeros,
    hadamard_product,
    zeta_em,
)


def test_nodes_match_direct_evaluation():
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 0.5, 1.5), (5, 4))
    re_axis, im_axis = scan.axes()
    assert scan.log_abs.shape == scan.arg.shape == scan.flags.shape == (20,)
    for idx in range(20):
        row, col = divmod(idx, 5)
        z = complex(re_axis[col], im_axis[row])
        want = cmath.log(closed_form_oscillator(z, 1.0).value)
        assert scan.flags[idx] == ""
        assert abs(scan.log_abs[idx] - want.real) < 1e-13
        assert abs(scan.arg[idx] - want.imag) < 1e-13


def test_pole_location_near_first_lattice_point():
    # closed form has its pole at 2 pi i; resolution leaves no flags, so
    # the locator falls back to the strict local maximum of log|Z|
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 5.5, 7.1), (64, 64))
    poles = locate_poles(scan)
    assert len(poles) == 1
    cell_re, cell_im = 1.0 / 63, 1.6 / 63
    assert abs(poles[0].real - 0.0) <= cell_re + 1e-12
    assert abs(poles[0].imag - TWO_PI) <= cell_im + 1e-12


def test_exact_lattice_node_is_flagged():
    # the top grid row sits exactly on im = 2 pi, so that node is a pole hit
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 6.0, TWO_PI), (3, 2))
    assert scan.flag_count("pole") == 1
    assert locate_poles(scan) == [complex(0.0, TWO_PI)]


def test_zeta_scan_dips_at_the_first_two_ordinates():
    scan = grid_scan("zeta_em", (0.0, 1.0, 10.0, 30.0), (64, 128))
    assert scan.flag_count("pole") == 0
    dips = locate_zeros(scan)
    cell = math.hypot(1.0 / 63, 20.0 / 127)
    for gamma in (14.134725141734694, 21.022039638771555):
        assert any(abs(z - complex(0.5, gamma)) < cell for z in dips)


def test_qnm_scan_flags_all_and_only_the_modes():
    spec = QNMSpectrum(modes=(0.25 - 0.25j, -0.5 - 0.5j, 0.75 + 0.5j),
                       temperature=1.0)
    scan = grid_scan("qnm_conjectured", (-1.0, 1.0, -1.0, 1.0), (9, 9),
                     params={"spectrum": spec})
    assert scan.flag_count("zero") == 3
    assert scan.flag_count("pole") == 0
    assert sorted(locate_zeros(scan), key=lambda z: (z.real, z.imag)) == \
        sorted(spec.modes, key=lambda z: (z.real, z.imag))


def _node(scan, index):
    """Location of node index: row index // cols of the imaginary axis,
    column index % cols of the real axis."""
    re_axis, im_axis = scan.axes()
    row, col = divmod(index, scan.resolution[0])
    return complex(re_axis[col], im_axis[row])


def test_zero_locus_minimum_within_one_cell():
    # off-grid mode: no flags, minimum of Re log Z still lands in its cell
    mode = 0.3012 - 0.7034j
    spec = QNMSpectrum(modes=(mode,), temperature=1.0)
    scan = grid_scan("qnm_conjectured", (0.27, 0.33, -0.73, -0.67), (7, 7),
                     params={"spectrum": spec})
    assert scan.flag_count("zero") == 0
    z = _node(scan, int(np.argmin(scan.log_abs)))
    assert abs(z.real - mode.real) <= 0.0101
    assert abs(z.imag - mode.imag) <= 0.0101


def test_value_zero_is_flagged_as_zero():
    # trivial zero of zeta at -2 returns value 0 rather than a signal
    zeros = find_zeros(10)
    scan = grid_scan("zeta_hadamard", (-3.0, -1.0, -0.5, 0.5), (3, 3),
                     params={"zeros": zeros, "zero_count": 10})
    assert scan.flag_count("zero") == 1
    assert locate_zeros(scan) == [complex(-2.0, 0.0)]


LOG_CLAMP = 745.0


def _contract_node(fn, z):
    """Reference scan contract, applied to one call of a scalar library
    function: pole and zero signals and an exact zero value become flags,
    a non-finite log is a pole, log|Z| is clamped to +-745 and arg is the
    principal value.  Every array evaluator must keep it at every node."""
    try:
        r = fn(z)
    except (PoleError, PoleHitSignal):
        return LOG_CLAMP, 0.0, "pole"
    except (ZeroHitSignal, ZeroFactorSignal):
        return -LOG_CLAMP, 0.0, "zero"
    if isinstance(r, EvaluationResult):
        if r.value == 0:
            return -LOG_CLAMP, 0.0, "zero"
        log_v = r.log_value
    else:
        v = complex(r)
        if v == 0:
            return -LOG_CLAMP, 0.0, "zero"
        log_v = cmath.log(v)
    la, ph = float(log_v.real), float(log_v.imag)
    if not (math.isfinite(la) and math.isfinite(ph)):
        return LOG_CLAMP, 0.0, "pole"
    return min(max(la, -LOG_CLAMP), LOG_CLAMP), math.remainder(ph, TWO_PI), ""


def _kernel_node(log_v):
    """The scan contract applied to one log Z of an array evaluator: Re log Z
    below EXP_UNDERFLOW is a zero, any other non-finite log Z a pole."""
    log_v = complex(log_v)
    if log_v.real < EXP_UNDERFLOW:
        return -LOG_CLAMP, 0.0, "zero"
    if not cmath.isfinite(log_v):
        return LOG_CLAMP, 0.0, "pole"
    return min(max(log_v.real, -LOG_CLAMP), LOG_CLAMP), math.remainder(log_v.imag, TWO_PI), ""


def _assert_node_matches(got, want, z, scale=None):
    """Same flag; log|Z| and arg (mod 2 pi) within 1e-13 max(1, scale),
    scale |log|Z|| unless given; arg principal."""
    (la, ph, flag), (want_la, want_ph, want_flag) = got, want
    assert flag == want_flag, (z, got, want)
    assert -math.pi <= ph <= math.pi, (z, got)
    tol = 1e-13 * max(1.0, abs(want_la) if scale is None else scale)
    assert abs(la - want_la) <= tol, (z, got, want)
    assert abs(math.remainder(ph - want_ph, TWO_PI)) <= tol, (z, got, want)


def _assert_scan_matches_scalar(evaluator, region, resolution, params, scalar):
    scan = grid_scan(evaluator, region, resolution, params)
    re_axis, im_axis = scan.axes()
    cols, _ = resolution
    for idx in range(scan.log_abs.size):
        row, col = divmod(idx, cols)
        z = complex(re_axis[col], im_axis[row])
        got = (float(scan.log_abs[idx]), float(scan.arg[idx]), str(scan.flags[idx]))
        _assert_node_matches(got, _contract_node(scalar, z), z)
    return scan


def test_hadamard_evaluator_matches_library_call():
    zeros = find_zeros(10)
    fn = make_evaluator("zeta_hadamard", zeros=zeros, zero_count=10)
    node = _kernel_node(fn(np.array([2.0 + 0.5j]))[0])
    _assert_node_matches(node, _contract_node(lambda z: hadamard_product(z, zeros, 10),
                                              2.0 + 0.5j), 2.0 + 0.5j)


def test_unknown_evaluator_and_leftover_params():
    with pytest.raises(ValueError):
        make_evaluator("bogus")
    with pytest.raises(ValueError):
        make_evaluator("oscillator_closed", e0=1.0, cutoff=50)
    with pytest.raises(ValueError):
        make_evaluator("qnm_conjectured")


def test_rejected_parameters_cost_no_setup(monkeypatch):
    def spy_find_zeros(*args, **kwargs):
        raise AssertionError("find_zeros ran before the parameters were checked")
    monkeypatch.setattr(scan_cli, "find_zeros", spy_find_zeros)
    with pytest.raises(ValueError, match=r"unexpected parameters for zeta_hadamard: \['cutoff'\]"):
        make_evaluator("zeta_hadamard", zero_count=600, cutoff=5)


@pytest.mark.parametrize("zero_count", [0, -1])
def test_a_zero_count_below_1_finds_no_zeros(monkeypatch, capsys, zero_count):
    # a count of 0 uses no zeros and -1 is rejected: neither needs the 100
    # zeros find_zeros would locate, nor the scipy import that comes with them
    def spy_find_zeros(*args, **kwargs):
        raise AssertionError("find_zeros ran for a zero count below 1")
    monkeypatch.setattr(scan_cli, "find_zeros", spy_find_zeros)
    count = str(zero_count)
    for argv in (["zeta", "compare", "--zero-count", count],
                 ["zeta", "explicit", "--x", "20", "--zero-count", count]):
        assert cli_dispatch(argv) == (0 if zero_count == 0 else 2), argv
    err = capsys.readouterr().err
    assert err == ("" if zero_count == 0 else "error: zero_count must be >= 0, got -1\n" * 2)
    fn = make_evaluator("zeta_hadamard", zero_count=zero_count)
    if zero_count < 0:
        with pytest.raises(ValueError, match="zero_count must be >= 0, got -1"):
            fn(np.array([2.0 + 0.5j]))
    else:
        # no zero factor: the value any table gives at count 0
        assert fn(np.array([2.0 + 0.5j])) == \
            make_evaluator("zeta_hadamard", zeros=_TWO_ZEROS, zero_count=0)(np.array([2.0 + 0.5j]))


@pytest.mark.parametrize("name, library_fn, params", [
    # the oscillator closed form is the affine kernel at offset E0/2, gap E0
    ("oscillator_closed", "closed_form_affine", {"e0": 2.0}),
    ("oscillator_product", "pole_product_oscillator", {"n_factors": 10}),
    ("zeta_em", "zeta_em", {"cutoff": 60}),
    ("zeta_hadamard", "hadamard_product", {"zero_count": 3}),
    ("qnm_conjectured", "conjectured_partition_log",
     {"spectrum": QNMSpectrum(modes=(1.0 - 1j,), temperature=1.0)}),
])
def test_evaluators_look_up_library_functions_at_call_time(monkeypatch, name,
                                                           library_fn, params):
    # each evaluator calls the array kernel of a library function, named with
    # an _array suffix; tracing and call counting replace that name in
    # scan_cli after the evaluator is built, and must still see every call
    fn = make_evaluator(name, **params)
    kernel = getattr(scan_cli, library_fn + "_array")
    calls = []

    def spy(z, *args):
        calls.append((z.tolist(), args))
        return kernel(z, *args)
    monkeypatch.setattr(scan_cli, library_fn + "_array", spy)
    log_z = fn(np.array([0.25 + 0.5j]))
    assert [z for z, _ in calls] == [[0.25 + 0.5j]]
    # the one-node value is the library function's, called with the same arguments
    scalar = getattr(sys.modules[kernel.__module__], library_fn)
    node = _kernel_node(log_z[0])
    _assert_node_matches(node, _contract_node(lambda z: scalar(z, *calls[0][1]), 0.25 + 0.5j),
                         0.25 + 0.5j)


_GAMMA_1 = 14.134725141734694
_TWO_ZEROS = ZetaZeroTable((_GAMMA_1, 21.022039638771555))


@pytest.mark.parametrize("evaluator, params, node, kernel_re, flag", [
    ("oscillator_closed", {"e0": TWO_PI}, 1j, math.inf, "pole"),            # beta E0 = 2 pi i
    ("oscillator_closed", {}, 1500.0 + 0j, -750.0, "zero"),                 # finite, exp gives 0
    ("oscillator_product", {"e0": TWO_PI}, 1j, math.inf, "pole"),
    ("oscillator_product", {"e0": TWO_PI}, 240.0 + 0j, -754.52, "zero"),    # finite, exp gives 0
    ("zeta_em", {}, 1.0 + 0j, math.inf, "pole"),
    ("zeta_em", {"cutoff": 60}, -2.0 + 0j, -math.inf, "zero"),              # the sum is exactly 0
    ("zeta_hadamard", {"zeros": _TWO_ZEROS}, 1.0 + 0j, math.inf, "pole"),
    ("zeta_hadamard", {"zeros": _TWO_ZEROS}, complex(0.5, _GAMMA_1), -math.inf, "zero"),
    ("zeta_hadamard", {"zeros": _TWO_ZEROS}, -2.0 + 0j, -math.inf, "zero"),  # trivial zero
    ("qnm_conjectured", {"spectrum": QNMSpectrum(modes=(1.0 - 1j,), temperature=1.0)},
     1.0 - 1j, -math.inf, "zero"),
], ids=["closed_pole", "closed_flushed", "product_pole", "product_underflow", "zeta_em_pole",
        "zeta_em_zero", "hadamard_pole", "hadamard_ordinate", "hadamard_trivial", "qnm_mode"])
def test_kernel_infinities_become_the_scan_flags(evaluator, params, node, kernel_re, flag):
    # a kernel gives log Z = +inf at a pole and Re log Z = -inf at a zero
    # it detects; grid_scan alone flags those, and a finite log below
    # EXP_UNDERFLOW, at the planted node in the grid's first corner
    log_z = make_evaluator(evaluator, **params)(np.array([node]))
    assert log_z.dtype == complex
    if kernel_re == math.inf:
        assert log_z[0] == math.inf                   # the whole log, phase 0
    elif kernel_re == -math.inf:
        assert log_z[0].real == -math.inf
    else:
        assert EXP_UNDERFLOW > log_z[0].real > kernel_re - 0.01
    scan = grid_scan(evaluator, (node.real, node.real + 1.0, node.imag, node.imag + 1.0),
                     (2, 2), params)
    assert (str(scan.flags[0]), scan.log_abs[0], scan.arg[0]) == \
        (flag, LOG_CLAMP if flag == "pole" else -LOG_CLAMP, 0.0)


def test_grid_scan_validation():
    with pytest.raises(ValueError):
        grid_scan("oscillator_closed", (0.5, -0.5, 0.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        grid_scan("oscillator_closed", (0.0, 1.0, 0.0, 1.0), (0, 4))
    with pytest.raises(ValueError):
        GridScan(region=(0.0, 1.0, 0.0, 1.0), resolution=(2, 2),
                 log_abs=np.zeros(1), arg=np.zeros(1), flags=np.array([""]))


@pytest.mark.parametrize("region", [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, -1.7e308, 1.7e308)],
                         ids=["re_width", "im_width"])
def test_grid_scan_rejects_an_overflowing_width(region):
    # each bound is finite, but linspace over the width gave [nan, inf, 1e308]
    # and a NaN column flagged pole
    with pytest.raises(ValueError, match="scan region width must be finite"):
        grid_scan("oscillator_closed", region, (3, 3))


def test_scan_determinism():
    region, res = (-0.5, 0.5, 0.5, 2.5), (16, 16)
    a = grid_scan("oscillator_product", region, res)
    b = grid_scan("oscillator_product", region, res)
    for field in ("log_abs", "arg", "flags"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


# ---------------------------------------------------------- gate grids

@st.composite
def _dyadic_grid(draw, bound):
    """A small region whose nodes are exact binary fractions within +-bound:
    step 2^-k, offset a whole number of steps, 2..6 nodes per axis."""
    axes = []
    for _ in range(2):
        n = draw(st.integers(2, 6))
        step = 2.0 ** -draw(st.integers(-2, 6))
        room = int(bound / step) - (n - 1)
        lo = draw(st.integers(-int(bound / step), max(-int(bound / step), room))) * step
        axes.append((lo, lo + (n - 1) * step, n))
    (re_min, re_max, cols), (im_min, im_max, rows) = axes
    return (re_min, re_max, im_min, im_max), (cols, rows)


# ----------------------------------------------------- array route vs mpmath
#
# Each product's scan is checked against mpmath (dps 30) evaluating the same
# truncated product: the same factor count, zeros and tail term.  An oracle
# maps a node to its flag and, unflagged, its log Z: "pole" within 1e-12 of a
# pole, "zero" on a zero or where |Z| underflows, as the scan contract says.
# On a pole or zero hit it names the signal the scalar function must raise
# there, (exception, attribute, value), or None where the scalar returns 0.

_ORACLE_GATE = settings(max_examples=40, deadline=None, derandomize=True)


def _mp():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    return mpmath


def _mp_flag(log_z):
    """The oracle's node for a finite mpmath log: "zero" below EXP_UNDERFLOW."""
    if log_z.real < EXP_UNDERFLOW:
        return "zero", None
    return "", complex(float(log_z.real), float(log_z.imag))


def _lattice_pole(mpmath, x):
    """The signal of a pole 2 pi i k within 1e-12 of x, else None."""
    k = int(mpmath.nint(x.imag / (2 * mpmath.pi)))
    return (PoleError, "nearest", k) if abs(x - 2j * mpmath.pi * k) < 1e-12 else None


def _assert_scan_matches_oracle(evaluator, region, resolution, params, oracle, scalar):
    """Same flag as the oracle at every node, and the scalar's signal on a
    hit; unflagged, log|Z| (clamped to +-745) and arg (mod 2 pi) of the
    scan and of the scalar within 1e-13 max(1, |log Z|) of the oracle."""
    scan = grid_scan(evaluator, region, resolution, params)
    re_axis, im_axis = scan.axes()
    cols, _ = resolution
    for idx in range(scan.log_abs.size):
        row, col = divmod(idx, cols)
        z = complex(re_axis[col], im_axis[row])
        got = (float(scan.log_abs[idx]), float(scan.arg[idx]), str(scan.flags[idx]))
        flag, want = oracle(z)
        assert got[2] == flag, (z, got, flag, want)
        if flag and want is not None:
            exc, attr, value = want
            with pytest.raises(exc) as info:
                scalar(z)
            assert getattr(info.value, attr) == value, (z, want)
        if flag:
            continue
        want = complex(want.real, math.remainder(want.imag, TWO_PI))
        want_node = (min(max(want.real, -LOG_CLAMP), LOG_CLAMP), want.imag, "")
        _assert_node_matches(got, want_node, z, scale=abs(want))
        _assert_node_matches(_contract_node(scalar, z), want_node, z, scale=abs(want))
    return scan


def _mp_closed_form(z, e0):
    """log of 1/(2 sinh(x/2)), x = beta E0."""
    mpmath = _mp()
    x = mpmath.mpc(z) * e0
    if pole := _lattice_pole(mpmath, x):
        return "pole", pole
    return _mp_flag(-mpmath.log(2 * mpmath.sinh(x / 2)))


def _mp_pole_product(z, e0, n_factors):
    """-log x - sum_{n<=N} log(1 + a^2/n^2) - a^2 psi'(N+1), a = x/2 pi; the
    finite product is Gamma(N+1+ia) Gamma(N+1-ia) / (Gamma(1+ia) Gamma(1-ia) N!^2)."""
    mpmath = _mp()
    x = mpmath.mpc(z) * e0
    if pole := _lattice_pole(mpmath, x):
        return "pole", pole
    a, n = x / (2 * mpmath.pi), n_factors
    log_prod = (mpmath.loggamma(n + 1 + 1j * a) + mpmath.loggamma(n + 1 - 1j * a)
                - mpmath.loggamma(1 + 1j * a) - mpmath.loggamma(1 - 1j * a)
                - 2 * mpmath.loggamma(n + 1))
    log_z = -mpmath.log(x) - log_prod - a * a * mpmath.psi(1, n + 1)
    return _mp_flag(log_z)


@_ORACLE_GATE
@given(grid=_dyadic_grid(8.0), e0=st.sampled_from([1.0, TWO_PI]))
@example(grid=((-0.5, 0.5, -2.0, 2.0), (5, 9)), e0=TWO_PI)           # lattice i k, k = -2..2
@example(grid=((1400.0, 1440.0, -1.0, 1.0), (6, 3)), e0=1.0)         # subnormal values
@example(grid=((-1440.0, -1400.0, 1e6, 1e6 + 8.0), (6, 3)), e0=1.0)
@example(grid=((1480.0, 1500.0, -1.0, 1.0), (5, 3)), e0=1.0)         # log|Z| -740 to -750
@example(grid=((0.0, 1.0, 1e17, 1e18), (2, 5)), e0=1.0)             # Im spacing > 2 pi: no pole
def test_closed_form_scan_matches_scalar(grid, e0):
    _assert_scan_matches_oracle("oscillator_closed", *grid, {"e0": e0},
                                lambda z: _mp_closed_form(z, e0),
                                lambda z: closed_form_oscillator(z, e0))


@_ORACLE_GATE
@given(grid=_dyadic_grid(8.0), n_factors=st.sampled_from([8, 1000]))
@example(grid=((-0.5, 0.5, 0.0, 3.0), (5, 7)), n_factors=1000)       # lattice i k, k = 0..3
@example(grid=((224.0, 240.0, -1.0, 1.0), (5, 3)), n_factors=1000)   # log|Z| from -704 to -754
@example(grid=((0.0, 1.0, 1000.0, 1008.0), (3, 3)), n_factors=8)     # log|Z| > 745
def test_pole_product_scan_matches_scalar(grid, n_factors):
    e0 = TWO_PI if n_factors == 1000 else 1.0
    _assert_scan_matches_oracle("oscillator_product", *grid, {"e0": e0, "n_factors": n_factors},
                                lambda z: _mp_pole_product(z, e0, n_factors),
                                lambda z: pole_product_oscillator(z, e0, n_factors))


@pytest.mark.parametrize("region, resolution, e0, zeros_poles", [
    ((1400.0, 1500.0, 0.1, 1.0), (4, 4), 1.0, (4, 0)),          # log|Z| -700 .. -750
    ((-1500.0, -1400.0, -1.0, -0.1), (4, 4), 1.0, (4, 0)),      # its mirror
    ((-0.5, 0.5, -2.0, 2.0), (5, 9), TWO_PI, (0, 5)),           # lattice i k, k = -2..2
], ids=["far_right", "far_left", "lattice"])
def test_closed_form_and_pole_product_flag_the_same_nodes(region, resolution, e0, zeros_poles):
    # the oscillator's two routes share grid_scan's one zero rule,
    # EXP_UNDERFLOW: a private flush to 0 in either flags more zeros on the
    # far grids.  Every column is at least 1 from EXP_UNDERFLOW in log|Z|,
    # beyond the 1000-factor product's ~0.5 error in log|Z| at |beta E0| ~ 1450
    closed = grid_scan("oscillator_closed", region, resolution, {"e0": e0})
    product = grid_scan("oscillator_product", region, resolution,
                        {"e0": e0, "n_factors": 1000})
    assert closed.flags.tolist() == product.flags.tolist()
    assert (closed.flag_count("zero"), closed.flag_count("pole")) == zeros_poles
    re_axis, im_axis = closed.axes()
    z = (re_axis + 1j * im_axis[:, None]).ravel()
    log_z = make_evaluator("oscillator_closed", e0=e0)(z)
    assert (np.abs(log_z.real - EXP_UNDERFLOW) >= 1.0).all()
    # the scalar's log_value is its scan node bit for bit
    for node, want in zip(z.tolist(), log_z.tolist()):
        if want == math.inf:
            with pytest.raises(PoleError):
                closed_form_oscillator(node, e0)
        else:
            assert closed_form_oscillator(node, e0).log_value == want, node


# zeta_em_array calls zeta_em once per node, so its scan is checked
# against the scalar route

@settings(max_examples=40, deadline=None)
@given(grid=_dyadic_grid(32.0), cutoff=st.sampled_from([None, 60]))
@example(grid=((-8.0, -4.0, -16.0, 16.0), (5, 5)), cutoff=None)      # Re s < -5
@example(grid=((-8.0, -4.0, -16.0, 16.0), (5, 5)), cutoff=60)
@example(grid=((0.0, 2.0, -1.0, 1.0), (5, 3)), cutoff=None)          # the pole at 1
@example(grid=((512.0, 2048.0, -4.0, 4.0), (4, 3)), cutoff=None)     # n^-s underflows
@example(grid=((-64.0, -32.0, -8.0, 8.0), (3, 3)), cutoff=60)        # log|zeta| ~ 240
def test_zeta_em_scan_matches_scalar(grid, cutoff):
    # zeta_em neither underflows nor overflows before its cutoff power
    # does, which raises OverflowError (test_zeta_em_scan_overflow_raises)
    params = {} if cutoff is None else {"cutoff": cutoff}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _assert_scan_matches_scalar(
            "zeta_em", *grid, params,
            lambda z: zeta_em(z, cutoff=cutoff if cutoff else _adaptive_cutoff(z.imag)))


def test_zeta_em_scan_overflow_raises():
    region = (-256.0, -192.0, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(OverflowError):
            zeta_em(complex(-256.0, -1.0))
        with pytest.raises(OverflowError):
            grid_scan("zeta_em", region, (3, 3), {"cutoff": 100})


_ZEROS = find_zeros(100)
_GAMMA_2 = _ZEROS.ordinates[1]


def _mp_hadamard(z, zero_count):
    """(gamma_E + ln pi) b/2 - ln 2 - log(b - 1) + log prod_k (1 + q/(1/4 + g_k^2))
    + sum_{n<=200} (log(1 + b/2n) - b/2n) - b^2 psi'(201)/8, q = b^2 - b, with
    prod_n (1 + b/2n) = Gamma(201 + b/2) / (Gamma(1 + b/2) 200!)."""
    mpmath = _mp()
    b, m = mpmath.mpc(z), 200
    gammas = [mpmath.mpf(g) for g in _ZEROS.ordinates[:zero_count]]
    if abs(b - 1) < 1e-12:
        return "pole", (PoleError, "nearest", 1)
    hits = [k for k, g in enumerate(gammas)
            if any(abs(b - mpmath.mpc(0.5, s * g)) < 1e-12 for s in (1, -1))]
    if hits:
        return "zero", (ZeroHitSignal, "index", hits[0])
    if b.imag == 0 and b.real < 0 and b.real % 2 == 0 and b.real >= -2 * m:
        return "zero", None                              # a trivial zero -2n, n <= 200
    q = b * b - b
    log_z = ((mpmath.euler + mpmath.log(mpmath.pi)) * b / 2 - mpmath.log(2) - mpmath.log(b - 1)
             + mpmath.log(mpmath.fprod(1 + q / (0.25 + g * g) for g in gammas))
             + mpmath.loggamma(m + 1 + b / 2) - mpmath.loggamma(1 + b / 2)
             - mpmath.loggamma(m + 1) - b / 2 * mpmath.harmonic(m)
             - b * b / 8 * mpmath.psi(1, m + 1))
    return _mp_flag(log_z)


@_ORACLE_GATE
@given(grid=_dyadic_grid(32.0), zero_count=st.sampled_from([0, 7, 100]))
@example(grid=((-2.5, 1.5, -_GAMMA_2, _GAMMA_2), (65, 3)), zero_count=100)  # 1, -2, 1/2 +- i g_2
@example(grid=((-400.0, -2.0, 0.0, 1.0), (200, 2)), zero_count=7)        # trivial zeros -2n
@example(grid=((-1024.0, -512.0, 64.0, 128.0), (3, 3)), zero_count=100)    # log|Z| > 745
@example(grid=((512.0, 1024.0, -64.0, 64.0), (3, 3)), zero_count=100)      # log|Z| < -745
def test_hadamard_scan_matches_scalar(grid, zero_count):
    scan = _assert_scan_matches_oracle(
        "zeta_hadamard", *grid, {"zeros": _ZEROS, "zero_count": zero_count},
        lambda z: _mp_hadamard(z, zero_count), lambda z: hadamard_product(z, _ZEROS, zero_count))
    if grid[0][3] == _GAMMA_2:
        assert scan.flag_count("pole") == 1 and scan.flag_count("zero") == 3
    if grid[0][:2] == (-400.0, -2.0):
        assert scan.flag_count("zero") == 200                 # -2n for n = 1..200


@st.composite
def _qnm_case(draw):
    """A grid and a spectrum with modes on its nodes and off them, closed
    under z -> -conj(z) (reflection pairs) or not (unpaired)."""
    region, resolution = draw(_dyadic_grid(4.0))
    re_axis = np.linspace(region[0], region[1], resolution[0]).tolist()
    im_axis = np.linspace(region[2], region[3], resolution[1]).tolist()
    nodes = [complex(x, y) for y in im_axis for x in re_axis]
    fine = st.integers(-4 * 4096, 4 * 4096).map(lambda i: i / 4096)
    modes = draw(st.lists(st.sampled_from(nodes), max_size=3))
    modes += [complex(x, y) for x, y in draw(st.lists(st.tuples(fine, fine), min_size=1,
                                                      max_size=6))]
    modes = [m for m in modes if m != 0] or [1.0 - 1j]
    reflection = draw(st.booleans())
    if reflection:
        modes += [-m.conjugate() for m in modes]
    modes = tuple(dict.fromkeys(modes))
    spec = QNMSpectrum(modes=modes, temperature=1.0,
                       euclidean_action=draw(st.sampled_from([0.0, 1.5])),
                       symmetry="reflection" if reflection else "none")
    return spec, (region, resolution)


def _mp_qnm(z, spec):
    """-S_E + log prod_{z*} (1 - z/z*); "zero" on a mode."""
    mpmath = _mp()
    if z in spec.modes:
        return "zero", (ZeroHitSignal, "index", spec.modes.index(z))
    log_z = (mpmath.log(mpmath.fprod(1 - mpmath.mpc(z) / mpmath.mpc(a) for a in spec.modes))
             - spec.euclidean_action)
    return _mp_flag(log_z)


_PAIRED = QNMSpectrum(modes=(0.5 - 1j, -0.5 - 1j, 0.25j, 1.0 + 0.5j, -1.0 + 0.5j),
                      temperature=1.0, euclidean_action=0.5, symmetry="reflection")
_UNPAIRED = QNMSpectrum(modes=(0.5 - 1j, -0.25 - 0.5j, 0.75 + 0.5j), temperature=1.0)
_HEAVY = QNMSpectrum(modes=(0.5 - 1j, -0.5 - 1j), temperature=1.0, euclidean_action=800.0,
                     symmetry="reflection")


@_ORACLE_GATE
@given(case=_qnm_case())
@example(case=(_PAIRED, ((-1.0, 1.0, -1.0, 1.0), (9, 9))))         # every mode on a node
@example(case=(_UNPAIRED, ((-1.0, 1.0, -1.0, 1.0), (9, 9))))
@example(case=(_UNPAIRED, ((2.0 ** 400, 2.0 ** 401, -1.0, 1.0), (3, 3))))  # log|Z| > 745
@example(case=(_HEAVY, ((-1.0, 1.0, -1.0, 1.0), (3, 3))))          # log|Z| < -745
@example(case=(_PAIRED, ((2.0 ** 1022, 2.0 ** 1023, -1.0, 1.0), (2, 3))))  # factors > 1e308
@example(case=(QNMSpectrum(modes=(1.0,), temperature=1.0),                # |z* - z| > 1e308
               ((1e308, 1.2e308, -1.7e308, -1.5e308), (2, 2))))
def test_qnm_scan_matches_scalar(case):
    spec, grid = case
    _assert_scan_matches_oracle("qnm_conjectured", *grid, {"spectrum": spec},
                                lambda z: _mp_qnm(z, spec),
                                lambda z: conjectured_partition_log(z, spec))


def test_grid_scan_memory_is_chunked():
    # a whole-grid broadcast of 40,000 nodes x 1000 factors would need
    # about 320 MB per float64 temporary; chunks keep the peak small
    tracemalloc.start()
    try:
        grid_scan("oscillator_product", (-1.0, 1.0, 0.5, 1.5), (200, 200), {"n_factors": 1000})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _loop_local_maxima(vals):
    """Reference locator: one neighborhood slice per node."""
    rows, cols = vals.shape
    out = []
    for row in range(rows):
        for col in range(cols):
            v = vals[row, col]
            hood = vals[max(0, row - 1):row + 2, max(0, col - 1):col + 2]
            if not (hood > v).any() and (hood == v).sum() == 1:
                out.append(row * cols + col)
    return out


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
              elements=st.sampled_from([-745.0, -1.0, 0.0, 0.5, 745.0])))
def test_vectorized_locator_matches_loop(vals):
    # few distinct values make plateaus and edge maxima common
    rows, cols = vals.shape
    scan = GridScan(region=(0.0, 1.0, 0.0, 1.0), resolution=(cols, rows),
                    log_abs=vals.ravel(), arg=np.zeros(rows * cols),
                    flags=np.full(rows * cols, ""))
    assert locate_poles(scan) == [_node(scan, i) for i in _loop_local_maxima(vals)]
    assert locate_zeros(scan) == [_node(scan, i) for i in _loop_local_maxima(-vals)]


# ------------------------------------------------------ reference writers
#
# One tuple per node through csv.writer, and json.dumps over the whole
# document: the streaming writers must write the same bytes.

def _reference_node_rows(scan):
    re_axis, im_axis = (a.tolist() for a in scan.axes())
    return ((x, y, la, ph, flag) for (y, x), la, ph, flag in zip(
        itertools.product(im_axis, re_axis),
        scan.log_abs.tolist(), scan.arg.tolist(), scan.flags.tolist()))


def _reference_write_csv(scan, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["re", "im", "log_abs", "arg", "flag"])
        w.writerows([repr(x), repr(y), repr(la), repr(ph), flag]
                    for x, y, la, ph, flag in _reference_node_rows(scan))


def _reference_write_json(scan, path, meta):
    doc = {
        "meta": meta,
        "region": list(scan.region),
        "resolution": list(scan.resolution),
        "nodes": list(_reference_node_rows(scan)),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# values at the edges of the writers' float text: the clamp, signed zero,
# the smallest subnormal and reprs with an exponent
_EDGE_FLOATS = [745.0, -745.0, 0.0, -0.0, 5e-324, -5e-324, 1e-05, -1e-05, 1e+16, 1.5e+300,
                0.1, TWO_PI]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _grid_scans(draw):
    """A GridScan of 1x1, 1xN, Nx1 or NxM nodes with any finite values and
    any flags, over a region whose bounds may need an exponent."""
    cols, rows = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (5, 3), (2, 9)]))
    bounds = []
    for _ in range(2):
        lo = draw(st.one_of(st.sampled_from([-1e+16, -1e-05, -0.0, 5e-324, 0.5]),
                            st.floats(-1e300, 1e300)))
        width = draw(st.one_of(st.sampled_from([1e-05, 1.0, 1e+16]), st.floats(1e-300, 1e300)))
        assume(math.isfinite(lo + width) and lo + width > lo)
        bounds += [lo, lo + width]
    n = cols * rows
    values = st.lists(_FLOATS, min_size=n, max_size=n).map(np.array)
    flags = st.lists(st.sampled_from(["", "zero", "pole"]), min_size=n, max_size=n)
    return GridScan(region=tuple(bounds), resolution=(cols, rows), log_abs=draw(values),
                    arg=draw(values), flags=np.array(draw(flags), dtype="U4"))


_META = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.text(max_size=8), _FLOATS, st.integers(), st.lists(st.text(max_size=4))),
    max_size=3)


@settings(max_examples=150, deadline=None)
@given(scan=_grid_scans(), meta=_META)
@example(scan=GridScan(region=(-1e-05, 1e+16, -0.0, 5e-324), resolution=(1, 1),
                       log_abs=np.array([-0.0]), arg=np.array([5e-324]),
                       flags=np.array([""])),
         meta={"evaluator": "oscillator_closed", "note": "Z(\u03b2) = \u03a3 e^{-\u03b2E}"})
@example(scan=GridScan(region=(0.0, 1.0, 0.0, 1.0), resolution=(2, 2),
                       log_abs=np.array([745.0, -745.0, 1e+16, 1e-05]),
                       arg=np.array([0.0, 0.0, -1e-05, math.pi]),
                       flags=np.array(["pole", "zero", "", ""])),
         meta={"nodes": "nodes placeholder", "region": [[0.0]]})
def test_streaming_writers_match_the_reference(tmp_path_factory, scan, meta):
    out = tmp_path_factory.mktemp("writers")
    write_csv(scan, out / "got.csv")
    _reference_write_csv(scan, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
    write_json(scan, out / "got.json", meta=meta)
    _reference_write_json(scan, out / "want.json", meta=meta)
    assert (out / "got.json").read_bytes() == (out / "want.json").read_bytes()


def test_grid_scan_rejects_non_finite_values():
    # the writers print repr, which json writes only for finite floats
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="log_abs and arg must be finite"):
            GridScan(region=(0.0, 1.0, 0.0, 1.0), resolution=(1, 1),
                     log_abs=np.array([0.0]), arg=np.array([bad]), flags=np.array([""]))


@pytest.mark.parametrize("writer", [write_csv, functools.partial(write_json, meta={})],
                         ids=["csv", "json"])
def test_writers_memory_is_flat(tmp_path, writer):
    # a tuple per node, or the whole JSON document as one string, peaks at
    # 10.8 MiB (CSV) and 40.7 MiB (JSON) on this grid
    scan = grid_scan("oscillator_closed", (-2.0, 2.0, -0.5, 7.0), (481, 321), {"e0": TWO_PI})
    tracemalloc.start()
    try:
        writer(scan, tmp_path / "scan.out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_csv_writer_layout(tmp_path):
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 0.5, 1.5), (3, 2))
    p = tmp_path / "scan.csv"
    write_csv(scan, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "re,im,log_abs,arg,flag"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert float(first[0]) == -0.5 and float(first[1]) == 0.5
    assert all(line.endswith(",") for line in lines[1:])  # empty flag column


def test_json_writer_and_meta(tmp_path):
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 0.5, 1.5), (3, 2))
    p = tmp_path / "scan.json"
    write_json(scan, p, meta={"evaluator": "oscillator_closed"})
    doc = json.loads(p.read_text())
    assert doc["resolution"] == [3, 2]
    assert len(doc["nodes"]) == 6
    assert doc["meta"]["evaluator"] == "oscillator_closed"


def test_pgm_is_valid_p5(tmp_path):
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 5.5, 7.1), (64, 64))
    p = tmp_path / "scan.pgm"
    write_pgm(scan, p)
    blob = p.read_bytes()
    header = b"P5\n64 64\n255\n"
    assert blob.startswith(header)
    body = blob[len(header):]
    assert len(body) == 64 * 64
    pixels = np.frombuffer(body, dtype=np.uint8)
    assert pixels.max() == 255 and pixels.min() == 0  # p5/p95 clamp both sides


def test_pgm_of_a_constant_field_is_black(tmp_path):
    # the p5/p95 window is empty: no division by hi - lo = 0
    n = 6 * 4
    scan = GridScan((0.0, 1.0, 0.0, 1.0), (6, 4), np.full(n, 2.5), np.zeros(n),
                    np.full(n, "", dtype="<U4"))
    p = tmp_path / "flat.pgm"
    write_pgm(scan, p)
    header = b"P5\n6 4\n255\n"
    assert p.read_bytes() == header + bytes(n)


def test_cli_oscillator_table(capsys):
    assert cli_dispatch(["oscillator", "--beta", "1", "--e0", "1"]) == 0
    outp = capsys.readouterr().out
    for name in ("direct_sum", "closed_form", "pole_product"):
        assert name in outp


def test_cli_csv_table_reads_back(tmp_path):
    out = tmp_path / "t.csv"
    assert cli_dispatch(["oscillator", "--beta", "1", "--e0", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        columns, *rows = csv.reader(fh)
    assert columns == ["method", "value", "abs_diff_vs_closed", "error_estimate"]
    assert [row[0] for row in rows] == ["direct_sum", "closed_form", "pole_product"]
    # fields are written with repr, so the values round-trip
    assert complex(rows[1][1]) == closed_form_oscillator(1.0, 1.0).value
    assert complex(rows[2][1]) == pole_product_oscillator(1.0, 1.0, 100000).value


def test_cli_zeros_to_stdout(capsys):
    assert cli_dispatch(["zeta", "zeros", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(repr(g) + "\n" for g in find_zeros(3).ordinates)


def test_cli_zeros_file_roundtrip(tmp_path):
    p = tmp_path / "zeros.txt"
    assert cli_dispatch(["zeta", "zeros", "--count", "3", "--out", str(p)]) == 0
    vals = [float(line) for line in p.read_text().splitlines()]
    assert len(vals) == 3
    assert vals == sorted(vals)
    assert abs(vals[0] - 14.134725141734694) < 1e-6


def test_cli_exit_codes(tmp_path):
    spec_file = tmp_path / "tower.json"
    spec_file.write_text(qnm_to_json(QNMSpectrum(modes=(complex(0.0, TWO_PI),),
                                                 temperature=1.0)))
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch([]) == 1
    assert cli_dispatch(["scan", "--evaluator", "bogus",
                         "--region", "0", "1", "0", "1"]) == 1
    # a table's --out writes CSV; --format belongs to scan
    assert cli_dispatch(["oscillator", "--format", "json"]) == 1
    assert cli_dispatch(["scan", "--evaluator", "zeta_em",
                         "--region", "1", "0", "0", "1"]) == 2
    assert cli_dispatch(["zeta", "compare", "--re", "0.5", "--zero-count", "10"]) == 2
    assert cli_dispatch(["qnm", "oneloop", "--spectrum", str(tmp_path / "nope.json")]) == 2
    # growing mode sits on the tower pole lattice
    assert cli_dispatch(["qnm", "oneloop", "--spectrum", str(spec_file)]) == 2
    assert cli_dispatch(["zeta", "zeros", "--count", "2",
                         "--out", str(tmp_path / "no" / "dir" / "z.txt")]) == 2


@pytest.mark.parametrize("text", [
    "not json",
    '{"temperature": 1.0}',
    '{"modes": [[0.0, -1.0]]}',
    '{"modes": 5, "temperature": 1.0}',
    '{"modes": [[0.0, -1.0, 2.0]], "temperature": 1.0}',
    # the distance from 3-2i to the first mode's mirror passes DBL_MAX
    '{"modes": [[1.5e308, 1.5e308], [-1.5e308, 1.5e308], [3.0, -2.0]], '
    '"temperature": 1.0, "symmetry": "reflection"}',
    '{"modes": [[1' + "0" * 400 + ', -1.0]], "temperature": 1.0}',
], ids=["not_json", "no_modes", "no_temperature", "modes_not_list", "three_numbers",
        "mirror_distance_past_dbl_max", "int_past_float_range"])
def test_cli_malformed_qnm_file_exits_2(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    for argv in (["qnm", "oneloop", "--spectrum", str(f)],
                 ["scan", "--evaluator", "qnm_conjectured", "--spectrum", str(f),
                  "--region", "-1", "1", "-1", "1", "--out", str(tmp_path / "s.csv")]):
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: ") and err.count("\n") == 1


_NAN_MODE = '{"modes": [[NaN, -1.0], [1.0, -2.0]], "temperature": 1.0}'
_NAN_ACTION = '{"modes": [[1.0, -1.0]], "temperature": 1.0, "action": NaN}'
_INF_ZERO = "14.134725141734694\n21.022039638771555\ninf\n"
_GRID = ["--region", "-1", "1", "-1", "1", "--cols", "4", "--rows", "4"]


_SPECTRUM = '{"modes": [[1.0, -1.0]], "temperature": 1.0}'


@pytest.mark.parametrize("text, argv, message", [
    (_NAN_MODE, ["scan", "--evaluator", "qnm_conjectured", "--spectrum", "FILE", *_GRID], "FILE"),
    (_NAN_MODE, ["qnm", "fit", "--spectrum", "FILE"], "FILE"),
    (_NAN_MODE, ["qnm", "oneloop", "--spectrum", "FILE"], "FILE"),
    (_NAN_ACTION, ["scan", "--evaluator", "qnm_conjectured", "--spectrum", "FILE", *_GRID],
     "FILE"),
    ('{"modes": [[1.0, -1.0]], "temperature": Infinity}', ["qnm", "oneloop", "--spectrum", "FILE"],
     "FILE"),
    ('{"modes": [[1.0, -1.0]], "temperature": 1.0, "pol": [1.0, -Infinity]}',
     ["qnm", "oneloop", "--spectrum", "FILE"], "FILE"),
    (_INF_ZERO, ["zeta", "explicit", "--x", "20", "--zeros-file", "FILE"], "FILE"),
    (_INF_ZERO, ["scan", "--evaluator", "zeta_hadamard", "--zeros-file", "FILE", *_GRID], "FILE"),
    (None, ["scan", "--evaluator", "zeta_em", "--region", "0", "inf", "0", "1"],
     "scan region must be finite"),
    (None, ["scan", "--evaluator", "zeta_em", "--region", "0", "1", "nan", "1"],
     "scan region must be finite"),
    (None, ["scan", "--evaluator", "oscillator_closed", "--region", "-1e308", "1e308",
            "-1", "1", "--cols", "3", "--rows", "3"], "scan region width must be finite"),
    (None, ["oscillator", "--beta", "nan"], "--beta must be finite, got nan"),
    (None, ["oscillator", "--beta-im", "inf"], "--beta-im must be finite, got inf"),
    (None, ["oscillator", "--e0", "nan"], "--e0 must be finite, got nan"),
    # e^(-beta) rounds to 1 at 1e-17, where the direct sum's tail is undefined
    (None, ["oscillator", "--beta", "1e-17"], "got Re(beta)*gap = 1e-17"),
    (None, ["oscillator", "--beta", "1e-15"], "closed form has a pole at beta*gap = 2*pi*i*0"),
    (None, ["oscillator", "--beta", "-1e-3"], "got Re(beta)*gap = -0.001"),
    (None, ["zeta", "explicit", "--x", "-1E+300"], "explicit formula needs x > 1, got -1e+300"),
    (None, ["scan", "--evaluator", "oscillator_closed", "--e0", "inf", *_GRID],
     "--e0 must be finite, got inf"),
    (None, ["zeta", "compare", "--re", "nan"], "--re must be finite, got nan"),
    (None, ["zeta", "compare", "--im", "inf"], "--im must be finite, got inf"),
    (None, ["zeta", "explicit", "--x", "inf"], "--x must be finite, got inf"),
    (_SPECTRUM, ["qnm", "oneloop", "--spectrum", "FILE", "--delta", "nan"],
     "--delta must be finite, got nan"),
    # the scan window t < 5.7e7 would take 1.8 GB per temporary
    (None, ["zeta", "zeros", "--count", "100000000"], "count 100000000 needs the scan window"),
], ids=["nan_mode_scan", "nan_mode_fit", "nan_mode_oneloop", "nan_action_scan",
        "inf_temperature", "inf_pol", "inf_zero_explicit", "inf_zero_scan",
        "inf_region", "nan_region", "wide_region", "nan_beta", "inf_beta_im", "nan_e0", "tiny_beta",
        "small_beta", "negative_exponent_beta", "negative_exponent_x", "inf_scan_e0",
        "nan_re", "inf_im", "inf_x", "nan_delta", "huge_zero_count"])
def test_cli_non_finite_input_exits_2(tmp_path, capsys, text, argv, message):
    f = tmp_path / "input.txt"
    if text is not None:
        f.write_text(text)
    argv = [str(f) if a == "FILE" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (str(f) if message == "FILE" else message) in err


# every float option of every subcommand, after the arguments it requires
_FLOAT_OPTIONS = [
    (["oscillator"], "--beta", "beta"),
    (["oscillator"], "--beta-im", "beta_im"),
    (["oscillator"], "--e0", "e0"),
    (["zeta", "compare"], "--re", "re"),
    (["zeta", "compare"], "--im", "im"),
    (["zeta", "explicit"], "--x", "x"),
    (["qnm", "oneloop", "--spectrum", "s.json"], "--delta", "delta"),
    (["qnm", "fit", "--spectrum", "s.json"], "--tail-fraction", "tail_fraction"),
    (["scan", "--evaluator", "oscillator_closed", "--region", "0", "1", "0", "1"], "--e0", "e0"),
]
_FLOAT_IDS = [" ".join([w for w in c[:2] if w[0] != "-"] + [o]) for c, o, _ in _FLOAT_OPTIONS]


def _float_flags(parser, path=()):
    """(subcommand path, option) of every single-valued float option."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _float_flags(sub, path + (name,))
        elif action.type is float and action.nargs is None:
            yield path, action.option_strings[0]


def test_float_options_list_every_float_flag():
    # so no float flag of the parser escapes the finite rule below; the
    # four-valued --region has its own check, "scan region must be finite"
    listed = {(tuple(itertools.takewhile(lambda w: w[0] != "-", c)), o)
              for c, o, _ in _FLOAT_OPTIONS}
    assert listed == set(_float_flags(scan_cli._build_parser()))


@pytest.mark.parametrize("command, option, dest", _FLOAT_OPTIONS, ids=_FLOAT_IDS)
def test_cli_every_float_flag_must_be_finite(capsys, command, option, dest):
    # checked before the command runs, so the missing s.json is never read
    assert cli_dispatch(command + [option, "nan"]) == 2
    assert capsys.readouterr().err == f"error: {option} must be finite, got nan\n"


@pytest.mark.parametrize("value", ["-1e5", "-1e-3", "-1E+300"])
@pytest.mark.parametrize("command, option, dest", _FLOAT_OPTIONS, ids=_FLOAT_IDS)
def test_cli_reads_negative_exponent_notation(command, option, dest, value):
    # argparse's default pattern reads only -12 and -1.5 forms as negative
    # numbers; it took -1e5 for an option and exited 1
    args = scan_cli._build_parser().parse_args(command + [option, value])
    assert getattr(args, dest) == float(value)


@pytest.mark.parametrize("command", [["scan", "--evaluator", "oscillator_closed"],
                                     ["scan", "--evaluator", "qnm_conjectured",
                                      "--spectrum", "s.json"]],
                         ids=["scan", "qnm_scan"])
def test_cli_region_reads_negative_exponent_notation(command):
    region = ["-1e5", "-1e-3", "-1E+300", "-1e1"]
    args = scan_cli._build_parser().parse_args(command + ["--region", *region])
    assert args.region == [float(v) for v in region]


def test_cli_scan_over_a_region_in_exponent_notation(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli_dispatch(["scan", "--evaluator", "oscillator_closed", "--region", "-1e5", "-1e-3",
                         "-1E+0", "1", "--cols", "3", "--rows", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("-100000.0,-1.0,")


@pytest.fixture(scope="module")
def zeros5(tmp_path_factory):
    table = find_zeros(5)
    path = tmp_path_factory.mktemp("zeros") / "z5.txt"
    path.write_text("".join(repr(g) + "\n" for g in table.ordinates))
    return table, path


_ZERO_RULE_ARGV = {
    "compare": ["zeta", "compare", "--re", "2"],
    "explicit": ["zeta", "explicit", "--x", "20"],
    "scan": ["scan", "--evaluator", "zeta_hadamard", *_GRID],
}


@pytest.mark.parametrize("zero_count", [None, 3, 10], ids=["no_count", "count_3", "count_10"])
@pytest.mark.parametrize("command", list(_ZERO_RULE_ARGV))
def test_cli_zero_rule_is_one_for_every_command(tmp_path, capsys, zeros5, command, zero_count):
    # a file is used whole unless --zero-count is given; a count beyond it exits 2
    table, path = zeros5
    out = tmp_path / "out.csv"
    argv = _ZERO_RULE_ARGV[command] + ["--zeros-file", str(path), "--out", str(out)]
    if zero_count is not None:
        argv += ["--zero-count", str(zero_count)]
    code = cli_dispatch(argv)
    err = capsys.readouterr().err
    if zero_count == 10:
        assert code == 2 and err.count("\n") == 1
        assert "zero_count=10 exceeds table size 5" in err
        return
    assert code == 0 and err == ""
    n = 5 if zero_count is None else zero_count
    rows = list(csv.reader(out.read_text().splitlines()))
    if command == "compare":
        hadamard = next(row for row in rows if row[0] == "hadamard_product")
        assert hadamard[1] == repr(hadamard_product(2, table, n).value)
    elif command == "explicit":
        assert dict(zip(*rows))["zeros_used"] == str(n)
    else:
        expected = tmp_path / "expected.csv"
        write_csv(grid_scan("zeta_hadamard", (-1.0, 1.0, -1.0, 1.0), (4, 4),
                            {"zeros": table, "zero_count": n}), expected)
        assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("with_file", [True, False], ids=["zeros_file", "no_file"])
def test_cli_negative_zero_count_exits_2(capsys, zeros5, with_file):
    argv = ["zeta", "explicit", "--x", "20.5", "--zero-count", "-1"]
    if with_file:
        argv += ["--zeros-file", str(zeros5[1])]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == "error: zero_count must be >= 0, got -1\n"


_TOWER = QNMSpectrum(modes=tuple(complex(0.0, -(n + 1.0)) for n in range(8)),
                     temperature=1.0 / TWO_PI, euclidean_action=1.0)


@pytest.mark.parametrize("argv", [
    ["oscillator", "--beta", "1", "--beta-im", "0.5"],
    ["zeta", "compare", "--re", "2", "--im", "3", "--zeros-file", "ZEROS"],
    ["zeta", "explicit", "--x", "20.5", "--zeros-file", "ZEROS"],
    ["qnm", "oneloop", "--spectrum", "SPECTRUM"],
    ["qnm", "fit", "--spectrum", "SPECTRUM"],
], ids=["oscillator", "zeta_compare", "zeta_explicit", "qnm_oneloop", "qnm_fit"])
def test_cli_csv_tables_match_csv_writer(tmp_path, monkeypatch, zeros5, argv):
    # tables are written by joining fields with commas; none needs quoting,
    # so the bytes are csv.writer's
    spectrum = tmp_path / "tower.json"
    spectrum.write_text(qnm_to_json(_TOWER))
    files = {"ZEROS": str(zeros5[1]), "SPECTRUM": str(spectrum)}
    tables = []
    emit = scan_cli._emit_table

    def spy(columns, rows, args):
        tables.append((columns, rows))
        emit(columns, rows, args)
    monkeypatch.setattr(scan_cli, "_emit_table", spy)
    out = tmp_path / "table.csv"
    assert cli_dispatch([files.get(a, a) for a in argv] + ["--out", str(out)]) == 0
    (columns, rows), = tables
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([scan_cli._fmt(v, precise=True) for v in row] for row in rows)
    assert out.read_bytes() == want.getvalue().encode()


# four scans, then the two functions that need log-gamma, in one process
_SCIPY_FREE_START = """
import math, sys
from spectral_zeros.qnm import load_qnm_file, one_loop_log_partition
from spectral_zeros.scan_cli import cli_dispatch
from spectral_zeros.zeta import find_zeros

zeros_file, spectrum, out = sys.argv[1:]
grid = ["--region", "-1", "1", "-1", "1", "--cols", "4", "--rows", "4", "--out", out]
for argv in (["--evaluator", "oscillator_closed"], ["--evaluator", "oscillator_product"],
             ["--evaluator", "zeta_hadamard", "--zeros-file", zeros_file],
             ["--evaluator", "qnm_conjectured", "--spectrum", spectrum]):
    assert cli_dispatch(["scan", *argv, *grid]) == 0, argv
assert "scipy" not in sys.modules
assert len(find_zeros(5)) == 5
assert math.isfinite(one_loop_log_partition(load_qnm_file(spectrum)).real)
assert "scipy.special" in sys.modules
"""


def test_scans_start_without_scipy(tmp_path, zeros5):
    # only the QNM one-loop sum and zero finding need log-gamma, and they
    # import scipy.special on their first call: no scan loads scipy
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(_SPECTRUM)
    src = str(Path(scan_cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_START, str(zeros5[1]),
                           str(spectrum), str(tmp_path / "out.csv")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_numerical_failure_exits_2(monkeypatch, capsys):
    def failing_find_zeros(*args, **kwargs):
        raise ArithmeticError("located ordinate fails verification")
    monkeypatch.setattr(scan_cli, "find_zeros", failing_find_zeros)
    assert cli_dispatch(["zeta", "zeros", "--count", "3"]) == 2
    assert "fails verification" in capsys.readouterr().err


def test_cli_zeros_failing_verification_exits_2(monkeypatch, capsys):
    # find_zeros itself raises: |zeta| at every located ordinate is >= 1e-6
    critical_line = zeta.zeta_critical_line
    monkeypatch.setattr(zeta, "zeta_critical_line", lambda t: critical_line(t) + 1e-6)
    with pytest.raises(ArithmeticError, match="fails verification"):
        find_zeros(3)
    assert cli_dispatch(["zeta", "zeros", "--count", "3"]) == 2
    assert "fails verification" in capsys.readouterr().err


def test_cli_memory_error_exits_2(monkeypatch, capsys):
    # a grid too large to allocate; raised, not allocated: with overcommit the
    # allocation itself succeeds and its writes get the process killed
    def grid_scan_out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")
    monkeypatch.setattr(scan_cli, "grid_scan", grid_scan_out_of_memory)
    argv = ["scan", "--evaluator", "oscillator_closed", "--region", "0", "1", "0", "1",
            "--cols", "100000", "--rows", "100000", "--format", "pgm"]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 149. GiB for an array\n"


def test_cli_qnm_surface(tmp_path, capsys):
    spec = QNMSpectrum(modes=tuple(complex(0.0, -(n + 1.0)) for n in range(8)),
                       temperature=1.0 / TWO_PI, euclidean_action=1.0)
    f = tmp_path / "tower.json"
    f.write_text(qnm_to_json(spec))
    assert cli_dispatch(["qnm", "fit", "--spectrum", str(f)]) == 0
    assert "-1j" in capsys.readouterr().out.replace(" ", "")
    assert cli_dispatch(["qnm", "oneloop", "--spectrum", str(f)]) == 0
    out_csv = tmp_path / "qnm.csv"
    grid = ["--spectrum", str(f), "--region", "-0.5", "0.5", "-4.5", "-0.5",
            "--cols", "16", "--rows", "16"]
    assert cli_dispatch(["scan", "--evaluator", "qnm_conjectured", *grid,
                         "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[0] == "re,im,log_abs,arg,flag"


@pytest.mark.parametrize("argv, want", [
    (["oscillator", "--beta", "1500"], "closed_form   0+0j"),
    (["scan", "--evaluator", "oscillator_closed", "--region", "1400", "1500", "0.1", "1",
      "--cols", "4", "--rows", "4"], "flags: 0 pole, 4 zero"),    # Re beta = 1500: log|Z| = -750
    (["qnm", "oneloop", "--spectrum", "TOWER"], "400    1            720633.498815+0j  inf+0j"),
], ids=["oscillator", "scan", "qnm_oneloop"])
def test_cli_closed_form_far_field_answers(tmp_path, capsys, argv, want):
    # 1/(2 sinh(x/2)) overflowed in sinh for |Re x| > ~1420, and qnm oneloop
    # exponentiated the 400-mode tower's finite log Z with cmath.exp: each
    # exited 2 with "math range error".  Both now take result_from_log's
    # value, 0 below EXP_UNDERFLOW (a zero on the scan) and inf past 709.78
    tower = tmp_path / "tower.json"
    tower.write_text(qnm_to_json(synthetic_affine_tower(1.0, 400)))
    assert cli_dispatch([str(tower) if a == "TOWER" else a for a in argv]) == 0
    assert want in capsys.readouterr().out


@pytest.mark.parametrize("argv, evaluate", [
    (["oscillator", "--beta", "1e78"], lambda: pole_product_oscillator(1e78, 1.0)),
    (["oscillator", "--beta", "1e200"], lambda: pole_product_oscillator(1e200, 1.0)),
    (None, lambda: hadamard_product(1e150, find_zeros(10), 10)),
], ids=["oscillator_1e78", "oscillator_1e200", "hadamard_1e150"])
def test_error_estimates_survive_an_underflowing_value(capsys, argv, evaluate):
    # the estimates |Z| * err overflowed in err (|c|^2, |beta|^3) and raised
    # OverflowError; formed as 0 * inf they would be NaN, which
    # EvaluationResult rejects
    if argv is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_dispatch(argv) == 0
        assert "nan" not in capsys.readouterr().out
    r = evaluate()
    assert r.value == 0 and r.error_estimate == 0.0


def test_cli_zeta_compare_far_right_exits_0(capsys):
    # zeta_em's estimate was NaN there, which EvaluationResult rejects (exit 2)
    assert cli_dispatch(["zeta", "compare", "--re", "1e150", "--zero-count", "10"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "euler_maclaurin   1+0j" in out


def test_cli_scan_formats_are_deterministic(tmp_path):
    argv = ["scan", "--evaluator", "oscillator_closed",
            "--region", "-0.5", "0.5", "5.5", "7.1",
            "--cols", "32", "--rows", "32"]
    pairs = []
    for fmt in ("csv", "json", "pgm"):
        p1, p2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert cli_dispatch(argv + ["--format", fmt, "--out", str(p1)]) == 0
        assert cli_dispatch(argv + ["--format", fmt, "--out", str(p2)]) == 0
        pairs.append((p1.read_bytes(), p2.read_bytes()))
    for a, b in pairs:
        assert a == b
    meta = json.loads(pairs[1][0])["meta"]
    assert meta["evaluator"] == "oscillator_closed"
    assert meta["generator"].startswith("spectral-zeros ")
