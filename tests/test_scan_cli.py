import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spectral_zeros import scan_cli
from spectral_zeros.core import TWO_PI
from spectral_zeros.qnm import QNMSpectrum, qnm_to_json
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
from spectral_zeros.zeta import find_zeros, hadamard_product


def test_nodes_match_direct_evaluation():
    scan = grid_scan("oscillator_closed", (-0.5, 0.5, 0.5, 1.5), (5, 4))
    re_axis, im_axis = scan.axes()
    assert scan.log_abs.shape == scan.arg.shape == scan.flags.shape == (20,)
    for idx in range(20):
        row, col = divmod(idx, 5)
        z = complex(re_axis[col], im_axis[row])
        want = cmath.log(closed_form_oscillator(z, 1.0))
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


def test_zero_locus_minimum_within_one_cell():
    # off-grid mode: no flags, minimum of Re log Z still lands in its cell
    mode = 0.3012 - 0.7034j
    spec = QNMSpectrum(modes=(mode,), temperature=1.0)
    scan = grid_scan("qnm_conjectured", (0.27, 0.33, -0.73, -0.67), (7, 7),
                     params={"spectrum": spec})
    assert scan.flag_count("zero") == 0
    z = scan.node_location(int(np.argmin(scan.log_abs)))
    assert abs(z.real - mode.real) <= 0.0101
    assert abs(z.imag - mode.imag) <= 0.0101


def test_value_zero_is_flagged_as_zero():
    # trivial zero of zeta at -2 returns value 0 rather than a signal
    zeros = find_zeros(10)
    scan = grid_scan("zeta_hadamard", (-3.0, -1.0, -0.5, 0.5), (3, 3),
                     params={"zeros": zeros, "zero_count": 10})
    assert scan.flag_count("zero") == 1
    assert locate_zeros(scan) == [complex(-2.0, 0.0)]


def test_hadamard_evaluator_matches_library_call():
    zeros = find_zeros(10)
    fn = make_evaluator("zeta_hadamard", zeros=zeros, zero_count=10)
    assert fn(2.0 + 0.5j).value == hadamard_product(2.0 + 0.5j, zeros, 10).value


def test_unknown_evaluator_and_leftover_params():
    with pytest.raises(ValueError):
        make_evaluator("bogus")
    with pytest.raises(ValueError):
        make_evaluator("oscillator_closed", e0=1.0, cutoff=50)
    with pytest.raises(ValueError):
        make_evaluator("qnm_conjectured")


def test_grid_scan_validation():
    with pytest.raises(ValueError):
        grid_scan("oscillator_closed", (0.5, -0.5, 0.0, 1.0), (4, 4))
    with pytest.raises(ValueError):
        grid_scan("oscillator_closed", (0.0, 1.0, 0.0, 1.0), (0, 4))
    with pytest.raises(ValueError):
        GridScan(region=(0.0, 1.0, 0.0, 1.0), resolution=(2, 2),
                 log_abs=np.zeros(1), arg=np.zeros(1), flags=np.array([""]))


def test_scan_determinism():
    region, res = (-0.5, 0.5, 0.5, 2.5), (16, 16)
    a = grid_scan("oscillator_product", region, res)
    b = grid_scan("oscillator_product", region, res)
    for field in ("log_abs", "arg", "flags"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


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
    assert locate_poles(scan) == [scan.node_location(i) for i in _loop_local_maxima(vals)]
    assert locate_zeros(scan) == [scan.node_location(i) for i in _loop_local_maxima(-vals)]


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
    write_json(scan, p)
    assert "meta" not in json.loads(p.read_text())


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


def test_cli_oscillator_table(capsys):
    assert cli_dispatch(["oscillator", "--beta", "1", "--e0", "1"]) == 0
    outp = capsys.readouterr().out
    for name in ("direct_sum", "closed_form", "pole_product"):
        assert name in outp


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
], ids=["not_json", "no_modes", "no_temperature", "modes_not_list", "three_numbers"])
def test_cli_malformed_qnm_file_exits_2(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    for argv in (["qnm", "oneloop", "--spectrum", str(f)],
                 ["qnm", "scan", "--spectrum", str(f), "--region", "-1", "1", "-1", "1",
                  "--out", str(tmp_path / "s.csv")]):
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: ") and err.count("\n") == 1


def test_cli_numerical_failure_exits_2(monkeypatch, capsys):
    def failing_find_zeros(*args, **kwargs):
        raise ArithmeticError("located ordinate fails verification")
    monkeypatch.setattr(scan_cli, "find_zeros", failing_find_zeros)
    assert cli_dispatch(["zeta", "zeros", "--count", "3"]) == 2
    assert "fails verification" in capsys.readouterr().err


def test_cli_qnm_surface(tmp_path, capsys):
    spec = QNMSpectrum(modes=tuple(complex(0.0, -(n + 1.0)) for n in range(8)),
                       temperature=1.0 / TWO_PI, euclidean_action=1.0)
    f = tmp_path / "tower.json"
    f.write_text(qnm_to_json(spec))
    assert cli_dispatch(["qnm", "fit", "--spectrum", str(f)]) == 0
    assert "-1j" in capsys.readouterr().out.replace(" ", "")
    assert cli_dispatch(["qnm", "oneloop", "--spectrum", str(f)]) == 0
    out_csv = tmp_path / "qnm.csv"
    assert cli_dispatch(["qnm", "scan", "--spectrum", str(f),
                         "--region", "-0.5", "0.5", "-4.5", "-0.5",
                         "--cols", "16", "--rows", "16",
                         "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[0] == "re,im,log_abs,arg,flag"


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
    no_meta = tmp_path / "nm.json"
    assert cli_dispatch(argv + ["--format", "json", "--no-meta",
                                "--out", str(no_meta)]) == 0
    assert "meta" not in json.loads(no_meta.read_text())
