"""Complex-plane grid scans and the command-line surface.

A grid scan drives one of the named evaluators over a rectangle of the
complex plane and records log|Z| and arg Z per node; pole and zero hits
become flags on the node instead of propagating as errors.  Scans feed
three writers (CSV table, JSON document, PGM heatmap) meant for offline
plotting.  Nodes are evaluated one after another on the calling thread,
in node-index order, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .core import (
    EvaluationResult,
    PoleError,
    PoleHitSignal,
    TWO_PI,
    ZeroFactorSignal,
    ZeroHitSignal,
)
from .product_forms import pole_product_oscillator
from .qnm import (
    QNMSpectrum,
    asymptotic_spacing_fit,
    conjectured_partition_log,
    load_qnm_file,
    one_loop_log_partition,
)
from .spectra import closed_form_oscillator, oscillator, partition_direct
from .zeta import (
    _adaptive_cutoff,
    euler_product,
    explicit_formula_psi,
    find_zeros,
    hadamard_product,
    ingest_zeros_file,
    psi_direct,
    zeta_em,
)

# exp() is representable between roughly exp(-745) and exp(709); the
# clamp keeps flagged nodes loadable by naive CSV parsers
LOG_CLAMP = 745.0

Region = tuple[float, float, float, float]
Resolution = tuple[int, int]


def _check_grid(region: Region, resolution: Resolution) -> None:
    re_min, re_max, im_min, im_max = region
    cols, rows = resolution
    if cols < 1 or rows < 1:
        raise ValueError("resolution must be positive")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("degenerate scan region")


@dataclass(frozen=True, eq=False)
class GridScan:
    """Row-major rectangle of log|Z| / arg Z samples, held as arrays.

    Node index = row*cols + col, rows running from im_min upward; the
    node coordinates come from the same linspace axes every consumer
    uses, so CSV output and the locators agree bit for bit.  ``log_abs``
    and ``arg`` are float arrays and ``flags`` a string array ("",
    "zero" or "pole"), each of length cols*rows.
    """

    region: Region
    resolution: Resolution
    log_abs: np.ndarray
    arg: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        _check_grid(self.region, self.resolution)
        cols, rows = self.resolution
        if not len(self.log_abs) == len(self.arg) == len(self.flags) == cols * rows:
            raise ValueError("node arrays must have length cols*rows")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        re_min, re_max, im_min, im_max = self.region
        cols, rows = self.resolution
        return np.linspace(re_min, re_max, cols), np.linspace(im_min, im_max, rows)

    def node_location(self, index: int) -> complex:
        cols, _ = self.resolution
        re_axis, im_axis = self.axes()
        row, col = divmod(index, cols)
        return complex(re_axis[col], im_axis[row])

    def flag_count(self, flag: str) -> int:
        return int(np.count_nonzero(self.flags == flag))


# ----------------------------------------------------------------- evaluators

_EVALUATOR_NAMES = (
    "oscillator_closed",
    "oscillator_product",
    "zeta_em",
    "zeta_hadamard",
    "qnm_conjectured",
)


def make_evaluator(name: str, **params) -> Callable[[complex], object]:
    """Bind a named evaluator and its parameters to a z -> value callable.

    The callable returns whatever the underlying routine returns (a bare
    complex or an EvaluationResult); grid_scan normalizes either.
    Unknown names and leftover parameters raise ValueError.
    """
    take = params.pop
    if name == "oscillator_closed":
        e0 = float(take("e0", 1.0))
        fn = lambda z: closed_form_oscillator(z, e0)
    elif name == "oscillator_product":
        e0 = float(take("e0", 1.0))
        n_factors = int(take("n_factors", 1000))
        fn = lambda z: pole_product_oscillator(z, e0, n_factors=n_factors)
    elif name == "zeta_em":
        cutoff = take("cutoff", None)
        if cutoff is None:
            # adaptive: keeps the truncation window valid over any region
            fn = lambda z: zeta_em(z, cutoff=_adaptive_cutoff(z.imag))
        else:
            c = int(cutoff)
            fn = lambda z: zeta_em(z, cutoff=c)
    elif name == "zeta_hadamard":
        zeros = take("zeros", None)
        count = take("zero_count", None)
        if isinstance(zeros, (str, os.PathLike)):
            zeros = ingest_zeros_file(zeros)
        if zeros is None:
            zeros = find_zeros(int(count) if count is not None else 100)
        k = int(count) if count is not None else len(zeros)
        fn = lambda z: hadamard_product(z, zeros, k)
    elif name == "qnm_conjectured":
        spectrum = take("spectrum", None)
        if spectrum is None:
            raise ValueError("qnm_conjectured needs a spectrum (QNMSpectrum or file path)")
        if not isinstance(spectrum, QNMSpectrum):
            spectrum = load_qnm_file(spectrum)
        fn = lambda z: conjectured_partition_log(z, spectrum)
    else:
        raise ValueError(f"unknown evaluator: {name!r}")
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")
    return fn


def _evaluate_node(fn: Callable[[complex], object], z: complex) -> tuple[float, float, str]:
    """(log_abs, arg, flag) of one node; signals and exact zeros become flags."""
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
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            return LOG_CLAMP, 0.0, "pole"
        log_v = cmath.log(v)
    la, ph = float(log_v.real), float(log_v.imag)
    if not (math.isfinite(la) and math.isfinite(ph)):
        return LOG_CLAMP, 0.0, "pole"
    # winding streams can leave arg outside (-pi, pi]; report principal
    arg = math.remainder(ph, TWO_PI)
    return min(max(la, -LOG_CLAMP), LOG_CLAMP), arg, ""


def grid_scan(evaluator: str, region: Region, resolution: Resolution,
              params: dict | None = None) -> GridScan:
    """Sample log|Z| and arg Z of a named evaluator on a rectangle.

    Nodes that hit a pole or zero (signalled or value exactly 0) are
    flagged, with log_abs clamped to +-745.  Nodes are evaluated in
    index order on the calling thread, so scans are deterministic.
    """
    region = tuple(float(x) for x in region)
    resolution = tuple(int(n) for n in resolution)
    _check_grid(region, resolution)
    fn = make_evaluator(evaluator, **(params or {}))
    re_min, re_max, im_min, im_max = region
    cols, rows = resolution
    re_axis = np.linspace(re_min, re_max, cols).tolist()
    im_axis = np.linspace(im_min, im_max, rows).tolist()
    log_abs, arg, flags = zip(*(_evaluate_node(fn, complex(x, y))
                                for y in im_axis for x in re_axis))
    return GridScan(region=region, resolution=resolution, log_abs=np.array(log_abs),
                    arg=np.array(arg), flags=np.array(flags, dtype="U4"))


# ------------------------------------------------------------------- locators

def locate_poles(scan: GridScan) -> list[complex]:
    """Pole candidates: flagged nodes if the scan hit any, otherwise
    strict local maxima of log|Z| over the 8-neighborhood."""
    return _located(scan, "pole")


def locate_zeros(scan: GridScan) -> list[complex]:
    return _located(scan, "zero")


def _located(scan: GridScan, kind: str) -> list[complex]:
    hits = np.flatnonzero(scan.flags == kind)
    if not hits.size:
        cols, rows = scan.resolution
        vals = scan.log_abs.reshape(rows, cols)
        hits = np.flatnonzero(_strict_local_maxima(-vals if kind == "zero" else vals))
    return [scan.node_location(int(i)) for i in hits]


def _strict_local_maxima(vals: np.ndarray) -> np.ndarray:
    """Mask of the nodes greater than every one of their 8 neighbors (no
    plateau ties); the neighborhood is truncated at the grid edges."""
    rows, cols = vals.shape
    padded = np.pad(vals, 1, constant_values=-np.inf)
    mask = np.ones(vals.shape, dtype=bool)
    for dr, dc in itertools.product((0, 1, 2), repeat=2):
        if (dr, dc) != (1, 1):
            mask &= vals > padded[dr:dr + rows, dc:dc + cols]
    return mask


# -------------------------------------------------------------------- writers

def _node_rows(scan: GridScan):
    """(re, im, log_abs, arg, flag) per node in index order, as Python scalars."""
    re_axis, im_axis = (a.tolist() for a in scan.axes())
    return ((x, y, la, ph, flag) for (y, x), la, ph, flag in zip(
        itertools.product(im_axis, re_axis),
        scan.log_abs.tolist(), scan.arg.tolist(), scan.flags.tolist()))


def write_csv(scan: GridScan, path) -> None:
    """One row per node, row-major; header re,im,log_abs,arg,flag.

    Floats are written with repr (shortest round-trip form), so files
    are byte-stable across runs.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["re", "im", "log_abs", "arg", "flag"])
        w.writerows([repr(x), repr(y), repr(la), repr(ph), flag]
                    for x, y, la, ph, flag in _node_rows(scan))


def write_json(scan: GridScan, path, meta: dict | None = None) -> None:
    doc = {
        "region": list(scan.region),
        "resolution": list(scan.resolution),
        "nodes": list(_node_rows(scan)),
    }
    if meta is not None:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def write_pgm(scan: GridScan, path) -> None:
    """Binary P5 heatmap of log|Z|, im_max at the top row.

    Grayscale is the linear map of log|Z| clamped to its [p5, p95]
    percentile window; a constant field comes out black.
    """
    cols, rows = scan.resolution
    vals = np.clip(scan.log_abs, -LOG_CLAMP, LOG_CLAMP).reshape(rows, cols)
    lo, hi = np.percentile(vals, [5.0, 95.0])
    if hi <= lo:
        pixels = np.zeros((rows, cols), dtype=np.uint8)
    else:
        scaled = (np.clip(vals, lo, hi) - lo) / (hi - lo)
        pixels = np.rint(255.0 * scaled).astype(np.uint8)
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels[::-1].tobytes())


# ------------------------------------------------------------ table plumbing

def _fmt(v, precise: bool = False) -> str:
    if isinstance(v, float):
        return repr(v) if precise else format(v, ".12g")
    if isinstance(v, complex):
        return repr(v) if precise else format(v, ".12g")
    return str(v)


def _print_table(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [list(columns)] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _emit_table(columns: Sequence[str], rows: Sequence[Sequence], args) -> None:
    out = getattr(args, "out", None)
    if out is None:
        _print_table(columns, rows)
        return
    fmt = getattr(args, "format", None) or "csv"
    if fmt == "csv":
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(columns)
            for row in rows:
                w.writerow([_fmt(v, precise=True) for v in row])
    else:
        doc = {"columns": list(columns),
               "rows": [[_fmt(v, precise=True) for v in row] for row in rows]}
        Path(out).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _scan_meta(args, evaluator: str) -> dict | None:
    if getattr(args, "no_meta", False):
        return None
    return {"evaluator": evaluator, "generator": f"spectral-zeros {__version__}"}


def _emit_scan(scan: GridScan, args, evaluator: str) -> None:
    out = getattr(args, "out", None)
    if out is None:
        poles, zeros = scan.flag_count("pole"), scan.flag_count("zero")
        finite = scan.log_abs[scan.flags == ""]
        print(f"scan {evaluator}: {scan.resolution[0]}x{scan.resolution[1]} nodes "
              f"over [{scan.region[0]:g},{scan.region[1]:g}]x[{scan.region[2]:g},{scan.region[3]:g}]")
        print(f"flags: {poles} pole, {zeros} zero")
        if finite.size:
            print(f"log|Z| range: {finite.min():.6g} .. {finite.max():.6g}")
        for z in locate_poles(scan)[:8]:
            print(f"pole candidate near {z:.6g}")
        for z in locate_zeros(scan)[:8]:
            print(f"zero candidate near {z:.6g}")
        return
    fmt = getattr(args, "format", None) or "csv"
    if fmt == "csv":
        write_csv(scan, out)
    elif fmt == "json":
        write_json(scan, out, meta=_scan_meta(args, evaluator))
    else:
        write_pgm(scan, out)


# ------------------------------------------------------------------ commands

def _cmd_oscillator(args) -> int:
    beta = complex(args.beta, args.beta_im)
    spec = oscillator(args.e0)
    direct = partition_direct(spec, beta, n_terms=args.terms)
    closed = closed_form_oscillator(beta, args.e0)
    product = pole_product_oscillator(beta, args.e0, n_factors=args.factors)
    rows = [
        ["direct_sum", direct.value, abs(direct.value - closed), direct.error_estimate],
        ["closed_form", closed, 0.0, 0.0],
        ["pole_product", product.value, abs(product.value - closed), product.error_estimate],
    ]
    _emit_table(["method", "value", "abs_diff_vs_closed", "error_estimate"], rows, args)
    return 0


def _load_zero_table(args):
    if getattr(args, "zeros_file", None):
        return ingest_zeros_file(args.zeros_file)
    return find_zeros(args.zero_count)


def _cmd_zeta_compare(args) -> int:
    s = complex(args.re, args.im)
    em = zeta_em(s, cutoff=args.cutoff)
    euler = euler_product(s, args.prime_limit)
    zeros = _load_zero_table(args)
    had = hadamard_product(s, zeros, min(args.zero_count, len(zeros)))
    rows = [
        ["euler_maclaurin", em.value, 0.0, em.error_estimate],
        ["euler_product", euler.value, abs(euler.value - em.value), euler.error_estimate],
        ["hadamard_product", had.value, abs(had.value - em.value), had.error_estimate],
    ]
    _emit_table(["method", "value", "abs_diff_vs_em", "error_estimate"], rows, args)
    return 0


def _cmd_zeta_zeros(args) -> int:
    table = find_zeros(args.count, t_max=args.t_max)
    lines = [repr(g) for g in table.ordinates]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_zeta_explicit(args) -> int:
    zeros = _load_zero_table(args)
    count = min(args.zero_count, len(zeros))
    approx = explicit_formula_psi(args.x, zeros, count)
    direct = psi_direct(args.x)
    rows = [[args.x, direct, approx.value.real, abs(approx.value.real - direct), count]]
    _emit_table(["x", "psi_direct", "psi_from_zeros", "abs_err", "zeros_used"], rows, args)
    return 0


def _cmd_qnm_oneloop(args) -> int:
    spec = load_qnm_file(args.spectrum)
    log_z = one_loop_log_partition(spec, delta=args.delta)
    rows = [[len(spec.modes), spec.temperature, log_z, cmath.exp(log_z)]]
    _emit_table(["modes", "temperature", "log_partition", "partition"], rows, args)
    return 0


def _cmd_qnm_fit(args) -> int:
    spec = load_qnm_file(args.spectrum)
    fit = asymptotic_spacing_fit(spec, tail_fraction=args.tail_fraction)
    rows = [[len(spec.modes), fit.gap, fit.offset, fit.residual_rms]]
    _emit_table(["modes", "gap", "offset", "residual_rms"], rows, args)
    return 0


def _cmd_qnm_scan(args) -> int:
    spec = load_qnm_file(args.spectrum)
    scan = grid_scan("qnm_conjectured", tuple(args.region), (args.cols, args.rows),
                     params={"spectrum": spec})
    _emit_scan(scan, args, "qnm_conjectured")
    return 0


def _cmd_scan(args) -> int:
    params: dict = {}
    if args.e0 is not None:
        params["e0"] = args.e0
    if args.n_factors is not None:
        params["n_factors"] = args.n_factors
    if args.cutoff is not None:
        params["cutoff"] = args.cutoff
    if args.zero_count is not None:
        params["zero_count"] = args.zero_count
    if args.zeros_file is not None:
        params["zeros"] = args.zeros_file
    if args.spectrum is not None:
        params["spectrum"] = args.spectrum
    scan = grid_scan(args.evaluator, tuple(args.region), (args.cols, args.rows),
                     params=params)
    _emit_scan(scan, args, args.evaluator)
    return 0


def _table_out_args(p) -> None:
    p.add_argument("--out", default=None, help="write the table instead of printing")
    p.add_argument("--format", choices=["csv", "json"], default=None)


def _grid_args(p) -> None:
    p.add_argument("--region", type=float, nargs=4, required=True,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json", "pgm"], default=None)
    p.add_argument("--no-meta", action="store_true",
                   help="omit the metadata block from JSON output")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-zeros",
        description="partition functions from spectra and from their zeros/poles")
    sub = p.add_subparsers(dest="command", required=True)

    osc = sub.add_parser("oscillator",
                         help="compare direct sum, closed form and pole product")
    osc.add_argument("--beta", type=float, default=1.0)
    osc.add_argument("--beta-im", type=float, default=0.0)
    osc.add_argument("--e0", type=float, default=1.0)
    osc.add_argument("--terms", type=int, default=1000)
    osc.add_argument("--factors", type=int, default=100000)
    _table_out_args(osc)
    osc.set_defaults(func=_cmd_oscillator)

    zeta_p = sub.add_parser("zeta", help="zeta from its spectrum and from its zeros")
    zsub = zeta_p.add_subparsers(dest="zeta_command", required=True)

    zc = zsub.add_parser("compare",
                         help="Euler-Maclaurin vs Euler product vs Hadamard product")
    zc.add_argument("--re", type=float, default=2.0)
    zc.add_argument("--im", type=float, default=0.0)
    zc.add_argument("--cutoff", type=int, default=200)
    zc.add_argument("--prime-limit", type=int, default=100000)
    zc.add_argument("--zero-count", type=int, default=100)
    zc.add_argument("--zeros-file", default=None)
    _table_out_args(zc)
    zc.set_defaults(func=_cmd_zeta_compare)

    zz = zsub.add_parser("zeros", help="critical-line ordinates, one per line")
    zz.add_argument("--count", type=int, required=True)
    zz.add_argument("--t-max", type=float, default=None)
    zz.add_argument("--out", default=None)
    zz.set_defaults(func=_cmd_zeta_zeros)

    ze = zsub.add_parser("explicit", help="Chebyshev psi from zeros vs direct count")
    ze.add_argument("--x", type=float, required=True)
    ze.add_argument("--zero-count", type=int, default=100)
    ze.add_argument("--zeros-file", default=None)
    _table_out_args(ze)
    ze.set_defaults(func=_cmd_zeta_explicit)

    qnm_p = sub.add_parser("qnm", help="quasinormal-mode determinants")
    qsub = qnm_p.add_subparsers(dest="qnm_command", required=True)

    qo = qsub.add_parser("oneloop", help="one-loop log partition from a mode file")
    qo.add_argument("--spectrum", required=True)
    qo.add_argument("--delta", type=float, default=0.0)
    _table_out_args(qo)
    qo.set_defaults(func=_cmd_qnm_oneloop)

    qs = qsub.add_parser("scan", help="grid scan of the conjectured partition")
    qs.add_argument("--spectrum", required=True)
    _grid_args(qs)
    qs.set_defaults(func=_cmd_qnm_scan)

    qf = qsub.add_parser("fit", help="asymptotic spacing fit of the mode tail")
    qf.add_argument("--spectrum", required=True)
    qf.add_argument("--tail-fraction", type=float, default=1.0)
    _table_out_args(qf)
    qf.set_defaults(func=_cmd_qnm_fit)

    sc = sub.add_parser("scan", help="grid scan of a named evaluator")
    sc.add_argument("--evaluator", required=True, choices=list(_EVALUATOR_NAMES))
    _grid_args(sc)
    sc.add_argument("--e0", type=float, default=None)
    sc.add_argument("--n-factors", type=int, default=None)
    sc.add_argument("--cutoff", type=int, default=None)
    sc.add_argument("--zero-count", type=int, default=None)
    sc.add_argument("--zeros-file", default=None)
    sc.add_argument("--spectrum", default=None)
    sc.set_defaults(func=_cmd_scan)

    return p


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse and run; 0 success, 1 usage error, 2 numerical/file error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
