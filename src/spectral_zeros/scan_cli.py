"""Complex-plane grid scans and the command-line surface.

A grid scan drives one of the named evaluators over a rectangle of the
complex plane and records log|Z| and arg Z per node; a pole or zero, an
infinite log Z from the evaluator, becomes a flag on the node.  Scans feed
three writers (CSV table, JSON document, PGM heatmap) meant for offline
plotting.  The whole grid is evaluated as one array: each evaluator is
the array kernel behind a library function (the function itself is a
one-node call of it), which works through the nodes in chunks of at
most core.CHUNK_ELEMENTS node x factor elements, so memory stays flat
whatever the resolution (zeta_em_array calls zeta_em once per node).
Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .core import EXP_UNDERFLOW, TWO_PI
from .product_forms import pole_product_oscillator, pole_product_oscillator_array
from .qnm import (
    QNMSpectrum,
    asymptotic_spacing_fit,
    conjectured_partition_log_array,
    load_qnm_file,
    one_loop_log_partition,
)
from .spectra import (
    closed_form_affine_array,
    closed_form_oscillator,
    oscillator,
    partition_direct,
)
from .zeta import (
    euler_product,
    explicit_formula_psi,
    find_zeros,
    hadamard_product,
    hadamard_product_array,
    ingest_zeros_file,
    psi_direct,
    zeta_em,
    zeta_em_array,
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
    if not all(map(math.isfinite, region)):
        raise ValueError(f"scan region must be finite, got {list(region)}")
    # linspace over a width that overflows gives inf and nan nodes
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise ValueError(f"scan region width must be finite, got {list(region)}")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError("degenerate scan region")


@dataclass(frozen=True, eq=False)
class GridScan:
    """Row-major rectangle of log|Z| / arg Z samples, held as arrays.

    Node index = row*cols + col, rows running from im_min upward; the
    node coordinates come from the same linspace axes every consumer
    uses, so CSV output and the locators agree bit for bit.  ``log_abs``
    and ``arg`` are finite float arrays and ``flags`` a string array
    ("", "zero" or "pole"), each of length cols*rows, filled by one
    whole-grid evaluation (see grid_scan).
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
        # the writers format floats with repr, which json writes only for finite ones
        if not (np.isfinite(self.log_abs).all() and np.isfinite(self.arg).all()):
            raise ValueError("log_abs and arg must be finite")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        re_min, re_max, im_min, im_max = self.region
        cols, rows = self.resolution
        return np.linspace(re_min, re_max, cols), np.linspace(im_min, im_max, rows)

    def flag_count(self, flag: str) -> int:
        return int(np.count_nonzero(self.flags == flag))


# ----------------------------------------------------------------- evaluators

# Each builder binds its keyword parameters, with their defaults, to an
# array evaluator: a complex array of nodes -> log Z per node, +inf at a
# pole and Re -inf at a zero the kernel detects (a product kernel's error
# estimates and term counts are dropped).  The closures look up the array
# kernels as module globals at call time, so a name replaced in this
# module (to trace or count calls) is seen by every later scan.

def _oscillator_closed(e0=1.0):
    spec = oscillator(float(e0))
    return lambda z: closed_form_affine_array(z, spec.offset, spec.gap)


def _oscillator_product(e0=1.0, n_factors=1000):
    e0, n_factors = float(e0), int(n_factors)
    return lambda z: pole_product_oscillator_array(z, e0, n_factors)[0]


def _zeta_em(cutoff=None):
    # None is adaptive: it keeps the truncation window valid over any region
    cutoff = None if cutoff is None else int(cutoff)
    return lambda z: zeta_em_array(z, cutoff)


def _zero_table(zeros, zero_count):
    """(table, count), the one way the CLI and the zeta_hadamard scan get
    zeros: a table as given, a path ingested, else find_zeros(zero_count),
    of 100 zeros for no count or one below 1; the count is the whole table
    unless zero_count is given, and the kernels reject it if out of range."""
    if isinstance(zeros, (str, os.PathLike)):
        zeros = ingest_zeros_file(zeros)
    elif zeros is None:
        n = int(zero_count or 0)
        zeros = find_zeros(n if n > 0 else 100)
    return zeros, len(zeros) if zero_count is None else int(zero_count)


def _zeta_hadamard(zeros=None, zero_count=None):
    zeros, k = _zero_table(zeros, zero_count)
    return lambda z: hadamard_product_array(z, zeros, k)[0]


def _qnm_conjectured(spectrum=None):
    if spectrum is None:
        raise ValueError("qnm_conjectured needs a spectrum (QNMSpectrum or file path)")
    if not isinstance(spectrum, QNMSpectrum):
        spectrum = load_qnm_file(spectrum)
    return lambda z: conjectured_partition_log_array(z, spectrum)[0]


_EVALUATORS = {
    "oscillator_closed": _oscillator_closed,
    "oscillator_product": _oscillator_product,
    "zeta_em": _zeta_em,
    "zeta_hadamard": _zeta_hadamard,
    "qnm_conjectured": _qnm_conjectured,
}


def make_evaluator(name: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Bind a named evaluator and its parameters to an array evaluator.

    The evaluator takes a complex array of nodes and returns the complex
    log Z of each node (+inf at a pole, real part -inf at a zero), which
    grid_scan flags and normalizes.  Unknown names and leftover parameters
    raise ValueError before any setup work (zero finding, file loading) is done.
    """
    builder = _EVALUATORS.get(name)
    if builder is None:
        raise ValueError(f"unknown evaluator: {name!r}")
    code = builder.__code__   # no builder takes *args or keyword-only parameters
    unexpected = params.keys() - set(code.co_varnames[:code.co_argcount])
    if unexpected:
        raise ValueError(f"unexpected parameters for {name}: {sorted(unexpected)}")
    return builder(**params)


def grid_scan(evaluator: str, region: Region, resolution: Resolution,
              params: dict | None = None) -> GridScan:
    """Sample log|Z| and arg Z of a named evaluator on a rectangle.

    The whole grid goes to the evaluator as one array (its kernel works
    through it in chunks of bounded memory), and one normalization
    follows, the one place flags are written: a node with Re log Z below
    EXP_UNDERFLOW is a "zero", any other non-finite log Z a "pole".  Flagged
    nodes get log_abs +-745 and arg 0; log_abs is clamped to +-745 and arg
    reduced to its principal value.  Identical calls give identical arrays.
    """
    region = tuple(float(x) for x in region)
    resolution = tuple(int(n) for n in resolution)
    _check_grid(region, resolution)
    fn = make_evaluator(evaluator, **(params or {}))
    re_min, re_max, im_min, im_max = region
    cols, rows = resolution
    z = np.empty((rows, cols), dtype=complex)
    z.real, z.imag = np.linspace(re_min, re_max, cols), np.linspace(im_min, im_max, rows)[:, None]
    log_z = fn(z.ravel())
    # in place from here on: a whole-grid temporary is as large as the scan
    del z
    zero = log_z.real < EXP_UNDERFLOW
    pole = ~zero & ~np.isfinite(log_z)
    log_abs = np.clip(log_z.real, -LOG_CLAMP, LOG_CLAMP)
    arg = np.fmod(log_z.imag, TWO_PI)       # exact, as is the one shift by 2 pi below
    del log_z
    arg[arg > math.pi] -= TWO_PI
    arg[arg < -math.pi] += TWO_PI
    log_abs[zero], log_abs[pole] = -LOG_CLAMP, LOG_CLAMP
    arg[zero | pole] = 0.0
    return GridScan(region=region, resolution=resolution, log_abs=log_abs, arg=arg,
                    flags=np.where(zero, "zero", np.where(pole, "pole", "")))


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
    re_axis, im_axis = scan.axes()
    rows, cols = np.divmod(hits, scan.resolution[0])
    return [complex(x, y) for x, y in zip(re_axis[cols].tolist(), im_axis[rows].tolist())]


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

def _grid_rows(scan: GridScan, sep: str, flag_text: Callable[[str], str]):
    """The text of the nodes, one string per grid row, im_min first.

    A node is re,im,log_abs,arg,flag: the floats in repr, the flag
    through flag_text.  Nodes are joined by sep, and every row after the
    first starts with sep, so the rows concatenate to the whole node
    list.  Each axis value is formatted once.
    """
    re_axis, im_axis = scan.axes()
    re_text = [repr(x) for x in re_axis.tolist()]
    cols, lead = len(re_text), ""
    for start, y in zip(range(0, scan.flags.size, cols), im_axis.tolist()):
        part = slice(start, start + cols)
        flags = scan.flags[part].tolist()
        text = {f: flag_text(f) for f in set(flags)}
        yield lead + sep.join(map(",".join, zip(
            re_text, itertools.repeat(repr(y)), map(repr, scan.log_abs[part].tolist()),
            map(repr, scan.arg[part].tolist()), map(text.__getitem__, flags))))
        lead = sep


def write_csv(scan: GridScan, path) -> None:
    """One line per node, row-major; header re,im,log_abs,arg,flag.

    Floats are written with repr (shortest round-trip form), so files
    are byte-stable across runs.  The file is written one grid row at a
    time, so memory stays flat whatever the resolution.
    """
    with open(path, "w", newline="") as fh:
        fh.write("re,im,log_abs,arg,flag\n")
        fh.writelines(_grid_rows(scan, "\n", str))
        fh.write("\n")


# stands in for the node list in the document that write_json dumps
_NODES = "nodes placeholder"


def write_json(scan: GridScan, path, meta: dict | None = None) -> None:
    """A sorted-key document: meta (if given), nodes as
    [re, im, log_abs, arg, flag] lists in row-major order, region and
    resolution.

    Floats are written with repr, as json writes them.  The node list is
    written one grid row at a time, so memory stays flat whatever the
    resolution.
    """
    doc = {"region": list(scan.region), "resolution": list(scan.resolution), "nodes": _NODES}
    if meta is not None:
        doc["meta"] = meta
    # only region and resolution, plain numbers, follow the node list
    head, _, tail = json.dumps(doc, sort_keys=True, separators=(",", ":")).rpartition(
        json.dumps(_NODES))
    with open(path, "w") as fh:
        fh.write(head + "[[")
        fh.writelines(_grid_rows(scan, "],[", json.dumps))
        fh.write("]]" + tail + "\n")


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
    if isinstance(v, (float, complex)):
        return repr(v) if precise else format(v, ".12g")
    return str(v)


def _print_table(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [list(columns)] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _emit_table(columns: Sequence[str], rows: Sequence[Sequence], args) -> None:
    if args.out is None:
        _print_table(columns, rows)
        return
    # no field holds a comma, a quote or a newline, so none needs quoting
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(_fmt(v, precise=True) for v in row) + "\n" for row in rows)


def _emit_scan(scan: GridScan, args) -> None:
    if args.out is None:
        poles, zeros = scan.flag_count("pole"), scan.flag_count("zero")
        finite = scan.log_abs[scan.flags == ""]
        print(f"scan {args.evaluator}: {scan.resolution[0]}x{scan.resolution[1]} nodes "
              f"over [{scan.region[0]:g},{scan.region[1]:g}]x[{scan.region[2]:g},{scan.region[3]:g}]")
        print(f"flags: {poles} pole, {zeros} zero")
        if finite.size:
            print(f"log|Z| range: {finite.min():.6g} .. {finite.max():.6g}")
        for z in locate_poles(scan)[:8]:
            print(f"pole candidate near {z:.6g}")
        for z in locate_zeros(scan)[:8]:
            print(f"zero candidate near {z:.6g}")
        return
    if args.format == "csv":
        write_csv(scan, args.out)
    elif args.format == "json":
        write_json(scan, args.out, meta={"evaluator": args.evaluator,
                                         "generator": f"spectral-zeros {__version__}"})
    else:
        write_pgm(scan, args.out)


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


def _cmd_zeta_compare(args) -> int:
    s = complex(args.re, args.im)
    em = zeta_em(s, cutoff=args.cutoff)
    euler = euler_product(s, args.prime_limit)
    had = hadamard_product(s, *_zero_table(args.zeros, args.zero_count))
    rows = [
        ["euler_maclaurin", em.value, 0.0, em.error_estimate],
        ["euler_product", euler.value, abs(euler.value - em.value), euler.error_estimate],
        ["hadamard_product", had.value, abs(had.value - em.value), had.error_estimate],
    ]
    _emit_table(["method", "value", "abs_diff_vs_em", "error_estimate"], rows, args)
    return 0


def _cmd_zeta_zeros(args) -> int:
    table = find_zeros(args.count)
    lines = [repr(g) for g in table.ordinates]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_zeta_explicit(args) -> int:
    approx = explicit_formula_psi(args.x, *_zero_table(args.zeros, args.zero_count))
    direct = psi_direct(args.x)
    rows = [[args.x, direct, approx.value.real, abs(approx.value.real - direct),
             approx.terms_used]]
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


def _cmd_scan(args) -> int:
    params = {k: v for k in ("e0", "n_factors", "cutoff", "zero_count", "zeros", "spectrum")
              if (v := getattr(args, k)) is not None}
    scan = grid_scan(args.evaluator, tuple(args.region), (args.cols, args.rows),
                     params=params)
    _emit_scan(scan, args)
    return 0


def _table_out_args(p) -> None:
    p.add_argument("--out", default=None, help="write the table as CSV instead of printing")


def _zeros_args(p) -> None:
    p.add_argument("--zero-count", type=int, default=None,
                   help="zeros to use: default the whole --zeros-file, or 100 found by "
                        "find_zeros without one; a count beyond the table exits 2")
    p.add_argument("--zeros-file", dest="zeros", metavar="ZEROS_FILE", default=None)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent notation
    (-1e5, -1E+300) as a value; argparse's own pattern reads only forms
    like -12 and -1.5 as numbers and takes the rest for options.  Its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state."""
    p = _Parser(
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
    _zeros_args(zc)
    _table_out_args(zc)
    zc.set_defaults(func=_cmd_zeta_compare)

    zz = zsub.add_parser("zeros", help="critical-line ordinates, one per line")
    zz.add_argument("--count", type=int, required=True)
    zz.add_argument("--out", default=None)
    zz.set_defaults(func=_cmd_zeta_zeros)

    ze = zsub.add_parser("explicit", help="Chebyshev psi from zeros vs direct count")
    ze.add_argument("--x", type=float, required=True)
    _zeros_args(ze)
    _table_out_args(ze)
    ze.set_defaults(func=_cmd_zeta_explicit)

    qnm_p = sub.add_parser("qnm", help="quasinormal-mode determinants")
    qsub = qnm_p.add_subparsers(dest="qnm_command", required=True)

    qo = qsub.add_parser("oneloop", help="one-loop log partition from a mode file")
    qo.add_argument("--spectrum", required=True)
    qo.add_argument("--delta", type=float, default=0.0)
    _table_out_args(qo)
    qo.set_defaults(func=_cmd_qnm_oneloop)

    qf = qsub.add_parser("fit", help="asymptotic spacing fit of the mode tail")
    qf.add_argument("--spectrum", required=True)
    qf.add_argument("--tail-fraction", type=float, default=1.0)
    _table_out_args(qf)
    qf.set_defaults(func=_cmd_qnm_fit)

    sc = sub.add_parser("scan", help="grid scan of a named evaluator")
    sc.add_argument("--evaluator", required=True, choices=list(_EVALUATORS))
    sc.add_argument("--region", type=float, nargs=4, required=True,
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sc.add_argument("--cols", type=int, default=64)
    sc.add_argument("--rows", type=int, default=64)
    sc.add_argument("--out", default=None)
    sc.add_argument("--format", choices=["csv", "json", "pgm"], default="csv")
    sc.add_argument("--e0", type=float, default=None)
    sc.add_argument("--n-factors", type=int, default=None)
    sc.add_argument("--cutoff", type=int, default=None)
    _zeros_args(sc)
    sc.add_argument("--spectrum", default=None)
    sc.set_defaults(func=_cmd_scan)

    return p


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse and run; 0 success, 1 usage error, 2 numerical, file or memory error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        # every float flag must be finite, checked before any work like --region
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
