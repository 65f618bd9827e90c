"""Output checks, run after the timed passes.

Two kinds of verdict:

* consistency checks decide ``correct``: written files equal to the
  in-memory scan, scan nodes equal to the scalar public function.
  (run.py adds the last: outputs byte-identical across every pass of
  every process.)  A failure means the measurement
  itself cannot be trusted.
* result checks decide which operations ``failed``: a scan whose nodes
  disagree with an independent oracle or whose flags differ from the
  lattice points and modes planted in its region, a command that
  returned a non-zero code, a zero table that disagrees with the mpmath
  reference, a point evaluation outside its stated tolerance.  A wrong
  answer is counted, never hidden.

Tolerances, each stated once here:

* scan node vs scalar route: 1e-13 in log|Z| and in arg (mod 2 pi),
  relative to max(1, |log Z|); flags identical.
* oscillator_product vs the closed form: 2x the product's own
  error_estimate (relative) + 1e-12, in log.
* oscillator_closed vs mpmath: 1e-12 relative, in log.
* zeta_hadamard and hadamard_product vs mpmath.zeta: 2x the product's own
  error_estimate (relative) + 1e-10, in log.
* qnm_conjectured vs the mpmath sum -S_E + sum log(1 - z/z*): 1e-10, in log.
* zeta_em vs mpmath.zeta: 1e-10 relative (the documented ten digits)
  + error_estimate.
* euler_product vs mpmath.zeta: its error_estimate, absolute; this bounds
  sum_{n > limit} n^-Re(s), which contains every omitted term.
* explicit_formula_psi vs psi_direct: 0.2 + 0.002 x, acceptance
  criterion 8's 0.2 at x = 20, widened for x up to 100; points keep
  0.25 from the jumps at prime powers (largest error seen over 3000
  such points with 1000 zeros: 0.26 at x = 89, 68% of the tolerance).
* psi_direct vs an exact prime-power sum made here: 1e-12 relative.
* find_zeros ordinates vs the mpmath reference table: 1e-8 each.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
LOG_CLAMP = 745.0
SAMPLED_NODES = 40


class Verdict:
    def __init__(self, ops_per_pass: int):
        self.checks: list[dict] = []
        self.failed_ops: dict[int, str] = {}   # op index within a pass -> reason
        self.ops_per_pass = ops_per_pass
        self.facts: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    def fail_op(self, index: int, reason: str) -> None:
        self.failed_ops.setdefault(index, reason)

    def as_dict(self) -> dict:
        return {"checks": self.checks, "ops_per_pass": self.ops_per_pass,
                "failed_ops": {str(k): v for k, v in sorted(self.failed_ops.items())},
                "facts": self.facts}


def run(wl, ops) -> dict:
    """Check the outputs of the last pass; every pass has the same digest."""
    v = Verdict(len(ops))
    if wl.kind == "zeta_zeros":
        _check_zeta_zeros(wl, ops, v)
    else:
        for j, (sc, (_, _, rc)) in enumerate(zip(wl.spec["scans"], ops)):
            if rc != 0:
                v.fail_op(j, f"{sc['argv'][:3]} exited {rc}")
                continue
            _check_scan(wl, j, sc, v)
    return v.as_dict()


# ------------------------------------------------------------------ scans

def scan_arrays(scan):
    """(log_abs, arg, flag) arrays of a GridScan, row-major.

    Reads the tuple of GridNode, or per-node arrays named after the
    GridNode fields (ROADMAP item 2 plans scans held as arrays)."""
    values = getattr(scan, "values", None)
    if values is not None and len(values) and hasattr(values[0], "log_abs"):
        return (np.array([nd.log_abs for nd in values], dtype=float),
                np.array([nd.arg for nd in values], dtype=float),
                np.array([nd.flag for nd in values], dtype=object))
    flags = getattr(scan, "flags", getattr(scan, "flag", None))
    return (np.asarray(scan.log_abs, dtype=float).ravel(),
            np.asarray(scan.arg, dtype=float).ravel(),
            np.asarray(flags, dtype=object).ravel())


def _axes(sc):
    re_min, re_max, im_min, im_max = sc["region"]
    return np.linspace(re_min, re_max, sc["cols"]), np.linspace(im_min, im_max, sc["rows"])


def _node(log_v: complex):
    """Grid-node form of a complex log: clamped log|Z|, principal arg."""
    la, ph = float(log_v.real), float(log_v.imag)
    if not (math.isfinite(la) and math.isfinite(ph)):
        return LOG_CLAMP, 0.0, "pole"
    return min(max(la, -LOG_CLAMP), LOG_CLAMP), math.remainder(ph, TWO_PI), ""


def _scalar_node(mods, fn, z):
    """The scan contract applied to one scalar call: signals become flags."""
    core = mods["core"]
    try:
        r = fn(z)
    except (core.PoleError, core.PoleHitSignal):
        return (LOG_CLAMP, 0.0, "pole"), None
    except (core.ZeroHitSignal, core.ZeroFactorSignal):
        return (-LOG_CLAMP, 0.0, "zero"), None
    if isinstance(r, core.EvaluationResult):
        if r.value == 0:
            return (-LOG_CLAMP, 0.0, "zero"), r
        return _node(r.log_value), r
    v = complex(r)
    if v == 0:
        return (-LOG_CLAMP, 0.0, "zero"), None
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        return (LOG_CLAMP, 0.0, "pole"), None
    return _node(cmath.log(v)), None


def _log_gap(a: tuple[float, float], b: complex) -> float:
    """Distance between a node (log|Z|, arg) and a complex log, arg mod 2 pi."""
    return max(abs(a[0] - b.real), abs(math.remainder(a[1] - b.imag, TWO_PI)))


def _expected_flags(wl, sc, re_axis, im_axis) -> dict[int, str]:
    """Nodes that must be flagged, from the inputs planted in the region."""
    cols = sc["cols"]
    out = {}
    ev = sc["evaluator"]
    if ev in ("oscillator_product", "oscillator_closed"):
        # E0 = 2 pi: poles at beta = i k, k integer (k = 0 included)
        for i in np.flatnonzero(re_axis == 0.0):
            for j, y in enumerate(im_axis):
                if float(y).is_integer():
                    out[j * cols + int(i)] = "pole"
    elif ev == "qnm_conjectured":
        doc = json.loads(Path(sc["params"]["spectrum"]).read_text())
        modes = {complex(re, im) for re, im in doc["modes"]}
        for j, y in enumerate(im_axis):
            for i, x in enumerate(re_axis):
                if complex(x, y) in modes:
                    out[j * cols + i] = "zero"
    elif ev == "zeta_hadamard":
        gammas = [float(t) for t in Path(sc["params"]["zeros"]).read_text().split()]
        zeros = {complex(0.5, g) for g in gammas} | {complex(0.5, -g) for g in gammas}
        for j, y in enumerate(im_axis):
            for i, x in enumerate(re_axis):
                z = complex(x, y)
                if z == 1.0:
                    out[j * cols + i] = "pole"
                elif z in zeros or (y == 0.0 and x < 0 and x % 2 == 0):
                    out[j * cols + i] = "zero"
    return out


def _scalar_fn(wl, sc):
    m = wl.mods
    ev, p = sc["evaluator"], sc["params"]
    if ev == "oscillator_closed":
        return lambda z: m["spectra"].closed_form_oscillator(z, p["e0"])
    if ev == "oscillator_product":
        return lambda z: m["product_forms"].pole_product_oscillator(
            z, p["e0"], n_factors=p["n_factors"])
    if ev == "zeta_hadamard":
        table = m["zeta"].ingest_zeros_file(p["zeros"])
        return lambda z: m["zeta"].hadamard_product(z, table, len(table))
    spec = m["qnm"].load_qnm_file(p["spectrum"])
    return lambda z: m["qnm"].conjectured_partition_log(z, spec)


def _oracle(wl, sc):
    """Independent value of log Z at z and its tolerance, given the scalar result."""
    import mpmath
    mpmath.mp.dps = 30
    ev, p = sc["evaluator"], sc["params"]
    to_c = lambda w: complex(float(w.real), float(w.imag))
    if ev == "oscillator_product":
        def oracle(z, r):
            x = z * p["e0"]
            tol = 2.0 * r.error_estimate / abs(r.value) + 1e-12
            return -(math.log(2.0) + cmath.log(cmath.sinh(0.5 * x))), tol
    elif ev == "oscillator_closed":
        def oracle(z, r):
            logz = to_c(-mpmath.log(2 * mpmath.sinh(mpmath.mpc(z) * p["e0"] / 2)))
            return logz, 1e-12 * max(1.0, abs(logz))
    elif ev == "zeta_hadamard":
        def oracle(z, r):
            tol = 2.0 * r.error_estimate / abs(r.value) + 1e-10
            return to_c(mpmath.log(mpmath.zeta(mpmath.mpc(z)))), tol
    else:
        doc = json.loads(Path(p["spectrum"]).read_text())
        modes = [mpmath.mpc(re, im) for re, im in doc["modes"]]
        action = doc["action"]

        def oracle(z, r):
            zz = mpmath.mpc(z)
            total = -mpmath.mpf(action) + mpmath.fsum(mpmath.log(1 - zz / a) for a in modes)
            return to_c(total), 1e-10
    return oracle


def _check_writer(sc, log_abs, arg, flags, re_axis, im_axis, v: Verdict) -> None:
    cols, rows = sc["cols"], sc["rows"]
    path, fmt = Path(sc["out"]), sc["format"]
    name = f"{sc['evaluator']} {fmt} file equals the in-memory scan"
    if fmt == "pgm":
        data = path.read_bytes()
        header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
        if not v.check(name + " (header)", data.startswith(header), repr(data[:len(header)])):
            return
        pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
        if not v.check(name + " (size)", pixels.size == cols * rows, f"{pixels.size} pixels"):
            return
        vals = np.clip(log_abs, -LOG_CLAMP, LOG_CLAMP).reshape(rows, cols)
        lo, hi = np.percentile(vals, [5.0, 95.0])
        want = (np.zeros((rows, cols)) if hi <= lo
                else np.rint(255.0 * (np.clip(vals, lo, hi) - lo) / (hi - lo)))
        diff = np.abs(pixels.reshape(rows, cols).astype(int) - want[::-1].astype(int))
        v.check(name, int(diff.max()) <= 1, f"max pixel difference {int(diff.max())}")
        return
    re_n = np.tile(re_axis, rows)
    im_n = np.repeat(im_axis, cols)
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows_in = list(csv.reader(fh))
        header_ok = rows_in[0] == ["re", "im", "log_abs", "arg", "flag"]
        body = rows_in[1:]
        meta_ok = True
    else:
        doc = json.loads(path.read_text())
        header_ok = (doc["region"] == [float(x) for x in sc["region"]]
                     and doc["resolution"] == [cols, rows])
        meta_ok = doc.get("meta", {}).get("evaluator") == sc["evaluator"]
        body = doc["nodes"]
    if not v.check(name + " (header)", header_ok and meta_ok and len(body) == cols * rows,
                   f"{len(body)} nodes"):
        return
    cols_in = list(zip(*body))
    got = [np.array(cols_in[k], dtype=float) for k in range(4)]
    ok = (np.array_equal(got[0], re_n) and np.array_equal(got[1], im_n)
          and np.array_equal(got[2], log_abs) and np.array_equal(got[3], arg)
          and list(cols_in[4]) == list(flags))
    v.check(name, ok, f"{cols * rows} nodes compared exactly")


def _check_scan(wl, j: int, sc: dict, v: Verdict) -> None:
    scan_cli = wl.mods["scan_cli"]
    ev = sc["evaluator"]
    scan = scan_cli.grid_scan(ev, tuple(sc["region"]), (sc["cols"], sc["rows"]),
                              params=dict(sc["params"]))
    log_abs, arg, flags = scan_arrays(scan)
    re_axis, im_axis = _axes(sc)
    cols = sc["cols"]
    _check_writer(sc, log_abs, arg, flags, re_axis, im_axis, v)

    expected = _expected_flags(wl, sc, re_axis, im_axis)
    v.check(f"{ev} region plants at least one flag", len(expected) > 0,
            f"{len(expected)} planted")
    got = {int(i): str(flags[i]) for i in np.flatnonzero(flags != "")}
    key = f"{j}:{ev}:{sc['format']}"
    v.facts.setdefault("flagged_nodes", {})[key] = len(got)
    v.facts.setdefault("nodes", {})[key] = int(log_abs.size)
    if got != expected:
        extra = sorted(set(got.items()) - set(expected.items()))[:3]
        missing = sorted(set(expected.items()) - set(got.items()))[:3]
        v.fail_op(j, f"{ev}: flags differ from the planted lattice/modes "
                     f"(unexpected {extra}, missing {missing})")

    rng = random.Random(f"sample:{wl.spec['seed']}:{ev}")
    unflagged = [int(i) for i in np.flatnonzero(flags == "")]
    sample = sorted(set(rng.sample(unflagged, min(SAMPLED_NODES, len(unflagged))))
                    | set(expected) | set(got))
    fn = _scalar_fn(wl, sc)
    oracle = _oracle(wl, sc)
    worst_scalar = worst_oracle = 0.0
    for idx in sample:
        row, col = divmod(idx, cols)
        z = complex(re_axis[col], im_axis[row])
        node, r = _scalar_node(wl.mods, fn, z)
        scale = max(1.0, abs(node[0]))
        gap = max(abs(node[0] - log_abs[idx]),
                  abs(math.remainder(node[1] - arg[idx], TWO_PI))) / scale
        worst_scalar = max(worst_scalar, gap)
        if node[2] != flags[idx] or not gap <= 1e-13:
            v.check(f"{ev} node {idx} equals the scalar route", False,
                    f"z={z}: scan {(log_abs[idx], arg[idx], flags[idx])} scalar {node}")
        if node[2]:
            continue
        if r is None:
            r = fn(z)
        want, tol = oracle(z, r)
        err = _log_gap(node, want)
        worst_oracle = max(worst_oracle, err / tol)
        if not err <= tol:
            v.fail_op(j, f"{ev} at z={z}: |log Z - oracle| = {err:.3g} > {tol:.3g}")
    v.check(f"{ev} sampled nodes equal the scalar route", worst_scalar <= 1e-13,
            f"{len(sample)} nodes, worst {worst_scalar:.2g}")
    v.facts.setdefault("oracle_worst_over_tol", {})[key] = worst_oracle


# -------------------------------------------------------------- zeta_zeros

def _psi_exact(x: float) -> float:
    total = 0.0
    for n in range(2, int(math.floor(x)) + 1):
        p = next(d for d in range(2, n + 1) if n % d == 0)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            total += math.log(p)
    return total


def _check_zeta_zeros(wl, ops, v: Verdict) -> None:
    import mpmath
    from inputs import read_reference
    mpmath.mp.dps = 30
    reference = read_reference()
    worst: dict[str, float] = {}

    def judge(index, name, err, tol):
        worst[name] = max(worst.get(name, 0.0), err / tol)
        if not err <= tol:
            v.fail_op(index, f"{name}: error {err:.3g} > tolerance {tol:.3g}")

    zeta_cache: dict[complex, complex] = {}

    def zeta_at(s):
        if s not in zeta_cache:
            zeta_cache[s] = complex(mpmath.zeta(mpmath.mpc(s)))
        return zeta_cache[s]

    spec = wl.spec
    points = iter([complex(re, im) for re, im in spec["compare"] for _ in range(3)])
    xs = iter([x for x in spec["explicit"] for _ in range(2)])
    for idx, (name, _, res) in enumerate(ops):
        if name == "find_zeros":
            got = list(res.ordinates)
            n = len(reference)
            bad = [k for k in range(n) if k >= len(got) or abs(got[k] - reference[k]) > 1e-8]
            v.facts["find_zeros"] = {"count": len(got), "matched": n - len(bad),
                                     "first_bad_index": bad[0] if bad else None}
            if bad:
                k = bad[0]
                v.fail_op(idx, f"find_zeros({n}): ordinate #{k + 1} (index {k}) is "
                               f"{got[k]!r}, reference {reference[k]!r}; "
                               f"{len(bad)} of {n} ordinates wrong")
        elif name in ("zeta_em", "euler_product", "hadamard_product"):
            s = next(points)
            truth = zeta_at(s)
            if name == "zeta_em":
                judge(idx, name, abs(res.value - truth), 1e-10 * abs(truth) + res.error_estimate)
            elif name == "euler_product":
                judge(idx, name, abs(res.value - truth), res.error_estimate + 1e-12)
            else:
                err = abs(cmath.log(res.value / truth))
                judge(idx, name, err, 2.0 * res.error_estimate / abs(res.value) + 1e-10)
        elif name == "explicit_formula_psi":
            x = next(xs)
            judge(idx, name, abs(res.value.real - _psi_exact(x)), 0.2 + 0.002 * x)
        elif name == "psi_direct":
            x = next(xs)
            exact = _psi_exact(x)
            judge(idx, name, abs(res - exact), 1e-12 * max(1.0, exact))
    v.facts["worst_error_over_tol"] = worst
