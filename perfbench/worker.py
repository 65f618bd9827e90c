"""One workload process: set up, run timed passes, then check the outputs.

Started by run.py with the checkout's src/ on PYTHONPATH.  It prints
``READY`` once the package is imported and the workload's input files
are loaded (run.py times interpreter start up to that line as setup).
Unless --setup-only, it then runs passes for --seconds and prints one
JSON line with the raw measurements, and with --check also the output
check verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 2   # per pass kind and process


class Workload:
    """The library modules, the loaded inputs and the pass body."""

    def __init__(self, spec: dict, tracer_factory=None):
        t = time.perf_counter()
        import spectral_zeros.scan_cli as scan_cli
        self.import_s = time.perf_counter() - t
        src = Path(__file__).resolve().parent.parent / "src"
        if src not in Path(scan_cli.__file__).resolve().parents:
            raise SystemExit(f"spectral_zeros imported from {scan_cli.__file__}, not from {src}")
        from spectral_zeros import core, product_forms, qnm, spectra, zeta
        self.mods = {"scan_cli": scan_cli, "zeta": zeta, "qnm": qnm, "core": core,
                     "spectra": spectra, "product_forms": product_forms}
        self.tracer = tracer_factory(self.mods) if tracer_factory else None
        if self.tracer is not None:
            self.tracer.install()
        self.spec = spec
        self.kind = spec["workload"]
        # setup ends with the workload's input files loaded
        if self.kind == "plane_scan":
            qnm.load_qnm_file(spec["qnm_file"])
            zeta.ingest_zeros_file(spec["zeros_file"])
        elif self.kind == "zeta_zeros":
            self.zeros = zeta.ingest_zeros_file(spec["zeros_file"])

    def run_pass(self) -> tuple[float, list[tuple[str, float, object]]]:
        """One pass; returns its wall time and (op, seconds, result) per op."""
        ops = []
        clock = time.perf_counter
        tracer = self.tracer

        def timed(name, fn, *args, **kwargs):
            if tracer is not None:
                tracer.op_id += 1
            t = clock()
            result = fn(*args, **kwargs)
            ops.append((name, clock() - t, result))

        # ext4 flushes a file that is truncated and rewritten; writing fresh
        # files keeps that kernel flush out of the writers' times
        for sc in self.spec.get("scans", ()):
            Path(sc["out"]).unlink(missing_ok=True)
        t_pass = clock()
        if self.kind in ("plane_scan", "plane_write"):
            scan_cli = self.mods["scan_cli"]
            for sc in self.spec["scans"]:
                timed(f"scan:{sc['evaluator']}:{sc['format']}", scan_cli.cli_dispatch, sc["argv"])
        else:
            zeta = self.mods["zeta"]
            spec, zeros = self.spec, self.zeros
            timed("find_zeros", zeta.find_zeros, spec["find_zeros_count"])
            for re, im in spec["compare"]:
                s = complex(re, im)
                timed("zeta_em", zeta.zeta_em, s, cutoff=spec["cutoff"])
                timed("euler_product", zeta.euler_product, s, spec["prime_limit"])
                timed("hadamard_product", zeta.hadamard_product, s, zeros,
                      spec["compare_zero_count"])
            for x in spec["explicit"]:
                timed("explicit_formula_psi", zeta.explicit_formula_psi, x, zeros,
                      spec["explicit_zero_count"])
                timed("psi_direct", zeta.psi_direct, x)
        return clock() - t_pass, ops

    def digest(self, ops) -> str:
        """Hash of every output of one pass, compared across passes and processes."""
        h = hashlib.sha256()
        for sc, (_, _, res) in zip(self.spec.get("scans", ()), ops):
            h.update(repr(res).encode())
            h.update(Path(sc["out"]).read_bytes())
        if self.kind == "zeta_zeros":
            for _, _, res in ops:
                h.update(repr(res).encode())
        return h.hexdigest()


def observed_workers(wl) -> int:
    """Threads that evaluate nodes in one small grid scan, counted by
    wrapping the evaluator's scalar function for the duration.  Nodes
    cost ~0.1 ms each, long enough for every pool thread to take rows."""
    import threading
    scan_cli = wl.mods["scan_cli"]
    fn = scan_cli.pole_product_oscillator
    seen = set()

    def spy(*a, **kw):
        seen.add(threading.get_ident())
        return fn(*a, **kw)

    scan_cli.pole_product_oscillator = spy
    try:
        scan_cli.grid_scan("oscillator_product", (-1.0, 1.0, 0.5, 1.5), (8, 32))
    finally:
        scan_cli.pole_product_oscillator = fn
    return len(seen)


def _summarize(aggs: list[dict]) -> dict:
    """Mean per pass of each span's calls, seconds, self seconds and work
    count, and the median duration of one call."""
    out: dict = {}
    n = len(aggs)
    for name in sorted({k for agg in aggs for k in agg}):
        recs = [agg[name] for agg in aggs if name in agg]
        out[name] = {key: sum(r[key] for r in recs) / n
                     for key in ("calls", "s", "self_s", "count")}
        out[name]["median_call_s"] = statistics.median(d for r in recs for d in r["durations"])
    return out


def _scan_records(spec: dict, spans: list) -> list[dict]:
    """Per grid_scan of one pass: evaluator, wall, nodes, busy time, threads."""
    from spans import POOL_OWNER, scan_children_busy
    busy = scan_children_busy(spans)
    scans = sorted((s for s in spans if s[0] == POOL_OWNER), key=lambda s: s[1])
    return [{"evaluator": sc["evaluator"], "s": (s[2] - s[1]) * 1e-9, "nodes": s[7],
             "busy_s": busy[s[3]][0], "threads": busy[s[3]][1]}
            for sc, s in zip(spec.get("scans", ()), scans)]


# traced runs cycle through these pass kinds; untraced runs use only "none"
PASS_KINDS = ("none", "coarse", "full")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true", help="check the outputs after the passes")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())

    factory = None
    if args.trace:
        from spans import Tracer
        factory = Tracer
    wl = Workload(spec, factory)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = wl.tracer
    kinds = PASS_KINDS if tracer else PASS_KINDS[:1]
    pass_s: dict[str, list[float]] = {k: [] for k in kinds}
    aggs: dict[str, list[dict]] = {k: [] for k in kinds}
    scan_recs: dict[str, list[dict]] = {k: [] for k in kinds}
    op_times: dict[str, list[float]] = {}
    digests: list[str] = []
    if tracer:
        from spans import aggregate, write_spans
        setup_spans = tracer.drain()
        kept_spans = list(setup_spans)
    started = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if tracer:
            tracer.uninstall() if kind == "none" else tracer.install(fine=kind == "full")
        dt, ops = wl.run_pass()
        pass_s[kind].append(dt)
        if kind == "none":
            for name, t, _ in ops:
                op_times.setdefault(name, []).append(t)
        else:
            spans = tracer.drain()
            aggs[kind].append(aggregate(spans))
            scan_recs[kind].extend(_scan_records(spec, spans))
            if kind == "full":
                kept_spans = setup_spans + spans
        digests.append(wl.digest(ops))
        i += 1
        enough = all(len(v) >= MIN_PASSES for v in pass_s.values())
        if enough and time.perf_counter() - started >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    result = {
        "import_s": wl.import_s,
        "pass_s": pass_s,
        "op_times": op_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
    }
    if args.check:
        import checks
        result["workers"] = observed_workers(wl)
        result["verdict"] = checks.run(wl, ops)
    if tracer:
        result["layers"] = {k: _summarize(aggs[k]) for k in kinds[1:]}
        result["setup_layers"] = _summarize([aggregate(setup_spans)]) if setup_spans else {}
        result["scans"] = scan_recs
        trace_path = Path(spec["work"]).parent / f"{spec['workload']}-seed{spec['seed']}.spans.csv.gz"
        write_spans(kept_spans, trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
