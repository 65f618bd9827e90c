"""In-memory span tracer wrapped around the library's public functions.

Spans are recorded from the benchmark's own files: each wrapper replaces
a function in the module namespace where callers look it up (for
example ``zeta.hardy_z`` inside ``find_zeros``), so the library source
is untouched.  ``install`` puts the wrappers in, ``uninstall`` restores
the originals, which lets one process alternate untraced, coarsely
traced and fully traced passes and measure the tracing overhead.

A span is ``(name, start_ns, end_ns, span_id, parent_id, op_id, thread,
count)``.  Each thread appends to its own buffer and keeps its own stack
of open spans, so the grid-scan pool threads never contend for a lock;
a thread whose stack is empty (a pool thread) takes as parent the
grid_scan span that owns the pool.  ``op_id`` is the benchmark
operation the span belongs to, shared by every span of one request.
"""

from __future__ import annotations

import gzip
import itertools
import os
import threading
import time
from collections import defaultdict

_NS = 1e-9


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _terms_used(args, kwargs, result):
    return getattr(result, "terms_used", 0)


def _n_factors(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "n_factors", 1000))


def _cutoff(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "cutoff", 100))


def _nodes(args, kwargs, result):
    cols, rows = _arg(args, kwargs, 2, "resolution")
    return int(cols) * int(rows)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _zeros_found(args, kwargs, result):
    return len(result)


# (module, attribute looked up there, span name, count of work done).
# A function is wrapped in every namespace its callers resolve it from.
# COARSE spans open a few times per operation; FINE spans open once per
# grid node or per zero-scan step and cost measurable time themselves.
COARSE = (
    ("scan_cli", "cli_dispatch", "scan_cli.cli_dispatch", None),
    ("scan_cli", "make_evaluator", "scan_cli.make_evaluator", None),
    ("scan_cli", "grid_scan", "scan_cli.grid_scan", _nodes),
    ("scan_cli", "write_csv", "scan_cli.write_csv", _bytes_written),
    ("scan_cli", "write_json", "scan_cli.write_json", _bytes_written),
    ("scan_cli", "write_pgm", "scan_cli.write_pgm", _bytes_written),
    ("scan_cli", "load_qnm_file", "qnm.load_qnm_file", None),
    ("scan_cli", "ingest_zeros_file", "zeta.ingest_zeros_file", None),
    ("scan_cli", "find_zeros", "zeta.find_zeros", _zeros_found),
    ("zeta", "find_zeros", "zeta.find_zeros", _zeros_found),
    ("zeta", "ingest_zeros_file", "zeta.ingest_zeros_file", None),
    ("qnm", "load_qnm_file", "qnm.load_qnm_file", None),
)
FINE = (
    ("scan_cli", "closed_form_oscillator", "spectra.closed_form_oscillator", None),
    ("scan_cli", "pole_product_oscillator", "product_forms.pole_product_oscillator",
     _n_factors),
    ("scan_cli", "conjectured_partition_log", "qnm.conjectured_partition_log", None),
    ("scan_cli", "hadamard_product", "zeta.hadamard_product", None),
    ("scan_cli", "zeta_em", "zeta.zeta_em", _cutoff),
    ("scan_cli", "euler_product", "zeta.euler_product", None),
    ("scan_cli", "explicit_formula_psi", "zeta.explicit_formula_psi", None),
    ("scan_cli", "psi_direct", "zeta.psi_direct", None),
    ("qnm", "general_weierstrass_eval", "product_forms.general_weierstrass_eval",
     _terms_used),
    ("qnm", "log_gamma", "core.log_gamma", None),
    ("zeta", "log_gamma", "core.log_gamma", None),
    ("zeta", "zeta_em", "zeta.zeta_em", _cutoff),
    ("zeta", "hardy_z", "zeta.hardy_z", None),
    ("zeta", "hadamard_product", "zeta.hadamard_product", None),
    ("zeta", "euler_product", "zeta.euler_product", None),
    ("zeta", "explicit_formula_psi", "zeta.explicit_formula_psi", None),
    ("zeta", "psi_direct", "zeta.psi_direct", None),
)

# the span whose pool threads inherit it as parent
POOL_OWNER = "scan_cli.grid_scan"


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._originals: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []
        self.pool_parent = None
        self.op_id = 0

    # ---------------------------------------------------------- recording

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.buffer = []
            with self._lock:
                self._buffers.append(local.buffer)
        return local

    def _wrap(self, fn, name, count):
        tracer = self
        owns_pool = name == POOL_OWNER

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else tracer.pool_parent
            sid = next(tracer._ids)
            stack.append(sid)
            if owns_pool:
                tracer.pool_parent = sid
            result = done = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if owns_pool:
                    tracer.pool_parent = parent
                n = count(args, kwargs, result) if count is not None and done else 0
                st.buffer.append((name, start, end, sid, parent, tracer.op_id,
                                  threading.get_ident(), n))

        traced.__wrapped__ = fn
        return traced

    def install(self, fine: bool = True) -> None:
        """Wrap the COARSE functions, and the FINE ones too when fine."""
        self.uninstall()
        for mod_name, attr, name, count in COARSE + (FINE if fine else ()):
            mod = self._modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue  # the library no longer has this function
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def drain(self) -> list[tuple]:
        """Take every recorded span out of the buffers."""
        with self._lock:
            spans = [s for buf in self._buffers for s in buf]
            for buf in self._buffers:
                buf.clear()
        return spans


# ------------------------------------------------------------- analysis

def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def aggregate(spans: list[tuple]) -> dict:
    """Per span name: calls, inclusive and self seconds, work count, and
    the per-call durations.  Self time is the span's duration minus the
    union of its children's intervals clipped to the span."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, sid, parent, op, thread, n in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "durations": []})
    for name, start, end, sid, parent, op, thread, n in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())
                if hi > start and lo < end]
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += (end - start) * _NS
        rec["self_s"] += (end - start - _union_ns(kids)) * _NS
        rec["count"] += n
        rec["durations"].append((end - start) * _NS)
    return out


def scan_children_busy(spans: list[tuple]) -> dict[int, tuple[float, int]]:
    """For each grid_scan span id: summed seconds of its direct child
    spans run on pool threads (the evaluator busy time) and the number
    of distinct threads that ran them."""
    scans = {sid for name, _, _, sid, _, _, _, _ in spans if name == POOL_OWNER}
    busy: dict[int, float] = defaultdict(float)
    threads: dict[int, set] = defaultdict(set)
    for name, start, end, sid, parent, op, thread, n in spans:
        if parent in scans and name != "scan_cli.make_evaluator":
            busy[parent] += (end - start) * _NS
            threads[parent].add(thread)
    return {sid: (busy[sid], len(threads[sid])) for sid in scans}


def write_spans(spans: list[tuple], path) -> None:
    """Write spans as gzip-compressed CSV, start times relative to the first."""
    t0 = min((s[1] for s in spans), default=0)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name,start_ns,end_ns,span_id,parent_id,op_id,thread,count\n")
        for name, start, end, sid, parent, op, thread, n in spans:
            fh.write(f"{name},{start - t0},{end - t0},{sid},"
                     f"{'' if parent is None else parent},{op},{thread},{n}\n")
