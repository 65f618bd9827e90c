"""Benchmark of spectral-zeros: one workload per invocation.

    python3 perfbench/run.py --workload plane_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are made from --seed under
.perfbench-work/; the package is imported from the checkout's src/
(nothing is installed).  The run:

1. starts the workload process several times with --setup-only and
   times interpreter start, package import and input loading (setup_s);
2. starts it once more to run passes over the workload for --seconds;
3. checks the outputs in that process, outside the timed region;
4. prints a human-readable report, then one JSON line with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_PROBES = 8          # setup_s is the median of these plus the workload processes
WORKER_PROCESSES = 4      # untraced runs; a traced run uses one
PROBE_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0       # one invocation never takes longer than this
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

sys.path.insert(0, str(HERE))
from inputs import WORKLOADS, generate  # noqa: E402


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float] | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for q in PERCENTILES[1:]:
        if len(values) * (1.0 - q / 100.0) >= 10:
            best = (q, percentile(values, q))
    return best


def timing_line(name: str, values, unit: str, scale: float = 1.0) -> str:
    vals = [v * scale for v in values]
    line = f"  {name:<26} median {statistics.median(vals):.6g} {unit}"
    t = tail(vals)
    line += f", p{t[0]:g} {t[1]:.6g} {unit}" if t else ", no percentile with 10 samples beyond"
    return line + f"  (n={len(vals)})"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the grid-scan pool runs at its default size, as users get it
    env.pop("SPECTRAL_ZEROS_THREADS", None)
    return env


def _start(cmd, env):
    """Start a worker and return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, dt


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def _run(cmd, env, deadline) -> tuple[float, str]:
    """Run a worker to the end; returns (seconds to READY, its stdout)."""
    proc, dt = _start(cmd, env)
    try:
        return dt, _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def measure(spec_path: Path, seconds: float, trace: int) -> tuple[list[float], dict]:
    """Setup samples and the workload processes' results, merged."""
    env = _child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path)]
    setup = []
    for i in range(SETUP_PROBES + 1):
        # the first start writes bytecode caches and is not counted
        dt, _ = _run(cmd + ["--setup-only"], env,
                     min(deadline, time.monotonic() + PROBE_TIMEOUT_S))
        if i:
            setup.append(dt)
    # untraced runs spread their passes over several processes, so that no
    # single process's memory layout or thread placement sets the result
    procs = 1 if trace else WORKER_PROCESSES
    results = []
    for k in range(procs):
        args = ["--seconds", repr(seconds / procs), "--trace", str(trace)]
        dt, out = _run(cmd + args + (["--check"] if k == procs - 1 else []), env, deadline)
        setup.append(dt)
        results.append(json.loads(out.strip().splitlines()[-1]))
    res = results[-1]
    res["processes"] = procs
    for other in results[:-1]:
        for kind, times in other["pass_s"].items():
            res["pass_s"][kind] += times
        for name, times in other["op_times"].items():
            res["op_times"][name] += times
        res["digests"] += other["digests"]
    res["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    return setup, res


# ---------------------------------------------------------------- metrics

def op_failures(res: dict, passes: int) -> tuple[int, int]:
    v = res["verdict"]
    return v["ops_per_pass"] * passes, len(v["failed_ops"]) * passes


def end_to_end(workload: str, setup: list[float], res: dict) -> tuple[dict, list[str]]:
    passes = res["pass_s"]["none"]
    ops = [t for times in res["op_times"].values() for t in times]
    facts = res["verdict"]["facts"]
    lines = [timing_line("setup_s", setup, "s"), timing_line("pass_s", passes, "s"),
             "  passes: " + " ".join(f"{t:.4f}" for t in passes),
             timing_line("op_us", ops, "us", 1e6)]
    if workload == "zeta_zeros":
        matched = facts["find_zeros"]["matched"]
        rates = [matched / t for t in res["op_times"]["find_zeros"]]
        lines.append(f"  {'zeros_per_s':<26} median {statistics.median(rates):.6g} 1/s  "
                     f"({matched} of {facts['find_zeros']['count']} ordinates match the "
                     f"reference, per second of find_zeros)")
        points = [t for name, times in res["op_times"].items() if name != "find_zeros"
                  for t in times]
        lines.append(timing_line("point_eval_us", points, "us", 1e6))
        lines.append(f"  {'point_eval_us_p50':<26} {percentile(points, 50) * 1e6:.6g} us")
        lines.append(f"  {'point_eval_us_p90':<26} {percentile(points, 90) * 1e6:.6g} us")
    else:
        nodes = sum(facts["nodes"].values())
        rates = [nodes / t for t in passes]
        lines.append(f"  {'nodes_per_s':<26} median {statistics.median(rates):.6g} 1/s  "
                     f"({nodes} nodes evaluated and written per pass)")
    attempted, failed = op_failures(res, len(passes))
    lines.append(f"  {'failed_ops_frac':<26} {failed / attempted:.6g}  "
                 f"({failed} of {attempted} operations)")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "outputs_per_s": (statistics.median(rates), "1/s"),
        "op_us_p50": (percentile(ops, 50) * 1e6, "us"),
        "op_us_p90": (percentile(ops, 90) * 1e6, "us"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ops_frac": (1.0 - failed / attempted, "fraction"),
    }
    lines.append(f"  {'peak_rss_mb':<26} {res['peak_rss_mb']:.6g} MB")
    return metrics, lines


# per_layer metric -> (pass kind, span name, field, unit); fields are per pass
# except median_call_s, the median duration of one call
LAYER_FIELDS = {
    "core.log_gamma.calls": ("full", "core.log_gamma", "calls", "count"),
    "core.log_gamma.self_s": ("full", "core.log_gamma", "self_s", "s"),
    "spectra.closed_form_oscillator.calls": ("full", "spectra.closed_form_oscillator", "calls", "count"),
    "spectra.closed_form_oscillator.self_s": ("full", "spectra.closed_form_oscillator", "self_s", "s"),
    "product_forms.pole_product_oscillator.calls": ("full", "product_forms.pole_product_oscillator", "calls", "count"),
    "product_forms.pole_product_oscillator.self_s": ("full", "product_forms.pole_product_oscillator", "self_s", "s"),
    "product_forms.pole_product_oscillator.factors": ("full", "product_forms.pole_product_oscillator", "count", "count"),
    "product_forms.general_weierstrass_eval.calls": ("full", "product_forms.general_weierstrass_eval", "calls", "count"),
    "product_forms.general_weierstrass_eval.self_s": ("full", "product_forms.general_weierstrass_eval", "self_s", "s"),
    "product_forms.general_weierstrass_eval.factors": ("full", "product_forms.general_weierstrass_eval", "count", "count"),
    "qnm.conjectured_partition_log.calls": ("full", "qnm.conjectured_partition_log", "calls", "count"),
    "qnm.conjectured_partition_log.self_s": ("full", "qnm.conjectured_partition_log", "self_s", "s"),
    "zeta.find_zeros.s": ("coarse", "zeta.find_zeros", "s", "s"),
    "zeta.find_zeros.self_s": ("full", "zeta.find_zeros", "self_s", "s"),
    "zeta.hardy_z.calls": ("full", "zeta.hardy_z", "calls", "count"),
    "zeta.hardy_z.self_s": ("full", "zeta.hardy_z", "self_s", "s"),
    "zeta.zeta_em.calls": ("full", "zeta.zeta_em", "calls", "count"),
    "zeta.zeta_em.self_s": ("full", "zeta.zeta_em", "self_s", "s"),
    "zeta.zeta_em.terms": ("full", "zeta.zeta_em", "count", "count"),
    "zeta.euler_product.calls": ("full", "zeta.euler_product", "calls", "count"),
    "zeta.euler_product.self_s": ("full", "zeta.euler_product", "self_s", "s"),
    "zeta.hadamard_product.calls": ("full", "zeta.hadamard_product", "calls", "count"),
    "zeta.hadamard_product.self_s": ("full", "zeta.hadamard_product", "self_s", "s"),
    "zeta.explicit_formula_psi.calls": ("full", "zeta.explicit_formula_psi", "calls", "count"),
    "zeta.explicit_formula_psi.self_s": ("full", "zeta.explicit_formula_psi", "self_s", "s"),
    "zeta.psi_direct.calls": ("full", "zeta.psi_direct", "calls", "count"),
    "zeta.psi_direct.self_s": ("full", "zeta.psi_direct", "self_s", "s"),
    "scan_cli.grid_scan.calls": ("coarse", "scan_cli.grid_scan", "calls", "count"),
    "scan_cli.grid_scan.s": ("coarse", "scan_cli.grid_scan", "s", "s"),
    "scan_cli.grid_scan.self_s": ("full", "scan_cli.grid_scan", "self_s", "s"),
    "scan_cli.grid_scan.nodes": ("coarse", "scan_cli.grid_scan", "count", "count"),
    "scan_cli.write_csv.s": ("coarse", "scan_cli.write_csv", "s", "s"),
    "scan_cli.write_csv.bytes": ("coarse", "scan_cli.write_csv", "count", "bytes"),
    "scan_cli.write_json.s": ("coarse", "scan_cli.write_json", "s", "s"),
    "scan_cli.write_json.bytes": ("coarse", "scan_cli.write_json", "count", "bytes"),
    "scan_cli.write_pgm.s": ("coarse", "scan_cli.write_pgm", "s", "s"),
    "scan_cli.write_pgm.bytes": ("coarse", "scan_cli.write_pgm", "count", "bytes"),
    "scan_cli.cli_dispatch.self_s": ("coarse", "scan_cli.cli_dispatch", "self_s", "s"),
    "scan_cli.make_evaluator.s": ("coarse", "scan_cli.make_evaluator", "median_call_s", "s"),
}
# loaders run in setup as well as inside commands: median seconds per call
LOADERS = {"qnm.load_qnm_file.s": "qnm.load_qnm_file",
           "zeta.ingest_zeros_file.s": "zeta.ingest_zeros_file"}
SCANNED = ("qnm_conjectured", "oscillator_product", "zeta_hadamard", "oscillator_closed")


def per_layer(res: dict) -> tuple[dict, list[str]]:
    layers = res["layers"]
    metrics: dict = {}
    for name, (kind, span, field, unit) in LAYER_FIELDS.items():
        metrics[name] = (layers[kind].get(span, {}).get(field, 0.0), unit)
    for name, span in LOADERS.items():
        calls = [rec[span]["median_call_s"] for rec in
                 (res["setup_layers"], layers["coarse"]) if span in rec]
        metrics[name] = (statistics.median(calls) if calls else 0.0, "s")
    full = layers["full"]
    zeros = full.get("zeta.find_zeros", {}).get("count", 0.0)
    hardy = full.get("zeta.hardy_z", {}).get("calls", 0.0)
    metrics["zeta.find_zeros.hardy_evals_per_zero"] = (hardy / zeros if zeros else 0.0, "ratio")
    facts = res["verdict"]["facts"]
    metrics["scan_cli.grid_scan.flagged_nodes"] = (sum(facts.get("flagged_nodes", {}).values()),
                                                   "count")
    coarse_scans = res["scans"]["coarse"]
    for ev in SCANNED:
        per_node = [r["s"] / r["nodes"] * 1e6 for r in coarse_scans if r["evaluator"] == ev]
        metrics[f"scan_cli.grid_scan.us_per_node.{ev}"] = (
            statistics.median(per_node) if per_node else 0.0, "us")
    full_scans = res["scans"]["full"]
    capacity = sum(r["s"] * r["threads"] for r in full_scans)
    metrics["scan_cli.grid_scan.parallel_eff"] = (
        sum(r["busy_s"] for r in full_scans) / capacity if capacity else 0.0, "ratio")
    metrics["scan_cli.grid_scan.workers"] = (float(res["workers"]), "count")
    metrics["scan_cli.import_s"] = (res["import_s"], "s")
    untraced = statistics.median(res["pass_s"]["none"])
    traced = statistics.median(res["pass_s"]["full"])
    metrics["trace.pass_s_untraced"] = (untraced, "s")
    metrics["trace.pass_s_coarse"] = (statistics.median(res["pass_s"]["coarse"]), "s")
    metrics["trace.pass_s_traced"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    lines = [f"  {k:<48} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    return metrics, lines


# ------------------------------------------------------------------- main

def machine_facts(res: dict) -> str:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')} "
            f"grid_scan_workers={res['workers']} SPECTRAL_ZEROS_THREADS=unset")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spectral_zeros" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        generate(args.workload, args.seed, work)
        setup, res = measure(work / "spec.json", args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdict = res["verdict"]
    digests = res["digests"]
    verdict["checks"].insert(0, {
        "name": "outputs byte-identical across passes and processes",
        "ok": len(set(digests)) == 1,
        "detail": f"{len(digests)} passes in {res['processes']} processes"})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: {machine_facts(res)}")
    print("checks:")
    for c in verdict["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    for idx, reason in verdict["failed_ops"].items():
        print(f"  [failed op {idx} of each pass] {reason}")
    print(f"facts: {json.dumps(verdict['facts'], sort_keys=True)}")
    if args.trace:
        metrics, lines = per_layer(res)
        print(f"per-layer metrics (mean per pass unless noted; trace file {res['trace_file']}):")
    else:
        metrics, lines = end_to_end(args.workload, setup, res)
        print("end-to-end metrics:")
    for line in lines:
        print(line)
    attempted, failed = op_failures(res, sum(len(v) for v in res["pass_s"].values()))
    print(json.dumps({
        "correct": all(c["ok"] for c in verdict["checks"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
