"""Seeded inputs for the three workloads.

Everything the library sees is made here from the seed: the QNM
spectrum file, the zeros file, the scan regions and the point
coordinates.  Only the standard library is used, so inputs are made
before any process imports the package.

Every scan region is a dyadic grid (the step is a power of two) and its
seeded offset is a whole number of steps, so grid nodes are exact
binary fractions.  Pole-lattice points and the planted QNM modes then
sit exactly on nodes whatever the seed, and the flag path always runs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("plane_scan", "plane_write", "zeta_zeros")

HERE = Path(__file__).resolve().parent
REFERENCE_ZEROS = HERE / "data" / "zeta_zeros_1000.txt"

# oscillator quantum 2*pi puts the pole lattice 2*pi*i*k/E0 on the
# integers of the imaginary axis; repr round-trips through argv exactly
E0 = 2.0 * math.pi
N_FACTORS = 1000
HADAMARD_ZEROS = 100
QNM_PAIRS = 100           # 200 modes, closed under z -> -conj(z)
QNM_PLANTED_PAIRS = 3     # pairs placed exactly on grid nodes
FIND_ZEROS_COUNT = 1000   # crosses the close pair gamma_922 / gamma_923
COMPARE_POINTS = 100      # zeta compare triple: zeta_em, euler_product, hadamard
EXPLICIT_POINTS = 100     # explicit_formula_psi against psi_direct
EULER_PRIME_LIMIT = 100000
COMPARE_CUTOFF = 200
COMPARE_ZERO_COUNT = 100
EXPLICIT_ZERO_COUNT = 1000


def read_reference(path=REFERENCE_ZEROS) -> list[float]:
    out = []
    with open(path) as fh:
        for raw in fh:
            text = raw.split("#", 1)[0].strip()
            if text:
                out.append(float(text))
    return out


def _region(center_re, half_re, step_re, center_im, half_im, step_im, rng, max_shift):
    """Region [re_min, re_max, im_min, im_max] shifted by whole steps."""
    a = rng.randint(-max_shift, max_shift)
    b = rng.randint(-max_shift, max_shift)
    return [center_re - half_re + a * step_re, center_re + half_re + a * step_re,
            center_im - half_im + b * step_im, center_im + half_im + b * step_im]


def _scan_argv(evaluator, region, cols, rows, out, fmt, extra=()):
    return (["scan", "--evaluator", evaluator,
             "--region", *(repr(float(v)) for v in region),
             "--cols", str(cols), "--rows", str(rows)]
            + list(extra) + ["--out", str(out), "--format", fmt])


def _qnm_spectrum(rng) -> dict:
    """Reflection-symmetric tower of QNM_PAIRS mode pairs (w - i k, -w - i k).

    Tower modes are multiples of 1/4096 kept off the 1/16 scan grid;
    QNM_PLANTED_PAIRS pairs sit exactly on grid nodes, inside the scan
    region for every offset it can take.
    """
    grid = 1.0 / 16.0
    on_grid = lambda v: (v / grid).is_integer()
    modes = set()
    planted = []
    while len(planted) < QNM_PLANTED_PAIRS:
        w = rng.randint(4, 40) * grid             # 0.25 .. 2.5
        k = rng.randint(12, 56) * grid            # 0.75 .. 3.5
        if (w, k) in modes:
            continue
        modes.add((w, k))
        planted.append((w, k))
    n = 0
    while len(modes) < QNM_PAIRS:
        w = round((0.75 + 0.5 * rng.random()) * 4096) / 4096
        k = round((0.5 * (n + 0.5) + 0.2 * (rng.random() - 0.5)) * 4096) / 4096
        n += 1
        if on_grid(w) and on_grid(k):
            k += 1.0 / 4096
        if (w, k) in modes:
            continue
        modes.add((w, k))
    pairs = sorted(modes, key=lambda p: (p[1], p[0]))
    return {
        "modes": [m for w, k in pairs for m in ([w, -k], [-w, -k])],
        "temperature": 0.5,
        "pol": [],
        "action": round(0.5 + 2.5 * rng.random(), 6),
        "symmetry": "reflection",
    }


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under work/ and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    spec: dict = {"workload": workload, "seed": seed, "work": str(work)}

    if workload == "plane_scan":
        reference = read_reference()
        zeros_path = work / "zeros100.txt"
        zeros_path.write_text("".join(repr(g) + "\n" for g in reference[:HADAMARD_ZEROS]))
        qnm_region = _region(0.0, 3.0, 1 / 16, -2.0, 2.0, 1 / 16, rng, 8)   # 97 x 65
        qnm_path = work / "qnm.json"
        qnm_doc = _qnm_spectrum(rng)
        qnm_path.write_text(json.dumps(qnm_doc, sort_keys=True) + "\n")
        osc_region = _region(0.0, 1.0, 1 / 32, 0.0, 4.0, 1 / 8, rng, 8)      # 65 x 65
        # 0.5 + i*gamma_k on the top row, 1 (pole) and -2 (trivial zero) on the bottom
        k = rng.randint(1, 3)
        a = rng.randint(-8, 8)
        had_region = [-2.5 + a / 16, 1.5 + a / 16, 0.0, reference[k - 1]]   # 65 x 64
        spec["scans"] = [
            {"evaluator": "qnm_conjectured", "region": qnm_region, "cols": 97, "rows": 65,
             "params": {"spectrum": str(qnm_path)}},
            {"evaluator": "oscillator_product", "region": osc_region, "cols": 65, "rows": 65,
             "params": {"e0": E0, "n_factors": N_FACTORS}},
            {"evaluator": "zeta_hadamard", "region": had_region, "cols": 65, "rows": 64,
             "params": {"zeros": str(zeros_path)}},
        ]
        extra = {
            "qnm_conjectured": ["--spectrum", str(qnm_path)],
            "oscillator_product": ["--e0", repr(E0), "--n-factors", str(N_FACTORS)],
            "zeta_hadamard": ["--zeros-file", str(zeros_path)],
        }
        for i, sc in enumerate(spec["scans"]):
            sc["format"] = "pgm"
            sc["out"] = str(work / f"scan{i}_{sc['evaluator']}.pgm")
            sc["argv"] = _scan_argv(sc["evaluator"], sc["region"], sc["cols"], sc["rows"],
                                    sc["out"], "pgm", extra[sc["evaluator"]])
        spec["qnm_file"] = str(qnm_path)
        spec["zeros_file"] = str(zeros_path)

    elif workload == "plane_write":
        region = _region(0.0, 1.875, 1 / 128, 0.0, 2.5, 1 / 64, rng, 32)  # 481 x 321
        spec["scans"] = []
        for fmt in ("csv", "json"):
            out = work / f"scan.{fmt}"
            spec["scans"].append({
                "evaluator": "oscillator_closed", "region": region, "cols": 481, "rows": 321,
                "params": {"e0": E0}, "format": fmt, "out": str(out),
                "argv": _scan_argv("oscillator_closed", region, 481, 321, out, fmt,
                                   ["--e0", repr(E0)]),
            })

    else:  # zeta_zeros
        spec["zeros_file"] = str(REFERENCE_ZEROS)
        spec["find_zeros_count"] = FIND_ZEROS_COUNT
        spec["compare"] = [[round(1.5 + 1.5 * rng.random(), 6), round(20.0 * rng.random(), 6)]
                           for _ in range(COMPARE_POINTS)]
        # psi jumps at prime powers (integers) and the truncated zero sum
        # rings for about x*pi/gamma_1000 ~ 0.2 around each jump
        spec["explicit"] = [round(rng.randint(2, 99) + 0.25 + 0.5 * rng.random(), 6)
                            for _ in range(EXPLICIT_POINTS)]
        spec["prime_limit"] = EULER_PRIME_LIMIT
        spec["cutoff"] = COMPARE_CUTOFF
        spec["compare_zero_count"] = COMPARE_ZERO_COUNT
        spec["explicit_zero_count"] = EXPLICIT_ZERO_COUNT

    (work / "spec.json").write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
    return spec
