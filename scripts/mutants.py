"""Mutation table: planted one-line defects that the named tests must catch.

Each row names a source file, an exact anchor in it (which must occur
there once), the replacement text, the test files expected to kill the
mutant and the ROADMAP item the row guards.  For each row the script
copies the repository (without .git) to a temporary directory, plants the
defect in that copy's src/ and runs only the row's test files there with
``pytest -x``.  A failing test kills the mutant, and its id is printed;
if every test passes the mutant survived.  A row whose mutant no test can
tell apart from the original carries an ``equivalent`` reason instead,
and its survival is expected.

    python scripts/mutants.py               # every row
    python scripts/mutants.py scan_step     # only the named rows

Exits 1 if a mutant survives that is not marked equivalent, or if an
anchor does not occur exactly once in its file.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "spectral_zeros")
TIMEOUT_S = 1800.0        # per mutant; a planted defect may make a test loop


class Mutant(NamedTuple):
    id: str
    file: str                 # relative to src/spectral_zeros
    anchor: str
    replacement: str
    tests: tuple[str, ...]    # relative to tests/
    item: int                 # the ROADMAP item the row guards
    equivalent: str | None = None


MUTANTS = (
    Mutant("bisections", "zeta.py", "_BISECTIONS = 28", "_BISECTIONS = 26",
           ("test_zeta.py",), 3),
    Mutant("scan_step", "zeta.py", "_SCAN_STEP = 0.25", "_SCAN_STEP = 0.5",
           ("test_zeta.py",), 3),
    Mutant("series_terms", "product_forms.py", "_SERIES_TERMS = 30", "_SERIES_TERMS = 12",
           ("test_product_forms.py",), 18),
    Mutant("exp_underflow", "core.py", "EXP_UNDERFLOW = -745.1332191019411",
           "EXP_UNDERFLOW = -708.0", ("test_scan_cli.py",), 14),
    Mutant("rs_margin_rounding", "zeta.py", "+ 1e-14 * t * np.log(t)",
           "+ 1e-16 * t * np.log(t)", ("test_zeta.py",), 20),
    Mutant("qnm_log_four", "qnm.py", "_LOG_FOUR = math.log(4.0)",
           "_LOG_FOUR = math.log(2.0)", ("test_qnm.py",), 14),
    Mutant("hadamard_zero_tail", "zeta.py", "(math.log(gk / TWO_PI) + 1.0)",
           "(math.log(gk / TWO_PI) + 0.5)", ("test_zeta.py", "test_acceptance.py"), 10),
    Mutant("rs_t_min", "zeta.py", "_RS_T_MIN = 200.0", "_RS_T_MIN = 60.0",
           ("test_zeta.py",), 20),
    Mutant("em_cutoff_rule", "zeta.py", "2.0 * np.abs(t) + 50.0", "2.0 * np.abs(t) + 0.0",
           ("test_zeta.py",), 11),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def anchor_counts() -> dict[str, int]:
    """How often each row's anchor occurs in its file, by row id."""
    return {m.id: (ROOT / PACKAGE / m.file).read_text().count(m.anchor) for m in MUTANTS}


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail): killed with the first failing test's id, survived,
    or timeout."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".perfbench-work")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=ignore)
        path = copy / PACKAGE / mutant.file
        path.write_text(path.read_text().replace(mutant.anchor, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                *(str(Path("tests", t)) for t in mutant.tests)]
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"after {TIMEOUT_S:g} s"
    if proc.returncode == 0:
        return "survived", ""
    failed = _FAILED.search(proc.stdout)
    if proc.returncode == 1 and failed:
        return "killed", failed.group(1)
    return "killed", f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ids", nargs="*", help="rows to run (default: all)")
    args = ap.parse_args(argv)
    unknown = set(args.ids) - {m.id for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutant ids: {sorted(unknown)}")
    stale = {k: n for k, n in anchor_counts().items() if n != 1}
    if stale:
        print(f"anchors not found exactly once: {stale}", file=sys.stderr)
        return 1
    failures = 0
    start = time.perf_counter()
    for m in MUTANTS:
        if args.ids and m.id not in args.ids:
            continue
        t0 = time.perf_counter()
        outcome, detail = run_mutant(m)
        if outcome == "survived" and m.equivalent:
            detail = f"equivalent: {m.equivalent}"
        elif outcome == "survived":
            failures += 1
        print(f"{m.id:20} item {m.item:<3} {outcome:9} {time.perf_counter() - t0:7.1f} s  {detail}",
              flush=True)
    print(f"{time.perf_counter() - start:.1f} s in all; {failures} unexpected survivor(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
