"""Smoke tests: each example script runs to completion as its own process,
and the mutation table of scripts/mutants.py matches the source."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("oscillator_duality.py", []),
    ("zeta_reconstruction.py", ["--zeros", "20", "--x-max", "10"]),
    ("qnm_demo.py", ["--out-dir", "qnm_out"]),
])
def test_example_script_exits_0(tmp_path, script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_mutant_anchor_occurs_once():
    # a refactor that moves an anchor must update the mutation table, not
    # leave a row that plants nothing; the table itself is not run here
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS and len({m.id for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert mutants.anchor_counts() == {m.id: 1 for m in mutants.MUTANTS}
    for m in mutants.MUTANTS:
        assert m.anchor != m.replacement and all((ROOT / "tests" / t).is_file() for t in m.tests)
