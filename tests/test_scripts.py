"""Smoke test: each example script runs to completion as its own process."""

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
