"""Smoke runs of the scripts under ``scripts/``, which import the library
but are not part of it: each must exit 0 and print its rows."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, lines",
    [
        # CSV header and one row per s
        (["theorem_residuals.py", "--k", "2", "--s", "0.2", "0.1"], 3),
        # the conjectured coefficient and one fit line per k
        (["conjecture_scan.py", "--k", "2", "--points", "4",
          "--s-lo", "0.05", "--s-hi", "0.5"], 2),
    ],
    ids=["theorem_residuals", "conjecture_scan"],
)
def test_script_runs(argv, lines):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == lines
