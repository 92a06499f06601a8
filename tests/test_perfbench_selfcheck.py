"""The benchmark's own self-check: every workload at a tiny size, with
its output checks, call counts and metric names."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
