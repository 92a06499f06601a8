"""The benchmark's own self-check: every workload at a tiny size, with
its output checks, call counts and metric names."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes(tmp_path):
    # The benchmark works in directories under its working directory and
    # deletes them when it ends, so it runs from a directory of its own
    # that links to the checkout: concurrent sessions in one checkout
    # then never share them.
    for name in ("src", "tests", "perfbench", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
