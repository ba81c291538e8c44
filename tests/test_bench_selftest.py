"""The benchmark harness's own self-test, run as part of the test suite.

`bench/selftest.py` checks, among other things, that the tracer can rewrap
every alias the package binds (such as `simplicial.smith_normal_form`), so
renaming or unbinding one of them fails here and not only in the benchmark.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
