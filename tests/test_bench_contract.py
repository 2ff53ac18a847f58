"""The benchmark harness binds package functions by name (its tracer wraps
them, its self-tests import them), so a change to the package that breaks
the harness must fail here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    assert " passed" in result.stdout     # ran tests, not only skips
