"""Smoke run of the benchmark's self-test.

The benchmark wraps library functions by name; a rename that breaks the
traced run fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest():
    p = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "selftest passed" in p.stdout
