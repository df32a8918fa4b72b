"""Smoke run of the benchmark's self-test.

The benchmark wraps library functions by name; a rename that breaks the
traced run fails here first.  A refactor can also leave a wrapped name in
place but no longer called, and its metric then reads 0: the traced smoke
records pin the work counts each workload's seams must see.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# work counts of one traced smoke operation at seed 3
_BOOTSTRAP = {"optim.adam_calls": 28, "raster.bone_flow_calls": 18, "pose_refine.epochs": 10,
              "flow_refine.objective_calls": 18}
_SEAMS = {"bootstrap-3d": _BOOTSTRAP, "bootstrap-2d": _BOOTSTRAP,
          "cli-chain": {"optim.adam_calls": 10, "fileio.files_written": 25}}


@pytest.fixture(scope="module")
def selftest():
    return subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_bench_selftest(selftest):
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert "selftest passed" in selftest.stdout


@pytest.mark.parametrize("workload", sorted(_SEAMS))
def test_traced_seams_see_work(selftest, workload):
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    record = ROOT / "bench" / "results" / f"{workload}-seed3-trace1-smoke.json"
    metrics = json.loads(record.read_text())["metrics"]
    got = {name: metrics[name]["value"] for name in _SEAMS[workload]}
    assert got == _SEAMS[workload]
    if workload.startswith("bootstrap"):
        assert metrics["flow_refine.apply_s"]["value"] > 0
