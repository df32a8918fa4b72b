#!/usr/bin/env python3
"""Self-test of the benchmark, from the repository root:

    python3 bench/selftest.py

- A smoke-size run of every workload (``bootstrap-2d`` too, which
  ``BENCHMARK.json`` leaves out), untraced and traced, passes its output
  check and prints exactly the metrics ``BENCHMARK.json`` lists.
- After a traced run the flowpose module attributes are the original
  functions again, so untraced numbers carry no wrapper cost.
- The work counts of a traced run repeat exactly on a second run.
- In a directory holding only ``BENCHMARK.json`` and ``bench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from tracing import PER_LAYER
from workloads import make_workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_originals_restored() -> None:
    m = sys.modules
    assert m["flowpose.pipeline"].refine_flow is m["flowpose.flow_refine"].refine_flow
    assert m["flowpose.pipeline"].bootstrap is m["flowpose.cli"].bootstrap
    assert m["flowpose.flow_refine"].adam_step is m["flowpose.optim"].adam_step
    assert m["flowpose.pose_refine"].adam_step is m["flowpose.optim"].adam_step
    assert m["flowpose.raster"].rasterize_skeleton.__module__ == "flowpose.raster"
    assert not hasattr(m["flowpose.raster"].rasterize_skeleton, "__wrapped__")
    assert m["flowpose.cli"].fileio is m["flowpose.fileio"]


def check_bare_directory() -> None:
    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                            SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True, text=True,
                           timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0 and '"correct"' not in p.stdout, (p.returncode, p.stdout)


def main() -> int:
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, _, kind in PER_LAYER if kind == "count"]
    for name in make_workloads(run.RESULTS):
        plain = smoke(name, 0)
        assert plain["correct"] and plain["failed"] == 0, plain
        assert set(plain["metrics"]) == end_to_end, sorted(plain["metrics"])
        traced = smoke(name, 1)
        check_originals_restored()
        assert traced["correct"] and traced["failed"] == 0, traced
        assert set(traced["metrics"]) == layer, sorted(traced["metrics"])
        again = smoke(name, 1)
        for c in counts:
            assert traced["metrics"][c] == again["metrics"][c], (name, c)
        print(f"{name}: ok ({plain['attempted']} untraced and {traced['attempted']} "
              f"traced smoke operations)")
    check_bare_directory()
    print("bare directory: exits non-zero without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
