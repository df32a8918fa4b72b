#!/usr/bin/env python3
"""flowpose benchmark: one workload, one process, a closed loop with one caller.

Usage, from the repository root:

    python3 bench/run.py --workload bootstrap-3d --seed 1 --seconds 30 --trace 0

The run imports flowpose from ``src/`` and builds a pool of scenes from
``--seed`` (timed as ``setup_s``, repeated and reported as the median).  It
then refines pool scenes one after another, each operation starting when
the previous one ends, for about ``--seconds``, and at least until every
pool scene has run once and one scene has run twice.  Every operation's
outputs are checked: an operation fails if it raises, if its outputs are
non-finite, or if they differ from an earlier run of the same scene.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced operation on each scene, with span wrappers installed
only around the traced one, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced median operation time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
per-operation times, per-scene quality and, for traced runs, every span)
goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

from tracing import (OP_SPAN, PER_LAYER, Tracer, install, namespace_snapshot,
                     per_layer, snapshot_matches)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("scene_s_p50", "s"), ("frames_per_s", "1/s"),
              ("pose_err_ratio", "ratio"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB")]
TRACE_EXTRA = [("trace.overhead_s", "s"), ("trace.scene_s_p50", "s"),
               ("quality.joint2d_px", "px"), ("quality.joint_epe_px", "px")]


class SetupError(Exception):
    pass


def cap_threads(nproc: int) -> None:
    """One BLAS/OpenMP thread unless set, and never more than ``nproc``."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        if not value.isdigit() or int(value) > nproc:
            value = str(nproc)
        os.environ[var] = value


def load_flowpose():
    """Import flowpose from ``src/`` afresh, so each set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == "flowpose" or m.startswith("flowpose.")]:
        del sys.modules[name]
    import flowpose
    import flowpose.cli  # noqa: F401  (binds fp.cli)
    if Path(flowpose.__file__).resolve().parent != SRC / "flowpose":
        raise SetupError(f"flowpose imported from {flowpose.__file__}, not from {SRC}")
    return flowpose


def environment(np) -> dict:
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": None, "blas": None, "processes": 1,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "commit": None}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
        env["cpu_model"] = m.group(1) if m else None
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["commit"] = ref
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def setup(make_workload, seed: int):
    """Import flowpose and build the workload's scene pool, ``SETUP_REPEATS``
    times; returns the last import, workload and pool plus every time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fp = load_flowpose()
        wl = make_workload()
        cases = wl.build(fp, seed)
        times.append(time.perf_counter() - t0)
    return fp, wl, cases, times


def measure(fp, wl, cases, seconds: float, trace: bool):
    """The closed loop.  Returns per-op records, per-scene quality, the
    tracer (or ``None``) and whether every namespace was restored."""
    modules = [fp, fp.cli, fp.pipeline, fp.flow_refine, fp.pose_refine, fp.raster,
               fp.synth, fp.fileio, fp.optim]
    snapshot = namespace_snapshot(modules)
    tracer = Tracer() if trace else None
    restored = True
    refs: dict[int, str] = {}
    quality: dict[int, dict] = {}
    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        if trace:
            # Pairs on one scene, untraced first in even pairs and traced
            # first in odd ones, so warm-up does not bias the overhead.
            pair = i // 2
            scene, traced = pair % len(cases), i % 2 != pair % 2
        else:
            scene, traced = i % len(cases), False
        case = cases[scene]
        ok, raw, error = True, None, None
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = i
                install(tracer, fp)
                try:
                    with tracer.span(OP_SPAN):
                        raw = wl.run(fp, case, tracer)
                finally:
                    tracer.restore()
            else:
                raw = wl.run(fp, case, None)
        except Exception:  # an operation failure is counted, and the loop goes on
            ok, error = False, traceback.format_exc()
        dt = time.perf_counter() - t0
        if traced:
            restored &= snapshot_matches(snapshot, modules)
        if ok:
            try:
                if scene not in quality:
                    quality[scene] = wl.quality(fp, case, raw)
                digest = wl.digest(fp, case, raw)
            except Exception:
                ok, error = False, traceback.format_exc()
            else:
                if refs.setdefault(scene, digest) != digest:
                    ok, error = False, f"scene {scene}: outputs differ from an earlier run"
        if error:
            print(f"operation {i} failed:\n{error}", file=sys.stderr)
        ops.append({"scene": scene, "scene_seed": case["seed"], "seconds": dt,
                    "traced": traced, "ok": ok})
        if len(ops) < (2 if trace else len(cases) + 1) or (trace and len(ops) % 2):
            continue
        # Start another operation (a pair when tracing) only if at least
        # half of it fits, so a run lasts --seconds give or take half of one.
        step = statistics.median(op["seconds"] for op in ops) * (2 if trace else 1)
        if time.perf_counter() - start + step / 2 >= seconds:
            return ops, quality, tracer, restored


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools and schedules, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "flowpose" / "__init__.py").is_file():
        print(f"error: no flowpose sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    # numpy reads the thread settings when it loads, so it is imported only now.
    import numpy as np
    from workloads import make_workloads

    warnings.filterwarnings("ignore", message=r"stage \d+ \(\w+\) increased",
                            category=RuntimeWarning)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    if args.workload not in make_workloads(workdir, args.smoke):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        fp, wl, cases, setup_runs = setup(
            lambda: make_workloads(workdir, args.smoke)[args.workload], args.seed)
        ops, quality, tracer, restored = measure(fp, wl, cases, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    correct = failed == 0 and restored
    if args.trace:
        traced_ops = [i for i, op in enumerate(ops) if op["traced"]]
        traced = [ops[i]["seconds"] for i in traced_ops]
        units = {name: unit for name, unit, _ in PER_LAYER} | dict(TRACE_EXTRA)
        values = per_layer(tracer, traced_ops)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["trace.scene_s_p50"] = statistics.median(traced)
        q0 = quality.get(0, {})
        values["quality.joint2d_px"] = q0.get("joint2d_px", 0.0)
        values["quality.joint_epe_px"] = q0.get("joint_epe_px", 0.0)
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setup_runs),
            "scene_s_p50": statistics.median(untraced),
            "frames_per_s": wl.frames * len(untraced) / sum(untraced),
            "pose_err_ratio": (statistics.fmean(q["pose_err_ratio"] for q in quality.values())
                               if quality else 0.0),
            "ok_ratio": (len(ops) - failed) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(np),
              "setup_runs_s": setup_runs, "ops": ops,
              "quality": {str(cases[s]["seed"]): q for s, q in quality.items()},
              "namespaces_restored": restored, "metrics": metrics}
    if tracer is not None:
        record["spans"] = tracer.spans
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(record) + "\n")

    for s in sorted(quality):
        q = quality[s]
        print(f"scene {cases[s]['seed']}: " + " ".join(
            f"{k}={v:.6g}" for k, v in sorted(q.items())))
    print(f"{args.workload}: {len(ops)} operations, {failed} failed, "
          f"median {statistics.median(op['seconds'] for op in ops):.4f} s; record in {out}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
