"""The benchmark's workloads.

An operation is one scene refined end to end.  Each workload builds a pool
of scenes from the workload seed (``build``), runs one operation on one
scene (``run``, the timed part), measures the outputs' quality the first
time a scene runs (``quality``, untimed), and checks and hashes them for
the repeat check (``digest``, untimed).

- ``bootstrap-3d``: ``pipeline.bootstrap(noisy, gt=gt)`` with the default
  3-D schedule on ``standard_benchmark`` scenes.  The README's main path;
  pose refinement dominates, flow refinement is the second cost.
- ``bootstrap-2d``: the same scenes in 2-D mode (no pose or camera) with
  the default 2-D schedule.  Flow refinement dominates, so a flow
  optimisation shows most clearly here.  Not in ``BENCHMARK.json``: its
  run-to-run spread on a shared 2-core machine is too wide for a bound, so
  it is run by hand.
- ``cli-chain``: in-process ``cli.main`` running synth, perturb,
  refine-pose and eval on a 256x256 scene.  No flow refinement runs, so a
  flow-only change should show no change; it is the workload where scene
  generation, rasterisation, file I/O and the CLI itself take a
  measurable share.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class OutputError(Exception):
    """An operation's outputs are unusable (non-finite or missing)."""


@dataclass
class Workload:
    name: str
    pool: int            # scenes built per run
    frames: int          # frames refined per operation
    build: Callable      # (fp, seed) -> list of cases
    run: Callable        # (fp, case, tracer) -> raw outputs
    quality: Callable    # (fp, case, raw) -> quality numbers
    digest: Callable     # (fp, case, raw) -> digest; raises OutputError.
                         # Runs last: the CLI chain deletes its outputs here.


def scene_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise OutputError("non-finite values in the refined outputs")


def _joint_err_px(pixels: np.ndarray, gt_pixels: np.ndarray) -> float:
    return float(np.linalg.norm(pixels - gt_pixels, axis=-1).mean())


# ---------------------------------------------------------------------------
# bootstrap workloads

def _bootstrap_workload(name: str, mode_2d: bool, pool: int,
                        schedule_epochs: tuple[int, int, int] | None) -> Workload:
    """``schedule_epochs`` (flow, pose, flow) shortens the schedule for smoke
    runs; ``None`` is the library's default schedule for the mode."""

    def build(fp, seed):
        cases = []
        for s in scene_seeds(seed, pool):
            gt, noisy, _ = fp.standard_benchmark(s)
            if mode_2d:
                noisy = dataclasses.replace(noisy, mode=fp.MODE_2D, pose=None, camera=None)
            schedule = None
            if schedule_epochs is not None:
                f1, p, f2 = schedule_epochs
                schedule = fp.CycleSchedule((fp.FlowStage(f1), fp.PoseStage(p), fp.FlowStage(f2)))
            cases.append({"seed": s, "gt": gt, "noisy": noisy, "schedule": schedule})
        return cases

    def run(fp, case, tracer):
        # Looked up on the module at call time, so a traced run sees the wrapper.
        return fp.pipeline.bootstrap(case["noisy"], case["schedule"], gt=case["gt"])

    def digest(fp, case, raw):
        out, records = raw
        arrays = [f.uv for f in out.flows] + (
            [out.detections.pixels] if mode_2d else [out.pose.positions, out.camera.params])
        _require_finite(*arrays)
        return _digest(arrays + [[(r.kind, r.final_loss, r.mpjpe, r.epe, r.drift_warning)
                                  for r in records]])

    def quality(fp, case, raw):
        out, records = raw
        gt, noisy = case["gt"], case["noisy"]
        gt2d = gt.joints2d
        q = {"joint_epe_px": fp.sequence_joint_epe(out.flows, gt.scene.flows, gt2d),
             "drift_flags": sum(r.drift_warning for r in records)}
        if mode_2d:
            q["joint2d_px"] = _joint_err_px(out.detections.pixels, gt2d)
            q["pose_err_ratio"] = q["joint2d_px"] / _joint_err_px(noisy.detections.pixels, gt2d)
        else:
            q["mpjpe_mm"] = 1000.0 * fp.mpjpe(out.pose, gt.scene.pose)
            q["joint2d_px"] = _joint_err_px(fp.project_track(out.pose, out.camera), gt2d)
            q["pose_err_ratio"] = q["mpjpe_mm"] / (1000.0 * fp.mpjpe(noisy.pose, gt.scene.pose))
        return q

    return Workload(name, pool, 10, build, run, quality, digest)


# ---------------------------------------------------------------------------
# CLI chain

_EVAL_LINE = re.compile(r"^(MPJPE \(mm\)|EPE \(px\))\s+(all|joints)\s+(\S+)$", re.M)
_EVAL_KEYS = (("MPJPE (mm)", "all"), ("EPE (px)", "joints"))


def _eval_values(stdout: str) -> list[float]:
    found = {(m[1], m[2]): float(m[3]) for m in _EVAL_LINE.finditer(stdout)}
    if any(k not in found for k in _EVAL_KEYS):
        raise OutputError("eval printed no MPJPE or joint EPE")
    values = [found[k] for k in _EVAL_KEYS]
    _require_finite(np.array(values))
    return values


def _cli_workload(pool: int, size: int, frames: int, pose_epochs: int | None,
                  workdir: Path) -> Workload:
    """``standard_benchmark``'s noise model scaled to a ``size`` image, with
    the wrong-flow square placed from the seed near the image centre, where
    the camera keeps the skeleton.  ``pose_epochs`` shortens refine-pose for
    smoke runs (``None``: the CLI default)."""
    scale = size / 128.0
    side = round(32 * scale)

    def build(fp, seed):
        cases = []
        for s in scene_seeds(seed, pool):
            offset = np.random.default_rng(s).integers(-size // 8, size // 8 + 1, size=2)
            x0, y0 = (size - side) // 2 + offset
            argv = [
                ["synth", "--out", "{w}/gt", "--seed", str(s), "--frames", str(frames),
                 "--width", str(size), "--height", str(size)],
                ["perturb", "--in", "{w}/gt", "--out", "{w}/noisy", "--seed", str(s + 1),
                 "--pose-sigma", "0.02",
                 "--camera-sigma", *(repr(v * scale) for v in (0.5, 1.0, 1.0)),
                 "--det-sigma", repr(0.5 * scale),
                 "--corrupt-rect", str(x0), str(y0), str(side), str(side),
                 "--corrupt-flow", "-2.5", "1.5"],
                ["refine-pose", "--in", "{w}/noisy", "--out", "{w}/refined"]
                + ([] if pose_epochs is None else ["--epochs", str(pose_epochs)]),
                ["eval", "--pred", "{w}/refined", "--gt", "{w}/gt"],
            ]
            cases.append({"seed": s, "argv": argv})
        return cases

    def run(fp, case, tracer):
        # Left over only when an earlier operation failed before its digest.
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        out = io.StringIO()
        for argv in case["argv"]:
            span = "cli." + argv[0].replace("-", "_")
            with tracer.span(span) if tracer else contextlib.nullcontext():
                with contextlib.redirect_stdout(out):
                    code = fp.cli.main([a.format(w=workdir) for a in argv])
            if code != 0:
                raise OutputError(f"flowpose {argv[0]} exited with code {code}")
        return out.getvalue()

    def digest(fp, case, stdout):
        _eval_values(stdout)
        files = sorted(p for p in workdir.rglob("*") if p.is_file())
        h = _digest([stdout] + [(str(p.relative_to(workdir)), p.read_bytes()) for p in files])
        shutil.rmtree(workdir)
        return h

    def quality(fp, case, stdout):
        mpjpe_mm, joint_epe = _eval_values(stdout)
        track = {name: fp.fileio.read_track(workdir / name)[0]
                 for name in ("gt/pose.json", "gt/detections.json", "noisy/pose.json",
                              "refined/pose.json", "refined/camera.json")}
        initial_mm = 1000.0 * fp.mpjpe(track["noisy/pose.json"], track["gt/pose.json"])
        projected = fp.project_track(track["refined/pose.json"], track["refined/camera.json"])
        return {"mpjpe_mm": mpjpe_mm, "pose_err_ratio": mpjpe_mm / initial_mm,
                "joint_epe_px": joint_epe,
                "joint2d_px": _joint_err_px(projected, track["gt/detections.json"].pixels)}

    return Workload("cli-chain", pool, frames, build, run, quality, digest)


def make_workloads(workdir: Path, smoke: bool = False) -> dict[str, Workload]:
    """The three workloads; ``smoke`` shrinks pools, schedules and the CLI
    scene so every path runs in about a second."""
    if smoke:
        ws = [_bootstrap_workload("bootstrap-3d", False, 1, (1, 10, 1)),
              _bootstrap_workload("bootstrap-2d", True, 1, (1, 10, 1)),
              _cli_workload(1, 64, 4, 10, workdir)]
    else:
        # Pools are about as large as a 55 s run refines: each pool
        # scene's quality differs, and the run's mean must vary little
        # between seeds.
        ws = [_bootstrap_workload("bootstrap-3d", False, 14, None),
              _bootstrap_workload("bootstrap-2d", True, 7, None),
              _cli_workload(20, 256, 10, None, workdir)]
    return {w.name: w for w in ws}
