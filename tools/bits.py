"""Digests of flowpose's outputs, to show that a change moves no output byte.

Run from the repository root:

    PYTHONPATH=src python3 tools/bits.py

Each line is ``case  digest``, the first 16 hex digits of a sha256 of the
case's outputs; the acceptance suite's criteria 3 and 4 print their values
as floats instead.  Run it in two checkouts on one machine and compare the
lines: the bits depend on the numpy build and the C math library, so this is
a check between commits, not a tier-1 test.  BLAS runs on one thread, since
a threaded matrix product may sum in another order.  It reads only the
public API and the CLI, which the digests of two commits must share.

Cases:

- ``bootstrap-{3d,2d}-seed{77,5}``: the default schedule on
  ``standard_benchmark(seed)``'s noisy scene with its ground truth: the
  flows, the pose and camera (3-D) or the detections (2-D), the stage
  records and the warnings;
- ``check-grads``: ``check-grads --threshold 1e-7``'s stdout and exit code;
- ``cli-chain-files`` and ``cli-chain-streams``: synth (256x256, 10 frames),
  perturb, refine-pose (300 epochs), bootstrap ``--gt`` and eval of both
  results; every file written, then the exit codes, stdout and stderr with
  the work directory masked;
- ``acceptance-3`` (flow-recovery EPE reduction) and ``acceptance-4``
  (refined MPJPE in mm).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np

import flowpose as fp
from flowpose.cli import main


def _digest(*parts) -> str:
    """sha256 prefix of ``parts``: arrays by dtype, shape and bytes, the rest as text."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _warned(caught) -> list[str]:
    # the category and message only: a warning's file and line move with the code
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def _bootstrap(mode: str, seed: int) -> str:
    gt, noisy, _ = fp.standard_benchmark(seed)
    if mode == fp.MODE_2D:
        noisy = replace(noisy, mode=mode, pose=None, camera=None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, records = fp.bootstrap(noisy, gt=gt)
    tracks = ((out.pose.positions, out.camera.params) if mode == fp.MODE_3D
              else (out.detections.pixels, out.detections.confidence))
    return _digest(*(f.uv for f in out.flows), *tracks,
                   json.dumps([asdict(r) for r in records]), *_warned(caught))


def _cli(argv: list[str], work: str = "<work>") -> tuple:
    """Exit code, stdout and stderr of one in-process CLI call, and its
    warnings, with the directory ``work`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return tuple(text.replace(work, "<work>") for text in
                 (str(code), out.getvalue(), err.getvalue(), *_warned(caught)))


def _cli_chain() -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as work:
        w = Path(work)
        streams = []
        for argv in (
                ["synth", "--out", f"{w}/gt", "--frames", "10", "--width", "256",
                 "--height", "256"],
                ["perturb", "--in", f"{w}/gt", "--out", f"{w}/noisy", "--seed", "1",
                 "--pose-sigma", "0.02", "--camera-sigma", "1", "2", "2", "--det-sigma", "1",
                 "--corrupt-rect", "112", "112", "64", "64", "--corrupt-flow", "-2.5", "1.5"],
                ["refine-pose", "--in", f"{w}/noisy", "--out", f"{w}/pose", "--epochs", "300"],
                ["bootstrap", "--in", f"{w}/noisy", "--out", f"{w}/boot", "--gt", f"{w}/gt"],
                ["eval", "--pred", f"{w}/pose", "--gt", f"{w}/gt"],
                ["eval", "--pred", f"{w}/boot", "--gt", f"{w}/gt"]):
            streams += _cli(argv, work)
        files = sorted(p for p in w.rglob("*") if p.is_file())
        return (_digest(*(part for p in files
                          for part in (p.relative_to(w).as_posix(), p.read_bytes()))),
                _digest(*streams))


def _acceptance_3() -> float:
    gt, noisy, _ = fp.standard_benchmark()
    base = fp.sequence_joint_epe(noisy.flows, gt.scene.flows, gt.joints2d)
    with_gt_pose = replace(noisy, pose=gt.scene.pose, camera=gt.scene.camera)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, _ = fp.bootstrap(with_gt_pose, fp.CycleSchedule((fp.FlowStage(200),)), gt=gt)
    return 1.0 - fp.sequence_joint_epe(out.flows, gt.scene.flows, gt.joints2d) / base


def _acceptance_4() -> float:
    scene = fp.standard_benchmark()[0].scene
    rng = np.random.Generator(np.random.PCG64(123))
    noisy = fp.PoseTrack(scene.pose.positions
                         + rng.normal(0.0, 0.020, scene.pose.positions.shape))
    refined, _, _ = fp.refine_pose(noisy, scene.camera, scene.detections, scene.flows,
                                   scene.topology, fp.PoseHyperParams())
    return 1000.0 * fp.mpjpe(refined, scene.pose)


def run() -> None:
    for mode in (fp.MODE_3D, fp.MODE_2D):
        for seed in (77, 5):
            print(f"bootstrap-{mode}-seed{seed}  {_bootstrap(mode, seed)}", flush=True)
    print(f"check-grads  {_digest(*_cli(['check-grads', '--threshold', '1e-7']))}", flush=True)
    files, streams = _cli_chain()
    print(f"cli-chain-files  {files}")
    print(f"cli-chain-streams  {streams}", flush=True)
    print(f"acceptance-3  {_acceptance_3()!r}")
    print(f"acceptance-4  {_acceptance_4()!r} mm")


if __name__ == "__main__":
    run()
