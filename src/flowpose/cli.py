"""Command-line interface.

Subcommands: synth, perturb, refine-flow, refine-pose, bootstrap, eval,
avg, check-grads.  Exit codes: 0 success, 2 usage error, 3 input format
error, 4 numerical failure.  Scenes live in directories containing
meta.json, topology.json, the track files and a flows/ subdirectory of
.flo files; every subcommand reads a scene with ``fileio.read_bundle`` and
writes one with ``fileio.write_bundle``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError, NumericalError
from . import fileio
from .fileio import RunConfig
from .geometry import MODE_2D, MODE_3D, average_tracks, default_topology
from .gradcheck import run_gradient_checks
from .pipeline import CycleSchedule, bootstrap
from .synth import (GroundTruthBundle, NoiseConfig, epe, generate_scene,
                    joint2d_error, mpjpe, perturb, sequence_joint_epe)


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _load_gt(dirpath, mode: str) -> GroundTruthBundle:
    return GroundTruthBundle(scene=fileio.read_bundle(dirpath, mode))


def _print_records(records) -> None:
    for r in records:
        drift = "  DRIFT" if r.drift_warning else ""
        print(f"stage {r.index} {r.kind:<4} epochs={r.epochs} "
              f"loss={_fmt(r.final_loss)} mpjpe={_fmt(r.mpjpe)} "
              f"epe={_fmt(r.epe)}{drift}")


def _run(cfg: RunConfig, scene_dir, out_dir, gt_dir) -> int:
    """Bootstrap the scene in ``scene_dir`` under ``cfg``, whose mode wins
    over the scene's; write the result and its report to ``out_dir`` and
    print the stage records."""
    bundle = fileio.read_bundle(scene_dir, cfg.mode)
    gt = _load_gt(gt_dir, cfg.mode) if gt_dir else None
    out, records = bootstrap(bundle, cfg.schedule, cfg.pose_params,
                             cfg.flow_params, gt=gt)
    fileio.write_bundle(out_dir, out)
    fileio.write_report(Path(out_dir) / "report.json", records)
    _print_records(records)
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    topo = fileio.read_topology(args.topology) if args.topology else default_topology()
    gt = generate_scene(seed=args.seed, frames=args.frames, topo=topo,
                        width=args.width, height=args.height,
                        amplitude=args.amplitude, radius=args.radius,
                        background=tuple(args.background))
    fileio.write_bundle(args.out, gt.scene)
    print(f"wrote scene ({args.frames} frames, {args.width}x{args.height}) to {args.out}")
    return 0


def _cmd_perturb(args) -> int:
    gt = _load_gt(args.input, MODE_3D)
    cfg = NoiseConfig(pose_sigma=args.pose_sigma,
                      camera_sigma=tuple(args.camera_sigma),
                      det_sigma=args.det_sigma,
                      corrupt_rect=tuple(args.corrupt_rect) if args.corrupt_rect else None,
                      corrupt_flow=tuple(args.corrupt_flow),
                      seed=args.seed)
    fileio.write_bundle(args.out, perturb(gt, cfg))
    print(f"wrote perturbed scene to {args.out}")
    return 0


def _cmd_refine(args) -> int:
    """The mode's default stage of ``args.kind``, with ``--epochs`` swapped in."""
    stage = next(s for s in CycleSchedule.default(args.mode).stages if s.kind == args.kind)
    if args.epochs is not None:
        stage = replace(stage, epochs=args.epochs)
    return _run(RunConfig(mode=args.mode, schedule=CycleSchedule((stage,))),
                args.input, args.out, args.gt)


def _cmd_bootstrap(args) -> int:
    """The config file's settings, or the defaults of ``--mode``; ``--mode``
    overrides a config's mode but keeps its schedule."""
    cfg = RunConfig(mode=args.mode or MODE_3D)
    if args.print_config:
        sys.stdout.write(fileio._dump_json(fileio.config_to_dict(cfg)))
        return 0
    if not args.input or not args.out:
        print("error: bootstrap needs an input and an output directory (--in, --out)",
              file=sys.stderr)
        return 2
    if args.config:
        cfg = fileio.read_config(args.config)
        if args.mode:
            cfg = replace(cfg, mode=args.mode)
    return _run(cfg, args.input, args.out, args.gt)


def _cmd_eval(args) -> int:
    pred = fileio.read_bundle(args.pred)
    gt = fileio.read_bundle(args.gt)
    if pred.frames != gt.frames or (pred.width, pred.height) != (gt.width, gt.height):
        raise InvalidInputError("prediction and ground truth dimensions differ")
    if pred.pose is not None and gt.pose is not None:
        print(f"MPJPE (mm)  all     {1000.0 * mpjpe(pred.pose, gt.pose):.6f}")
        subset = pred.topology.eval_subset or gt.topology.eval_subset
        if subset:
            print(f"MPJPE (mm)  subset  {1000.0 * mpjpe(pred.pose, gt.pose, subset):.6f}")
    else:
        print(f"JOINT2D (px) all    {joint2d_error(pred.detections, gt.detections):.6f}")
    full = float(np.mean([epe(p, g) for p, g in zip(pred.flows, gt.flows)]))
    joint = sequence_joint_epe(pred.flows, gt.flows, gt.detections.pixels)
    print(f"EPE (px)    all     {full:.6f}")
    print(f"EPE (px)    joints  {joint:.6f}")
    return 0


def _cmd_avg(args) -> int:
    a, b = Path(args.a), Path(args.b)
    if a.is_dir() and b.is_dir():
        fa = fileio.read_flow_dir(a)
        fb = fileio.read_flow_dir(b)
        if len(fa) != len(fb):
            raise InvalidInputError("flow directories hold different counts")
        fileio.write_flow_dir(args.out, [average_tracks(x, y) for x, y in zip(fa, fb)])
        print(f"wrote {len(fa)} averaged flow fields to {args.out}")
        return 0
    ta, units = fileio.read_track(a)
    tb, _ = fileio.read_track(b)
    fileio.write_track(args.out, average_tracks(ta, tb), units=units)
    print(f"wrote averaged track to {args.out}")
    return 0


def _cmd_check_grads(args) -> int:
    results, ok = run_gradient_checks(scenes=args.scenes, seed0=args.seed,
                                      step=args.step, threshold=args.threshold)
    worst = max(results, key=lambda r: r.max_rel_error)
    for r in results:
        if r.max_rel_error >= args.threshold:
            print(f"FAIL {r.name} seed={r.seed} rel_error={r.max_rel_error:.3e}")
    print(f"gradient checks: {len(results)} run, worst {worst.name} "
          f"(seed {worst.seed}) rel_error={worst.max_rel_error:.3e}, "
          f"threshold={args.threshold:g} -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericalError("gradient checks failed")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_scene_io(p):
    p.add_argument("--in", dest="input", required=True, help="input scene directory")
    p.add_argument("--out", required=True, help="output scene directory")
    p.add_argument("--gt", help="ground-truth scene directory for per-stage metrics")
    p.add_argument("--mode", choices=[MODE_3D, MODE_2D], default=MODE_3D)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpose",
        description="Alternating refinement of human optical flow and pose")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth scene")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--radius", type=int, default=15)
    p.add_argument("--background", type=float, nargs=2, default=[0.0, 0.0],
                   metavar=("U", "V"))
    p.add_argument("--topology", help="topology JSON file (default: 17-joint human)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("perturb", help="add estimate noise to a scene")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pose-sigma", type=float, default=0.0, help="meters")
    p.add_argument("--camera-sigma", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                   metavar=("S", "TX", "TY"))
    p.add_argument("--det-sigma", type=float, default=0.0, help="pixels")
    p.add_argument("--corrupt-rect", type=int, nargs=4, metavar=("X", "Y", "W", "H"))
    p.add_argument("--corrupt-flow", type=float, nargs=2, default=[0.0, 0.0],
                   metavar=("U", "V"))
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("refine-flow", help="run a single flow-refinement stage")
    _add_scene_io(p)
    p.add_argument("--epochs", type=int, help="default 8 (3d) or 50 (2d)")
    p.set_defaults(func=_cmd_refine, kind="flow")

    p = sub.add_parser("refine-pose", help="run a single pose-refinement stage")
    _add_scene_io(p)
    p.add_argument("--epochs", type=int, help="default 1500")
    p.set_defaults(func=_cmd_refine, kind="pose")

    p = sub.add_parser("bootstrap", help="run the full refinement schedule")
    p.add_argument("--config", help="config JSON (see --print-config)")
    p.add_argument("--in", dest="input", help="input scene directory")
    p.add_argument("--out", help="output scene directory")
    p.add_argument("--gt", help="ground-truth scene directory for per-stage metrics")
    p.add_argument("--mode", choices=[MODE_3D, MODE_2D])
    p.add_argument("--print-config", action="store_true",
                   help="print the full default configuration and exit")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("eval", help="compare a scene against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("avg", help="average two tracks or two flow directories")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("check-grads", help="finite-difference gradient checks")
    p.add_argument("--scenes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=_cmd_check_grads)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, FileExistsError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
