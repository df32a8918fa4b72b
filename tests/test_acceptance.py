"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the recorded baselines come from
the oracle runs of this implementation and are deterministic for a given
seed.
"""

import functools
import struct
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import flowpose as fp
from flowpose import (CycleSchedule, FlowField, FlowStage, FormatError,
                      PoseHyperParams, PoseStage, PoseTrack, TargetFlow,
                      bootstrap, refine_flow, refine_pose, standard_benchmark)
from flowpose.cli import main
from flowpose.gradcheck import make_random_scene, run_gradient_checks
from flowpose import fileio

from oracles import bone_flow_oracle, raster_oracle

# Regression baselines recorded from this implementation's oracle runs.
FLOW_RECOVERY_BASELINE = 0.635462      # criterion 3: achieved EPE reduction
POSE_RECOVERY_BASELINE = 0.023914521   # criterion 4: refined MPJPE, meters


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


@criterion(1, "gradient correctness")
def test_acceptance_1_gradients():
    start = time.perf_counter()
    results, ok = run_gradient_checks(scenes=20, seed0=0, step=1e-5,
                                      threshold=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda r: r.max_rel_error)
    assert ok, (f"worst {worst.name} seed {worst.seed}: "
                f"rel error {worst.max_rel_error:.3e} >= 1e-4")
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(2, "flow objective fixed point")
def test_acceptance_2_fixed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    base = FlowField(rng.normal(size=(64, 64, 2)) * 3.0)
    target = TargetFlow(flow=FlowField(base.uv.copy()),
                        overlay_mask=np.ones((64, 64), bool))
    for epochs in (0, 8, 50):
        out, _ = refine_flow(base, target, epochs=epochs)
        assert np.array_equal(out.uv, base.uv), f"epochs={epochs}"
    assert time.perf_counter() - start < 5.0


@criterion(3, "flow recovery on the standard benchmark")
def test_acceptance_3_flow_recovery():
    start = time.perf_counter()
    gt, noisy, cfg = standard_benchmark()
    base_epe = fp.sequence_joint_epe(noisy.flows, gt.scene.flows, gt.joints2d)
    with_gt_pose = replace(noisy, pose=gt.scene.pose, camera=gt.scene.camera)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, _ = bootstrap(with_gt_pose, CycleSchedule((FlowStage(200),)), gt=gt)
    refined_epe = fp.sequence_joint_epe(out.flows, gt.scene.flows, gt.joints2d)
    reduction = 1.0 - refined_epe / base_epe
    assert reduction >= 0.50, f"reduction {reduction:.3f} below the 50% floor"
    # threshold fixed from the recorded oracle run, small slack for libm noise
    assert reduction >= FLOW_RECOVERY_BASELINE - 0.02, (
        f"reduction {reduction:.4f} regressed from {FLOW_RECOVERY_BASELINE:.4f}")
    assert time.perf_counter() - start < 60.0


@criterion(4, "pose recovery with exact flows and detections")
def test_acceptance_4_pose_recovery():
    start = time.perf_counter()
    gt, _, _ = standard_benchmark()
    scene = gt.scene
    rng = np.random.Generator(np.random.PCG64(123))
    noisy_pose = PoseTrack(scene.pose.positions
                           + rng.normal(0.0, 0.020, scene.pose.positions.shape))
    initial = fp.mpjpe(noisy_pose, scene.pose)
    refined, _, _ = refine_pose(noisy_pose, scene.camera, scene.detections,
                                scene.flows, scene.topology, PoseHyperParams())
    final = fp.mpjpe(refined, scene.pose)
    assert final < initial, f"{final * 1e3:.3f}mm not below {initial * 1e3:.3f}mm"
    assert abs(final - POSE_RECOVERY_BASELINE) / POSE_RECOVERY_BASELINE < 0.05, (
        f"refined MPJPE {final * 1e3:.4f}mm drifted from the recorded "
        f"{POSE_RECOVERY_BASELINE * 1e3:.4f}mm baseline")
    assert time.perf_counter() - start < 60.0


@criterion(5, "cycle study shape")
def test_acceptance_5_cycle_study():
    gt, noisy, _ = standard_benchmark()
    stages = [FlowStage(8)]
    for _ in range(4):
        stages += [PoseStage(1500), FlowStage(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, records = bootstrap(noisy, CycleSchedule(tuple(stages)), gt=gt)
    pose_errors = [r.mpjpe for r in records if r.kind == "pose"]
    assert len(pose_errors) == 4
    assert all(pose_errors[0] <= later for later in pose_errors[1:]), (
        f"first pose cycle not best: {[f'{m * 1e3:.3f}' for m in pose_errors]}")

    # ground truth substituted in-loop: no drift across pose cycles
    gt_inputs = replace(noisy, flows=gt.scene.flows,
                        detections=gt.scene.detections)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, records_gt = bootstrap(
            gt_inputs, CycleSchedule(tuple(PoseStage(1500) for _ in range(4))),
            gt=gt)
    vals = [r.mpjpe for r in records_gt]
    assert all(b <= a for a, b in zip(vals, vals[1:])), (
        f"MPJPE increased with GT inputs: {[f'{m * 1e3:.4f}' for m in vals]}")


@criterion(6, "loss-ablation ordering")
def test_acceptance_6_ablation():
    gt, noisy, _ = standard_benchmark()
    ablation = (
        dict(lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0, lam_opt=0),  # anchor only
        dict(lam_pos=0, lam_cam=0, lam_bone=0, lam_opt=0),            # + detections
        dict(lam_opt=0),                                              # + temporal
        dict(),                                                       # full
    )
    errors = []
    for kw in ablation:
        refined, _, _ = refine_pose(noisy.pose, noisy.camera, noisy.detections,
                                    noisy.flows, gt.scene.topology,
                                    PoseHyperParams(**kw))
        errors.append(fp.mpjpe(refined, gt.scene.pose))
    labels = [f"{e * 1e3:.3f}mm" for e in errors]
    assert all(b <= a for a, b in zip(errors, errors[1:])), (
        f"adding a term hurt: {labels}")
    assert errors[3] < min(errors[:3]), f"full objective not best: {labels}"


@criterion(7, "rasterization agrees with the brute-force oracle")
def test_acceptance_7_raster_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(50):
        joints_n = int(rng.integers(2, 7))
        bones = tuple((int(rng.integers(0, j)), j) for j in range(1, joints_n))
        topo = fp.SkeletonTopology(joint_count=joints_n, bones=bones)
        joints_a = rng.uniform(-6, 42, size=(joints_n, 2))
        joints_b = joints_a + rng.normal(0.0, 2.0, size=(joints_n, 2))
        radius = int(rng.choice([0, 1, 2, 4, 15]))
        raster = fp.rasterize_skeleton(joints_a, topo, 36, 36, radius)
        mask, owner, frac = raster_oracle(joints_a.tolist(), list(bones),
                                          36, 36, radius)
        assert np.array_equal(raster.mask, np.array(mask)), f"case {case}"
        flow, flow_mask = fp.bone_flow(joints_a, joints_b, topo, 36, 36, radius)
        ref_flow, ref_mask = bone_flow_oracle(joints_a.tolist(), joints_b.tolist(),
                                              list(bones), 36, 36, radius)
        assert np.array_equal(flow_mask, np.array(ref_mask)), f"case {case}"
        for y in range(36):
            for x in range(36):
                if mask[y][x]:
                    assert raster.owner[y, x] == owner[y][x], f"case {case}"
                    assert abs(raster.frac[y, x] - frac[y][x]) < 1e-9
                    assert abs(flow.uv[y, x, 0] - ref_flow[y][x][0]) < 1e-9
                    assert abs(flow.uv[y, x, 1] - ref_flow[y][x][1]) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion(8, "format conformance")
def test_acceptance_8_formats(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(100):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        uv = rng.normal(scale=20, size=(h, w, 2)).astype(np.float32)
        path = tmp_path / "f.flo"
        fileio.write_flo(path, FlowField(uv.astype(np.float64)))
        blob = path.read_bytes()
        back = fileio.read_flo(path)
        assert np.array_equal(back.uv.astype(np.float32), uv)
        fileio.write_flo(path, back)
        assert path.read_bytes() == blob  # bit-exact roundtrip

    pose = PoseTrack(rng.normal(size=(4, 6, 3)))
    tp = tmp_path / "pose.json"
    fileio.write_track(tp, pose)
    got, _ = fileio.read_track(tp)
    assert np.max(np.abs(got.positions - pose.positions)) < 1e-12

    bad = tmp_path / "bad.flo"
    bad.write_bytes(struct.pack("<f", 1.0) + b"\x00" * 8)
    with pytest.raises(FormatError):
        fileio.read_flo(bad)
    truncated = tmp_path / "trunc.flo"
    truncated.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", 4, 4))
    with pytest.raises(FormatError):
        fileio.read_flo(truncated)
    # documented exit code for unreadable inputs
    scene = tmp_path / "scene"
    fileio.write_bundle(scene, standard_benchmark()[0].scene)
    next((scene / "flows").glob("*.flo")).write_bytes(b"junk")
    assert main(["eval", "--pred", str(scene), "--gt", str(scene)]) == 3


@criterion(9, "end-to-end determinism")
def test_acceptance_9_determinism(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    noisy_dir = tmp_path / "noisy"
    assert main(["synth", "--out", str(gt_dir), "--seed", "5", "--frames", "4",
                 "--width", "48", "--height", "48"]) == 0
    assert main(["perturb", "--in", str(gt_dir), "--out", str(noisy_dir),
                 "--pose-sigma", "0.02", "--det-sigma", "0.5", "--seed", "9"]) == 0
    cfg_doc = fileio.config_to_dict(fileio.RunConfig())
    cfg_doc["schedule"] = [{"kind": "flow", "epochs": 4},
                           {"kind": "pose", "epochs": 120},
                           {"kind": "flow", "epochs": 4}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(__import__("json").dumps(cfg_doc))
    outputs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        capsys.readouterr()
        assert main(["bootstrap", "--config", str(cfg), "--in", str(noisy_dir),
                     "--out", str(out), "--gt", str(gt_dir)]) == 0
        stdout = capsys.readouterr().out
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        outputs.append((stdout, files))
    assert outputs[0][0] == outputs[1][0], "stdout differs between runs"
    assert outputs[0][1].keys() == outputs[1][1].keys()
    for name in outputs[0][1]:
        assert outputs[0][1][name] == outputs[1][1][name], f"{name} differs"
