import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowpose import (CameraTrack, CycleSchedule, DetectionTrack, FlowField,
                      FlowRefineParams, FlowStage, InvalidInputError, NumericalError,
                      PoseHyperParams, PoseStage, PoseTrack, SkeletonTopology, bootstrap,
                      mpjpe, sequence_joint_epe, standard_benchmark)
from flowpose.synth import joint2d_error


def _small_scene():
    from flowpose.synth import generate_scene, perturb, NoiseConfig
    gt = generate_scene(seed=21, frames=4, width=48, height=48)
    noisy = perturb(gt, NoiseConfig(pose_sigma=0.02, det_sigma=0.5, seed=22))
    return gt, noisy


def test_default_schedules():
    s3 = CycleSchedule.default("3d")
    assert s3.stages == (FlowStage(8), PoseStage(1500), FlowStage(8))
    s2 = CycleSchedule.default("2d")
    assert s2.stages == (FlowStage(50), PoseStage(1500), FlowStage(50))


def test_stage_validation():
    with pytest.raises(InvalidInputError):
        FlowStage(-1)
    with pytest.raises(InvalidInputError):
        CycleSchedule(("flow",))
    # stages run in order, which a set or an iterator does not keep
    for stages in (5, {FlowStage(1), PoseStage(2)}, (s for s in [FlowStage(1)])):
        with pytest.raises(InvalidInputError, match="^stages must be a sequence"):
            CycleSchedule(stages)
    for stages in ([FlowStage(1), PoseStage(2)], np.array([FlowStage(1), PoseStage(2)])):
        assert CycleSchedule(stages).stages == (FlowStage(1), PoseStage(2))


@pytest.mark.parametrize("stage", [FlowStage, PoseStage])
@pytest.mark.parametrize("epochs", [2.5, True, float("nan"), float("inf"), 1e400,
                                    "abc", "3", None, -1])
def test_stage_epochs_must_be_a_count(stage, epochs):
    # no truncation (2.5 -> 2) and no bool-as-int (True -> 1)
    with pytest.raises(InvalidInputError, match="^stage epochs "):
        stage(epochs)


def test_stage_epochs_accept_integral_numbers():
    assert FlowStage(3.0).epochs == 3 and type(FlowStage(3.0).epochs) is int
    assert PoseStage(np.int64(7)).epochs == 7


def test_empty_schedule_is_identity():
    _, noisy = _small_scene()
    out, records = bootstrap(noisy, CycleSchedule(()))
    assert out is noisy
    assert records == []


def test_zero_epoch_stage_is_identity():
    _, noisy = _small_scene()
    out, records = bootstrap(noisy, CycleSchedule((PoseStage(0),)))
    assert np.array_equal(out.pose.positions, noisy.pose.positions)
    assert np.array_equal(out.camera.params, noisy.camera.params)
    assert records[0].final_loss is None
    out2, _ = bootstrap(noisy, CycleSchedule((FlowStage(0),)))
    for fa, fb in zip(out2.flows, noisy.flows):
        assert np.array_equal(fa.uv, fb.uv)


def test_rerunning_on_output_with_empty_schedule_is_identity():
    _, noisy = _small_scene()
    out, _ = bootstrap(noisy, CycleSchedule((PoseStage(50),)))
    again, records = bootstrap(out, CycleSchedule(()))
    assert again is out and records == []


def test_bootstrap_deterministic():
    gt, noisy = _small_scene()
    sched = CycleSchedule((FlowStage(4), PoseStage(100), FlowStage(4)))
    a, _ = bootstrap(noisy, sched)
    b, _ = bootstrap(noisy, sched)
    assert np.array_equal(a.pose.positions, b.pose.positions)
    assert np.array_equal(a.camera.params, b.camera.params)
    for fa, fb in zip(a.flows, b.flows):
        assert np.array_equal(fa.uv, fb.uv)


def test_bootstrap_logs_metrics_and_improves():
    gt, noisy = _small_scene()
    sched = CycleSchedule((FlowStage(8), PoseStage(400), FlowStage(8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, records = bootstrap(noisy, sched, gt=gt)
    assert len(records) == 3
    assert [r.kind for r in records] == ["flow", "pose", "flow"]
    assert all(r.mpjpe is not None and r.epe is not None for r in records)
    assert records[1].mpjpe < mpjpe(noisy.pose, gt.scene.pose)


def test_drift_warning_fires_when_error_increases():
    # Pretend the noisy estimates are the truth: any pose movement away from
    # them must raise the drift warning.
    gt, noisy = _small_scene()
    from flowpose.synth import GroundTruthBundle
    fake_gt = GroundTruthBundle(scene=noisy)
    with pytest.warns(RuntimeWarning, match="drifting"):
        _, records = bootstrap(noisy, CycleSchedule((PoseStage(300),)), gt=fake_gt)
    assert records[0].drift_warning


def test_stage_errors_are_annotated():
    _, noisy = _small_scene()
    hp = PoseHyperParams(lr=1e300)
    with pytest.raises(NumericalError, match=r"stage 0 \(pose\)"):
        bootstrap(noisy, CycleSchedule((PoseStage(5),)), hp=hp)


@pytest.mark.parametrize("argument, value", [
    ("schedule", [FlowStage(1)]), ("schedule", 5), ("hp", 5), ("hp", FlowRefineParams()),
    ("flow_params", 5), ("flow_params", PoseHyperParams()), ("gt", 5), ("gt", "scene"),
])
def test_bootstrap_names_an_argument_of_the_wrong_class(argument, value):
    # a library object of the wrong class is refused at the entry, by name;
    # None stays the default of each
    _, noisy = _small_scene()
    with pytest.raises(TypeError, match=f"^{argument} must be a "):
        bootstrap(noisy, **{argument: value})
    if argument != "schedule":
        assert bootstrap(noisy, CycleSchedule((FlowStage(0),)), **{argument: None})[1]


def test_bootstrap_2d_mode():
    gt, noisy = _small_scene()
    b2d = replace(noisy, mode="2d", pose=None, camera=None)
    sched = CycleSchedule((FlowStage(8), PoseStage(400), FlowStage(8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, records = bootstrap(b2d, sched, gt=gt)
    assert out.mode == "2d"
    err0 = np.linalg.norm(noisy.detections.pixels - gt.scene.detections.pixels,
                          axis=-1).mean()
    assert records[1].mpjpe < err0  # refined 2-D track beats the noisy one


def test_default_2d_bootstrap_pins_its_errors():
    # the default 2-D schedule on the standard benchmark, whose 50-epoch flow
    # stages rebuild every sketch from the current track
    gt, noisy, _ = standard_benchmark(77)
    noisy = replace(noisy, mode="2d", pose=None, camera=None)
    start = (joint2d_error(noisy.detections, gt.scene.detections),
             sequence_joint_epe(noisy.flows, gt.scene.flows, gt.joints2d))
    assert start == (pytest.approx(0.59186, rel=1e-4), pytest.approx(2.61136, rel=1e-4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, records = bootstrap(noisy, gt=gt)
    end = (records[-1].mpjpe, records[-1].epe)
    assert end == (pytest.approx(0.49975, rel=0.05), pytest.approx(1.49402, rel=0.05))
    assert end[0] < start[0] and end[1] < start[1]


def test_3d_run_needs_3d_ground_truth():
    gt, noisy = _small_scene()
    gt2d = replace(gt, scene=replace(gt.scene, mode="2d", pose=None, camera=None))
    with pytest.raises(InvalidInputError, match="pose"):
        bootstrap(noisy, CycleSchedule((PoseStage(1),)), gt=gt2d)


def test_flow_params_respected():
    _, noisy = _small_scene()
    out, _ = bootstrap(noisy, CycleSchedule((FlowStage(2),)),
                       flow_params=FlowRefineParams(stride=16, sigma=0.0,
                                                    lr=0.0, radius=3))
    for fa, fb in zip(out.flows, noisy.flows):  # lr 0: flows unchanged
        assert np.array_equal(fa.uv, fb.uv)


# ---------------------------------------------------------------------------
# metamorphic pins: a relabeled, translated or transposed scene gives the
# correspondingly changed result.  Each bound is about 100 times the
# difference measured when the pin was set; a bit-identical run is pinned
# exactly.  A refactor that breaks one has changed the loop's arithmetic
# beyond reordering: find the cause rather than widen the bound.

@pytest.fixture(scope="module")
def pose_stage_run():
    _, noisy, _ = standard_benchmark(77)
    schedule = CycleSchedule((PoseStage(1500),))
    out, _ = bootstrap(noisy, schedule)
    return noisy, schedule, out


def test_joint_relabeling_gives_the_same_pose_bits(pose_stage_run):
    noisy, schedule, want = pose_stage_run
    perm = np.random.default_rng(0).permutation(noisy.topology.joint_count)
    new = np.argsort(perm)                 # old joint j is new joint new[j]
    det = noisy.detections
    relabeled = replace(
        noisy,
        topology=SkeletonTopology(noisy.topology.joint_count,
                                  tuple((int(new[j]), int(new[k]))
                                        for j, k in noisy.topology.bones)),
        pose=PoseTrack(noisy.pose.positions[:, perm]),
        detections=DetectionTrack(det.pixels[:, perm], det.confidence[:, perm]))
    got, _ = bootstrap(relabeled, schedule)
    assert got.pose.positions[:, new].tobytes() == want.pose.positions.tobytes()


def test_image_translation_leaves_the_pose(pose_stage_run):
    # shift the image content by (5, -3) px: the flows, the detections and
    # the camera offsets move with it, the 3-D pose does not (measured:
    # 2.1e-12 m, and 5.0e-13 px on the camera offsets)
    noisy, schedule, want = pose_stage_run
    shift = np.array([5.0, -3.0])
    moved = replace(
        noisy,
        camera=CameraTrack(noisy.camera.params + [0.0, *shift]),
        detections=DetectionTrack(noisy.detections.pixels + shift,
                                  noisy.detections.confidence),
        flows=tuple(FlowField(np.roll(f.uv, (-3, 5), axis=(0, 1))) for f in noisy.flows))
    got, _ = bootstrap(moved, schedule)
    assert np.abs(got.pose.positions - want.pose.positions).max() <= 2.1e-10
    assert np.abs(got.camera.params - [0.0, *shift] - want.camera.params).max() <= 5e-11


def _transposed(bundle):
    """The scene with x and y swapped: the image, every pixel pair, the
    pose's first two coordinates and the camera offsets."""
    det = bundle.detections
    return replace(
        bundle, width=bundle.height, height=bundle.width,
        detections=DetectionTrack(det.pixels[..., ::-1], det.confidence),
        flows=tuple(FlowField(f.uv.transpose(1, 0, 2)[..., ::-1]) for f in bundle.flows),
        pose=None if bundle.pose is None else PoseTrack(bundle.pose.positions[..., [1, 0, 2]]),
        camera=None if bundle.camera is None else CameraTrack(bundle.camera.params[:, [0, 2, 1]]))


@pytest.mark.parametrize("mode", ["3d", "2d"])
def test_transposed_scene_gives_the_transposed_result(mode):
    # a non-square image, so a swap of width and height anywhere in the loop
    # shows; measured on this scene: pose 9.8e-14 m, camera 2.1e-14, flows
    # 3.4e-13 px (3-D) and 8.9e-16 px (2-D), and the same 2-D track bits
    from flowpose.synth import generate_scene, perturb, NoiseConfig
    gt = generate_scene(seed=3, frames=6, width=96, height=64)
    noisy = perturb(gt, NoiseConfig(pose_sigma=0.02, camera_sigma=(0.5, 1.0, 1.0),
                                    det_sigma=0.5, corrupt_rect=(30, 20, 24, 24),
                                    corrupt_flow=(-2.5, 1.5), seed=4))
    if mode == "2d":
        noisy = replace(noisy, mode="2d", pose=None, camera=None)
    want, _ = bootstrap(noisy)
    got = _transposed(bootstrap(_transposed(noisy))[0])
    flow_bound = 3.4e-11 if mode == "3d" else 8.9e-14
    assert max(np.abs(a.uv - b.uv).max() for a, b in zip(got.flows, want.flows)) <= flow_bound
    if mode == "3d":
        assert np.abs(got.pose.positions - want.pose.positions).max() <= 9.8e-12
        assert np.abs(got.camera.params - want.camera.params).max() <= 2.1e-12
    else:
        assert got.detections.pixels.tobytes() == want.detections.pixels.tobytes()
