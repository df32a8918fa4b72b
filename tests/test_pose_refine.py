import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowpose import (CameraTrack, DetectionTrack, FlowField, InvalidInputError,
                      NumericalError, PoseHyperParams, PoseTrack, SkeletonTopology,
                      loss_2d, loss_3d, loss_opt, loss_temp, project_track,
                      refine_pose, refine_pose_2d, standard_benchmark)
from flowpose.gradcheck import make_random_scene
from flowpose.optim import finite_diff_check
from flowpose.pose_refine import (_flow_consistency, _pose_objective, _project,
                                  _sample_flow)
from flowpose.synth import generate_scene, mpjpe

from oracles import flow_consistency_oracle, flow_sample_oracle


def _chain(joints):
    return SkeletonTopology(joint_count=joints,
                            bones=tuple((j, j + 1) for j in range(joints - 1)))


def test_hyperparam_defaults():
    hp = PoseHyperParams()
    assert (hp.lam_opt, hp.lam_3d, hp.lam_2d) == (0.01, 400.0, 0.01)
    assert (hp.lam_pos, hp.lam_cam, hp.lam_bone) == (300.0, 0.1, 1e4)
    assert hp.lr == 0.001 and hp.epochs == 1500
    with pytest.raises(InvalidInputError):
        PoseHyperParams(lam_opt=-1.0)
    with pytest.raises(InvalidInputError):
        PoseHyperParams(epochs=-5)


def test_loss_opt_zero_for_consistent_flow():
    # All joints translate together; a constant flow field equal to the
    # projected displacement makes the flow term vanish.
    rng = np.random.default_rng(0)
    X0 = rng.uniform(1.0, 3.0, size=(5, 3))
    shift = np.array([0.12, -0.08, 0.4])
    pose = PoseTrack(np.stack([X0, X0 + shift]))
    cam = CameraTrack([[10.0, 2.0, 3.0], [10.0, 2.0, 3.0]])
    disp = 10.0 * shift[:2]
    uv = np.broadcast_to(disp, (64, 64, 2)).copy()
    v, gX, gC, clamped = loss_opt(pose, cam, [FlowField(uv)])
    assert v == pytest.approx(0.0, abs=1e-18)
    assert clamped == 0


def test_loss_opt_zero_for_static_scene():
    pose = PoseTrack(np.ones((3, 4, 3)))
    cam = CameraTrack(np.tile([5.0, 8.0, 8.0], (3, 1)))
    flows = [FlowField(np.zeros((16, 16, 2))) for _ in range(2)]
    v, gX, gC, _ = loss_opt(pose, cam, flows)
    assert v == 0.0
    assert np.all(gX == 0.0) and np.all(gC == 0.0)


def test_loss_opt_requires_two_frames():
    pose = PoseTrack(np.ones((1, 2, 3)))
    cam = CameraTrack([[1.0, 0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        loss_opt(pose, cam, [])


def test_loss_3d_examples():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 5, 3))
    pose = PoseTrack(X)
    assert loss_3d(pose, pose)[0] == 0.0
    shifted = X.copy()
    shifted[2, 3, 0] += 0.5  # beta/2 with beta=1
    v, g = loss_3d(PoseTrack(shifted), pose)
    assert v == pytest.approx(0.125 / (4 * 5), rel=1e-12)


def test_loss_2d_examples():
    rng = np.random.default_rng(2)
    pose = PoseTrack(rng.normal(size=(3, 4, 3)))
    cam = CameraTrack(np.tile([7.0, 16.0, 16.0], (3, 1)))
    exact = project_track(pose, cam)
    det = DetectionTrack(exact, rng.uniform(size=(3, 4)))
    v, gX, gC = loss_2d(pose, cam, det)
    assert v == 0.0
    noisy_det = DetectionTrack(exact + rng.normal(size=exact.shape),
                               np.zeros((3, 4)))
    v, gX, gC = loss_2d(pose, cam, noisy_det)
    assert v == 0.0
    assert np.all(gX == 0.0) and np.all(gC == 0.0)


def test_loss_temp_examples():
    topo = _chain(3)
    X = np.tile(np.array([[0.0, 0, 0], [0.3, 0, 0], [0.3, 0.4, 0]]), (4, 1, 1))
    pose = PoseTrack(X)
    cam = CameraTrack(np.tile([2.0, 0.0, 0.0], (4, 1)))
    assert loss_temp(pose, cam, topo)[0] == 0.0
    # rigid translation per frame: bone term zero, position term positive
    moving = X + np.arange(4)[:, None, None] * np.array([0.1, 0.0, 0.0])
    v_bone, _, _ = loss_temp(PoseTrack(moving), cam, topo, w_pos=0.0, w_cam=0.0,
                             w_bone=1.0)
    assert v_bone == pytest.approx(0.0, abs=1e-12)
    v_pos, _, _ = loss_temp(PoseTrack(moving), cam, topo, w_pos=1.0, w_cam=0.0,
                            w_bone=0.0)
    assert v_pos > 0.0


def test_refine_pose_anchor_only_is_exact_fixed_point():
    topo, pose, cam, det, flows = make_random_scene(3)
    hp = PoseHyperParams(lam_opt=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0,
                         epochs=100)
    out_pose, out_cam, _ = refine_pose(pose, cam, det, flows, topo, hp)
    assert np.array_equal(out_pose.positions, pose.positions)
    assert np.array_equal(out_cam.params, cam.params)


def test_refine_pose_zero_epochs_and_zero_lr_identity():
    topo, pose, cam, det, flows = make_random_scene(4)
    for hp in (PoseHyperParams(epochs=0), PoseHyperParams(lr=0.0, epochs=20)):
        out_pose, out_cam, hist = refine_pose(pose, cam, det, flows, topo, hp)
        assert np.array_equal(out_pose.positions, pose.positions)
        assert np.array_equal(out_cam.params, cam.params)


def test_refine_pose_total_is_sum_of_terms():
    topo, pose, cam, det, flows = make_random_scene(5)
    _, _, hist = refine_pose(pose, cam, det, flows, topo,
                             PoseHyperParams(epochs=10))
    for row in hist:
        assert row[0] == pytest.approx(row[1] + row[2] + row[3] + row[4],
                                       abs=1e-12)


def test_refine_pose_deterministic():
    topo, pose, cam, det, flows = make_random_scene(6)
    hp = PoseHyperParams(epochs=40)
    a = refine_pose(pose, cam, det, flows, topo, hp)
    b = refine_pose(pose, cam, det, flows, topo, hp)
    assert np.array_equal(a[0].positions, b[0].positions)
    assert np.array_equal(a[1].params, b[1].params)


def test_refine_pose_reduces_noise_with_exact_inputs():
    gt = generate_scene(seed=11, frames=5, width=64, height=64)
    scene = gt.scene
    rng = np.random.Generator(np.random.PCG64(99))
    noisy = PoseTrack(scene.pose.positions
                      + rng.normal(0, 0.02, scene.pose.positions.shape))
    hp = PoseHyperParams(epochs=600)
    refined, _, hist = refine_pose(noisy, scene.camera, scene.detections,
                                   scene.flows, scene.topology, hp)
    assert mpjpe(refined, scene.pose) < mpjpe(noisy, scene.pose)
    assert hist[-1, 0] < hist[0, 0]


def test_refine_pose_2d_fixed_point_exact():
    rng = np.random.default_rng(7)
    pix = np.tile(rng.uniform(5, 25, size=(1, 4, 2)), (4, 1, 1))
    det = DetectionTrack(pix, np.ones((4, 4)))
    flows = [FlowField(np.zeros((32, 32, 2))) for _ in range(3)]
    out, _ = refine_pose_2d(det, det, flows, _chain(4),
                            PoseHyperParams(epochs=60))
    assert np.array_equal(out.pixels, det.pixels)


def test_refine_pose_2d_anchor_only_identity():
    rng = np.random.default_rng(8)
    det = DetectionTrack(rng.uniform(5, 25, size=(3, 4, 2)), np.ones((3, 4)))
    flows = [FlowField(rng.normal(size=(32, 32, 2))) for _ in range(2)]
    hp = PoseHyperParams(lam_opt=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0,
                         epochs=50)
    out, _ = refine_pose_2d(det, det, flows, _chain(4), hp)
    assert np.array_equal(out.pixels, det.pixels)


def test_refine_pose_2d_recovers_corrupted_joint():
    gt, _, _ = standard_benchmark()
    scene = gt.scene
    rng = np.random.Generator(np.random.PCG64(5))
    pix = scene.detections.pixels + rng.normal(0, 0.75, scene.detections.pixels.shape)
    pix[4, 13] += np.array([1.0, -0.7])
    x_bad = DetectionTrack(pix, scene.detections.confidence)
    out, _ = refine_pose_2d(x_bad, x_bad, scene.flows, scene.topology)
    truth = scene.detections.pixels
    assert (np.linalg.norm(out.pixels[4, 13] - truth[4, 13])
            < np.linalg.norm(pix[4, 13] - truth[4, 13]))
    assert (np.linalg.norm(out.pixels - truth, axis=-1).mean()
            < np.linalg.norm(pix - truth, axis=-1).mean())


def test_total_pose_loss_gradients():
    # the full weighted objective, not just the individual terms
    topo, pose, cam, det, flows = make_random_scene(12)
    evaluate = _pose_objective(PoseHyperParams(), 1.0, pose.positions, det,
                               np.stack([f.uv for f in flows]), topo.bone_array(),
                               camera=True)
    n_x = pose.positions.size
    rng = np.random.Generator(np.random.PCG64(120))
    start = np.concatenate([
        pose.positions.ravel() + rng.normal(0.0, 0.02, n_x),
        cam.params.ravel(),
    ])

    assert finite_diff_check(evaluate, start, step=1e-5) < 1e-4


def test_refine_pose_2d_gradients():
    topo, pose, cam, det, flows = make_random_scene(9)
    rng = np.random.Generator(np.random.PCG64(90))
    x = DetectionTrack(det.pixels + rng.normal(0, 0.05, det.pixels.shape),
                       det.confidence)
    evaluate = _pose_objective(PoseHyperParams(), 1.0, x.pixels, det,
                               np.stack([f.uv for f in flows]), topo.bone_array())
    err = finite_diff_check(evaluate, x.pixels.ravel() + 0.001, step=1e-5)
    assert err < 1e-4


def test_collapsing_camera_scale_is_a_numerical_error():
    # an oversized step drives a scale through zero: the optimizer failed,
    # the input was fine
    _, noisy, _ = standard_benchmark()
    with pytest.raises(NumericalError, match=r"camera scale of frame \d+ .* at epoch \d+"):
        refine_pose(noisy.pose, noisy.camera, noisy.detections, noisy.flows,
                    noisy.topology, PoseHyperParams(lr=50.0))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("mode", ["3d", "2d"])
def test_last_step_overflow_is_a_numerical_error(mode):
    # the only epoch's step overflows, and no later evaluation would see it
    _, noisy, _ = standard_benchmark(77)
    det = noisy.detections
    with pytest.raises(NumericalError, match=r"non-finite parameters at epoch 0"):
        if mode == "2d":
            refine_pose_2d(det, det, noisy.flows, noisy.topology,
                           PoseHyperParams(lr=1e308, epochs=1))
        else:
            # no camera term has weight, so the scales stay put and only
            # the positions overflow
            refine_pose(noisy.pose, noisy.camera, det, noisy.flows, noisy.topology,
                        PoseHyperParams(lr=1e308, epochs=1, lam_opt=0, lam_2d=0,
                                        lam_cam=0))


_LAMS = ("lam_opt", "lam_3d", "lam_2d", "lam_pos", "lam_cam", "lam_bone")
_weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), camera=st.booleans(),
       lams=st.tuples(*[_weight] * len(_LAMS)))
def test_objective_is_sum_of_its_terms(seed, camera, lams):
    topo, pose, cam, det, flows = make_random_scene(seed)
    flows_uv = np.stack([f.uv for f in flows])
    rng = np.random.Generator(np.random.PCG64(seed))
    if camera:
        x = pose.positions
        params = np.concatenate([x.ravel(), cam.params.ravel()])
    else:
        x = _project(pose.positions, cam.params)
        params = x.ravel()
    anchor = x + rng.normal(0.0, 0.05, x.shape)

    def evaluate(**weights):
        hp = PoseHyperParams(**{**dict.fromkeys(_LAMS, 0.0), **weights})
        row = np.zeros(5)
        _, grad = _pose_objective(hp, 1.0, anchor, det, flows_uv, topo.bone_array(),
                                  camera)(params, row)
        return row, grad

    row, grad = evaluate(**dict(zip(_LAMS, lams)))
    parts = [evaluate(**{name: lam}) for name, lam in zip(_LAMS, lams)]
    value = sum(part[0][0] for part in parts)
    assert abs(row[0] - value) <= 1e-12 * value
    want = sum(part[1] for part in parts)
    scale = sum(np.abs(part[1]) for part in parts)
    assert np.all(np.abs(grad - want) <= 1e-12 * scale)
    # each history column is the sum of the one-hot columns
    assert np.allclose(row[1:], sum(part[0][1:] for part in parts), rtol=1e-12, atol=0)


@st.composite
def _tracks_on_fields(draw):
    frames = draw(st.integers(2, 5))
    joints = draw(st.integers(1, 5))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    # the range reaches past every border, so some joints are clamped
    coords = st.floats(-3.0, 12.0, allow_nan=False)
    track = draw(arrays(np.float64, (frames, joints, 2), elements=coords))
    fields = draw(arrays(np.float64, (frames - 1, h, w, 2),
                         elements=st.floats(-5.0, 5.0, allow_nan=False)))
    beta = draw(st.floats(0.1, 2.0))
    return track, fields, beta


@settings(max_examples=60, deadline=None)
@given(_tracks_on_fields())
def test_batched_flow_consistency_matches_per_pair_loop(case):
    track, fields, beta = case
    value, grad, clamped = _flow_consistency(track, fields, beta)
    want_value, want_grad, want_clamped = flow_consistency_oracle(
        track.tolist(), fields.tolist(), beta)
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    assert np.array_equal(grad, np.array(want_grad))
    assert clamped == want_clamped

    # the sampler itself is exact against the per-point oracle
    val, dvdx, dvdy, clamped = _sample_flow(fields, track[:-1])
    want = [[flow_sample_oracle(fields[t].tolist(), *track[t, j].tolist())
             for j in range(track.shape[1])] for t in range(track.shape[0] - 1)]
    for k, got in enumerate((val, dvdx, dvdy)):
        assert np.array_equal(got, np.array([[c[k] for c in pair] for pair in want]))
    assert clamped == sum(c[3] for pair in want for c in pair)

    # a clamped axis has a zero positional derivative
    h, w = fields.shape[1:3]
    x, y = track[:-1, :, 0], track[:-1, :, 1]
    assert np.all(dvdx[(x < 0) | (x > w - 1)] == 0.0)
    assert np.all(dvdy[(y < 0) | (y > h - 1)] == 0.0)
