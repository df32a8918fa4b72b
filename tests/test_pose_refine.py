import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowpose import (CameraTrack, DetectionTrack, FlowField, InvalidInputError,
                      NumericalError, PoseHyperParams, PoseTrack, SkeletonTopology,
                      project_track, refine_pose, refine_pose_2d, standard_benchmark)
from flowpose.geometry import _sampler
from flowpose.gradcheck import make_random_scene
from flowpose.optim import _huber_parts, finite_diff_check
from flowpose.pose_refine import _interleaved, _only, _planes, _pose_objective, _to_params
from flowpose.synth import generate_scene, mpjpe

from oracles import (allocating_pose_objective, allocating_sample_flow, flow_consistency_oracle,
                     flow_sample_oracle, functional_adam_step, interleaved_pose_objective)


def _chain(joints):
    return SkeletonTopology(joint_count=joints,
                            bones=tuple((j, j + 1) for j in range(joints - 1)))


def test_hyperparam_defaults():
    hp = PoseHyperParams()
    assert (hp.lam_opt, hp.lam_3d, hp.lam_2d) == (0.01, 400.0, 0.01)
    assert (hp.lam_pos, hp.lam_cam, hp.lam_bone) == (300.0, 0.1, 1e4)
    assert hp.lr == 0.001
    for refiner in (refine_pose, refine_pose_2d):
        assert inspect.signature(refiner).parameters["epochs"].default == 1500
    with pytest.raises(InvalidInputError):
        PoseHyperParams(lam_opt=-1.0)
    with pytest.raises(InvalidInputError, match="learning rate"):
        PoseHyperParams(lr=-0.001)
    topo, pose, cam, det, flows = make_random_scene(3)
    with pytest.raises(InvalidInputError):
        refine_pose(pose, cam, det, flows, topo, epochs=-5)


def _term(hp, x, cams=None, anchor=None, **plan):
    """``(value, grad)`` of the objective under ``hp`` at the ``(T, J, D)``
    track ``x`` and, in 3-D, its ``(T, 3)`` cameras ``cams``; the anchor
    defaults to ``x`` and the gradient is in the objective's planar layout."""
    evaluate = _pose_objective(hp, _planes(x if anchor is None else anchor),
                               camera=cams is not None, **plan)
    return evaluate(_to_params(x) if cams is None else _to_params(x, cams))


def test_loss_opt_zero_for_consistent_flow():
    # All joints translate together; a constant flow field equal to the
    # projected displacement makes the flow term vanish.
    rng = np.random.default_rng(0)
    X0 = rng.uniform(1.0, 3.0, size=(5, 3))
    shift = np.array([0.12, -0.08, 0.4])
    pose = PoseTrack(np.stack([X0, X0 + shift]))
    cam = CameraTrack([[10.0, 2.0, 3.0], [10.0, 2.0, 3.0]])
    disp = 10.0 * shift[:2]
    uv = np.broadcast_to(disp, (1, 64, 64, 2)).copy()
    v, _ = _term(_only(lam_opt=1.0), pose.positions, cam.params, flows_uv=uv)
    assert v == pytest.approx(0.0, abs=1e-18)
    clamped = _sampler(uv)(_planes(project_track(pose, cam))[:, :-1])[2]
    assert not clamped.any()


def test_loss_opt_zero_for_static_scene():
    pose = PoseTrack(np.ones((3, 4, 3)))
    cam = CameraTrack(np.tile([5.0, 8.0, 8.0], (3, 1)))
    v, grad = _term(_only(lam_opt=1.0), pose.positions, cam.params,
                    flows_uv=np.zeros((2, 16, 16, 2)))
    assert v == 0.0
    assert np.all(grad == 0.0)


def test_refine_pose_requires_two_frames():
    # both refiners need a frame pair for the flow and temporal terms
    pose = PoseTrack(np.ones((1, 2, 3)))
    cam = CameraTrack([[1.0, 0.0, 0.0]])
    det = DetectionTrack(np.ones((1, 2, 2)), np.ones((1, 2)))
    with pytest.raises(InvalidInputError, match="two frames"):
        refine_pose(pose, cam, det, [], _chain(2))
    with pytest.raises(InvalidInputError, match="two frames"):
        refine_pose_2d(det, det, [], _chain(2))


_DAMAGES = ("flow-count", "flow-shapes", "det-frames", "det-joints", "topology")


@pytest.mark.parametrize("mode, damage", [
    *[(mode, damage) for mode in ("3d", "2d") for damage in _DAMAGES], ("3d", "camera-frames")])
def test_refiners_reject_mismatched_inputs(mode, damage):
    # three frames of five joints; each case breaks one of the dimensions
    # the inputs must share
    topo, pose, cam, det, flows = make_random_scene(2)
    track = det
    if damage == "flow-count":
        flows = flows[:1]
    elif damage == "flow-shapes":
        flows = (flows[0], FlowField(np.zeros((16, 32, 2))))
    elif damage == "det-frames":
        det = DetectionTrack(det.pixels[:2], det.confidence[:2])
    elif damage == "det-joints":
        det = DetectionTrack(det.pixels[:, :4], det.confidence[:, :4])
    elif damage == "topology":
        topo = _chain(6)
    else:
        cam = CameraTrack(cam.params[:2])
    with pytest.raises(InvalidInputError):
        if mode == "3d":
            refine_pose(pose, cam, det, flows, topo, epochs=1)
        else:
            refine_pose_2d(track, det, flows, topo, epochs=1)


def test_one_frame_track_has_no_temporal_or_flow_term():
    # the temporal and flow blocks need a frame pair; the anchor term alone
    # is well defined on one frame
    pose = PoseTrack(np.ones((1, 3, 3)))
    value, grad = _term(_only(lam_3d=1.0), pose.positions)
    assert value == 0.0 and grad.shape == (9,) and np.all(grad == 0.0)
    x0 = _planes(pose.positions)
    evaluate = _pose_objective(PoseHyperParams(lam_2d=0.0), x0,
                               bones=np.array([[0, 1], [1, 2]]))
    row = np.zeros(5)
    value, grad = evaluate(_to_params(pose.positions + 0.5), row)
    assert value == row[2] > 0.0 and row[1] == row[4] == 0.0


def test_loss_3d_examples():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 5, 3))
    assert _term(_only(lam_3d=1.0), X)[0] == 0.0
    shifted = X.copy()
    shifted[2, 3, 0] += 0.5  # half the smooth-L1 threshold of 1
    v, g = _term(_only(lam_3d=1.0), shifted, anchor=X)
    assert v == pytest.approx(0.125 / (4 * 5), rel=1e-12)


def test_loss_2d_examples():
    rng = np.random.default_rng(2)
    pose = PoseTrack(rng.normal(size=(3, 4, 3)))
    cam = CameraTrack(np.tile([7.0, 16.0, 16.0], (3, 1)))
    exact = project_track(pose, cam)
    det = DetectionTrack(exact, rng.uniform(size=(3, 4)))
    v, _ = _term(_only(lam_2d=1.0), pose.positions, cam.params, det=det)
    assert v == 0.0
    noisy_det = DetectionTrack(exact + rng.normal(size=exact.shape),
                               np.zeros((3, 4)))
    v, grad = _term(_only(lam_2d=1.0), pose.positions, cam.params, det=noisy_det)
    assert v == 0.0
    assert np.all(grad == 0.0)


def test_loss_temp_examples():
    topo = _chain(3)
    bones = topo.bone_array()
    X = np.tile(np.array([[0.0, 0, 0], [0.3, 0, 0], [0.3, 0.4, 0]]), (4, 1, 1))
    cam = np.tile([2.0, 0.0, 0.0], (4, 1))
    temporal = _only(lam_pos=300.0, lam_cam=0.1, lam_bone=1e4)
    assert _term(temporal, X, cam, bones=bones)[0] == 0.0
    # rigid translation per frame: bone term zero, position term positive
    moving = X + np.arange(4)[:, None, None] * np.array([0.1, 0.0, 0.0])
    v_bone, _ = _term(_only(lam_bone=1.0), moving, cam, bones=bones)
    assert v_bone == pytest.approx(0.0, abs=1e-12)
    v_pos, _ = _term(_only(lam_pos=1.0), moving, cam, bones=bones)
    assert v_pos > 0.0


def test_refine_pose_anchor_only_is_exact_fixed_point():
    topo, pose, cam, det, flows = make_random_scene(3)
    hp = PoseHyperParams(lam_opt=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0)
    out_pose, out_cam, _ = refine_pose(pose, cam, det, flows, topo, hp, epochs=100)
    assert np.array_equal(out_pose.positions, pose.positions)
    assert np.array_equal(out_cam.params, cam.params)


def test_epoch_count_too_large_to_record_is_invalid_input():
    topo, pose, cam, det, flows = make_random_scene(4)
    with pytest.raises(InvalidInputError, match="epochs"):
        refine_pose(pose, cam, det, flows, topo, epochs=10**30)
    with pytest.raises(InvalidInputError, match="epochs"):
        refine_pose_2d(det, det, flows, topo, epochs=10**30)


def test_refine_pose_zero_epochs_and_zero_lr_identity():
    topo, pose, cam, det, flows = make_random_scene(4)
    for hp, epochs in ((PoseHyperParams(), 0), (PoseHyperParams(lr=0.0), 20)):
        out_pose, out_cam, hist = refine_pose(pose, cam, det, flows, topo, hp, epochs)
        assert np.array_equal(out_pose.positions, pose.positions)
        assert np.array_equal(out_cam.params, cam.params)


def test_refine_pose_total_is_sum_of_terms():
    topo, pose, cam, det, flows = make_random_scene(5)
    _, _, hist = refine_pose(pose, cam, det, flows, topo, epochs=10)
    for row in hist:
        assert row[0] == pytest.approx(row[1] + row[2] + row[3] + row[4],
                                       abs=1e-12)


def test_refine_pose_deterministic():
    topo, pose, cam, det, flows = make_random_scene(6)
    a = refine_pose(pose, cam, det, flows, topo, epochs=40)
    b = refine_pose(pose, cam, det, flows, topo, epochs=40)
    assert np.array_equal(a[0].positions, b[0].positions)
    assert np.array_equal(a[1].params, b[1].params)


def test_refine_pose_reduces_noise_with_exact_inputs():
    gt = generate_scene(seed=11, frames=5, width=64, height=64)
    scene = gt.scene
    rng = np.random.Generator(np.random.PCG64(99))
    noisy = PoseTrack(scene.pose.positions
                      + rng.normal(0, 0.02, scene.pose.positions.shape))
    refined, _, hist = refine_pose(noisy, scene.camera, scene.detections,
                                   scene.flows, scene.topology, epochs=600)
    assert mpjpe(refined, scene.pose) < mpjpe(noisy, scene.pose)
    assert hist[-1, 0] < hist[0, 0]


def test_refine_pose_2d_fixed_point_exact():
    rng = np.random.default_rng(7)
    pix = np.tile(rng.uniform(5, 25, size=(1, 4, 2)), (4, 1, 1))
    det = DetectionTrack(pix, np.ones((4, 4)))
    flows = [FlowField(np.zeros((32, 32, 2))) for _ in range(3)]
    out, _ = refine_pose_2d(det, det, flows, _chain(4), epochs=60)
    assert np.array_equal(out.pixels, det.pixels)


def test_refine_pose_2d_anchor_only_identity():
    rng = np.random.default_rng(8)
    det = DetectionTrack(rng.uniform(5, 25, size=(3, 4, 2)), np.ones((3, 4)))
    flows = [FlowField(rng.normal(size=(32, 32, 2))) for _ in range(2)]
    hp = PoseHyperParams(lam_opt=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0)
    out, _ = refine_pose_2d(det, det, flows, _chain(4), hp, epochs=50)
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
    evaluate = _pose_objective(PoseHyperParams(), _planes(pose.positions), det,
                               np.stack([f.uv for f in flows]), topo.bone_array(),
                               camera=True)
    X = pose.positions
    rng = np.random.Generator(np.random.PCG64(120))
    start = _to_params(X + rng.normal(0.0, 0.02, X.size).reshape(X.shape), cam.params)

    assert finite_diff_check(evaluate, start, step=1e-5) < 1e-4


def test_refine_pose_2d_gradients():
    topo, pose, cam, det, flows = make_random_scene(9)
    rng = np.random.Generator(np.random.PCG64(90))
    x = DetectionTrack(det.pixels + rng.normal(0, 0.05, det.pixels.shape),
                       det.confidence)
    evaluate = _pose_objective(PoseHyperParams(), _planes(x.pixels), det,
                               np.stack([f.uv for f in flows]), topo.bone_array())
    err = finite_diff_check(evaluate, _to_params(x.pixels + 0.001), step=1e-5)
    assert err < 1e-4


def _oracle_refine(x_init, det, flows, topo, hp, epochs, camera=None):
    """The refiners' descent as a plain loop: evaluate, a functional Adam
    step, then the camera-scale check.  Returns the ``(T, J, D)`` track, the
    ``(T, 3)`` cameras (``None`` without), the history, and the epoch whose
    step drove a scale to zero (``None`` if none did)."""
    x0 = np.moveaxis(x_init, -1, 0).copy()
    evaluate = _pose_objective(hp, x0, det, np.stack([f.uv for f in flows]),
                               topo.bone_array(), camera=camera is not None)
    params = np.concatenate([x0.ravel()] + ([] if camera is None else [camera.T.ravel()]))
    m = v = np.zeros_like(params)
    history, collapsed = [], None
    for t in range(1, epochs + 1):
        row = np.zeros(5)
        _, grad = evaluate(params, row)
        history.append(row)
        params, m, v = functional_adam_step(params, grad, m, v, t, hp.lr)
        if camera is not None and np.any(params[x0.size:x0.size + len(camera)] <= 0.0):
            collapsed = t - 1
            break
    x = np.moveaxis(params[:x0.size].reshape(x0.shape), 0, -1)
    cams = None if camera is None else params[x0.size:].reshape(3, -1).T
    return x, cams, np.array(history), collapsed


@pytest.mark.parametrize("mode", ["3d", "2d"])
def test_refiners_match_a_plain_oracle_loop(mode):
    _, noisy, _ = standard_benchmark(5)
    det, hp = noisy.detections, PoseHyperParams()
    before = np.geterr()
    if mode == "3d":
        pose, cams, history = refine_pose(noisy.pose, noisy.camera, det, noisy.flows,
                                          noisy.topology, hp, epochs=120)
        got = (pose.positions, cams.params, history)
        want = _oracle_refine(noisy.pose.positions, det, noisy.flows, noisy.topology, hp,
                              120, noisy.camera.params)
    else:
        track, history = refine_pose_2d(det, det, noisy.flows, noisy.topology, hp, epochs=120)
        got = (track.pixels, None, history)
        want = _oracle_refine(det.pixels, det, noisy.flows, noisy.topology, hp, 120)
    # the descent's silenced fp warnings end with it
    assert np.geterr() == before and want[3] is None
    assert want[2].shape == (120, 5)
    for g, w in zip(got, want[:3]):
        assert (g is None and w is None) or (g.shape == w.shape and g.tobytes() == w.tobytes())


def test_collapsing_camera_scale_is_a_numerical_error():
    # an oversized step drives a scale through zero: the optimizer failed,
    # the input was fine.  The check follows each epoch's step, as in the
    # oracle loop, and raising out of the refiner's loop body leaves the fp
    # error state as it was
    _, noisy, _ = standard_benchmark()
    hp = PoseHyperParams(lr=50.0)
    *_, collapsed = _oracle_refine(noisy.pose.positions, noisy.detections, noisy.flows,
                                   noisy.topology, hp, 20, noisy.camera.params)
    before = np.geterr()
    with pytest.raises(NumericalError,
                       match=rf"camera scale of frame \d+ .* at epoch {collapsed}$"):
        refine_pose(noisy.pose, noisy.camera, noisy.detections, noisy.flows,
                    noisy.topology, hp)
    assert np.geterr() == before


def test_divergence_inside_the_loop_names_the_epoch_and_terms():
    # the first step overflows the track, and the next evaluation sees it
    topo, _, _, det, flows = make_random_scene(1)
    with pytest.raises(NumericalError, match=r"^2d refinement diverged at epoch 1: "
                       r"flow=\S+ anchor=\S+ det=\S+ temporal=nan$"):
        refine_pose_2d(det, det, flows, topo, PoseHyperParams(lr=1e200), epochs=5)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("mode", ["3d", "2d"])
def test_last_step_overflow_is_a_numerical_error(mode):
    # the only epoch's step overflows, and no later evaluation would see it
    _, noisy, _ = standard_benchmark(77)
    det = noisy.detections
    what = "2d refinement" if mode == "2d" else "pose refinement"
    with pytest.raises(NumericalError, match=rf"^{what} diverged at epoch 0$"):
        if mode == "2d":
            refine_pose_2d(det, det, noisy.flows, noisy.topology,
                           PoseHyperParams(lr=1e308), epochs=1)
        else:
            # no camera term has weight, so the scales stay put and only
            # the positions overflow
            refine_pose(noisy.pose, noisy.camera, det, noisy.flows, noisy.topology,
                        PoseHyperParams(lr=1e308, lam_opt=0, lam_2d=0, lam_cam=0),
                        epochs=1)


_LAMS = ("lam_opt", "lam_3d", "lam_2d", "lam_pos", "lam_cam", "lam_bone")
_weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))


def _scene_point(seed, camera, frames=3, joints=5):
    """A random scene, its track (3-D or projected), the objective's plan and
    an anchor offset from the track."""
    topo, pose, cam, det, flows = make_random_scene(seed, frames, joints)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = pose.positions if camera else project_track(pose, cam)
    anchor = x + rng.normal(0.0, 0.05, x.shape)
    plan = dict(det=det, flows_uv=np.stack([f.uv for f in flows]), bones=topo.bone_array(),
                camera=camera)
    return x, cam.params, anchor, plan


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), camera=st.booleans(),
       lams=st.tuples(*[_weight] * len(_LAMS)))
def test_objective_is_sum_of_its_terms(seed, camera, lams):
    x, cams, anchor, plan = _scene_point(seed, camera)
    params = _to_params(x, cams) if camera else _to_params(x)

    def evaluate(**weights):
        hp = PoseHyperParams(**{**dict.fromkeys(_LAMS, 0.0), **weights})
        row = np.zeros(5)
        _, grad = _pose_objective(hp, _planes(anchor), **plan)(params, row)
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), camera=st.booleans(),
       lams=st.tuples(*[_weight] * len(_LAMS)))
def test_planar_objective_matches_interleaved_reference(seed, camera, lams):
    x, cams, anchor, plan = _scene_point(seed, camera)
    hp = PoseHyperParams(**dict(zip(_LAMS, lams)))
    row, want_row = np.zeros(5), np.zeros(5)
    value, grad = _pose_objective(hp, _planes(anchor), **plan)(
        _to_params(x, cams) if camera else _to_params(x), row)
    want_value, want = interleaved_pose_objective(hp, 1.0, anchor, **plan)(
        np.concatenate([x.ravel(), cams.ravel()]) if camera else x.ravel(), want_row)
    assert abs(value - want_value) <= 1e-12 * want_value
    assert np.all(np.abs(row - want_row) <= 1e-12 * want_row)
    # the planar gradient, mapped back to (T, J, D) and (T, 3), is the
    # reference's within 1e-12 of its largest component
    got = [_interleaved(grad[:x.size].reshape(_planes(x).shape)).ravel()]
    if camera:
        got.append(_interleaved(grad[x.size:].reshape(3, -1)).ravel())
    assert np.all(np.abs(np.concatenate(got) - want) <= 1e-12 * np.abs(want).max())


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
    return track, fields


@settings(max_examples=60, deadline=None)
@given(_tracks_on_fields())
def test_batched_flow_consistency_matches_per_pair_loop(case):
    # the objective's flow term alone, in 2-D mode, against a per-pair loop
    track, fields = case
    value, grad = _pose_objective(_only(lam_opt=1.0), _planes(track),
                                  flows_uv=fields)(_to_params(track))
    want_value, want_grad, want_clamped = flow_consistency_oracle(
        track.tolist(), fields.tolist(), 1.0)
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    # the weight 1/n is folded into each residual's slope, so the gradient
    # agrees to rounding, within 1e-12 of its largest component
    grad = _interleaved(grad.reshape(_planes(track).shape))
    want = np.array(want_grad)
    assert np.all(np.abs(grad - want) <= 1e-12 * np.abs(want).max())
    clamped = _sampler(fields)(_planes(track)[:, :-1])[2]
    assert np.count_nonzero(clamped.any(axis=0)) == want_clamped


@st.composite
def _points_on_fields(draw):
    pairs = draw(st.integers(1, 4))
    points = draw(st.integers(1, 5))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))

    def coords(n):
        # off the field on both sides, exact borders, integers, signed zeros
        return st.one_of(st.floats(-3.0, n + 2.0), st.integers(-2, n + 1).map(float),
                         st.sampled_from([-0.0, 0.0, n - 1.0, -1e-300, n - 1.0 + 1e-12]))

    q = np.stack([draw(arrays(np.float64, (pairs, points), elements=coords(n)))
                  for n in (w, h)])
    fields = draw(arrays(np.float64, (pairs, h, w, 2),
                         elements=st.floats(-5.0, 5.0, allow_nan=False)))
    return q, fields


@settings(max_examples=200, deadline=None)
@given(_points_on_fields())
def test_planar_sampler_matches_oracle(case):
    q, fields = case
    val, jac, clamped = _sampler(fields)(q)
    want = [[flow_sample_oracle(fields[k].tolist(), *q[:, k, i].tolist())
             for i in range(q.shape[2])] for k in range(q.shape[1])]
    for got, part in ((val, 0), (jac[0], 1), (jac[1], 2)):
        planes = np.moveaxis(np.array([[c[part] for c in pair] for pair in want]), -1, 0)
        assert np.array_equal(got, planes)
    assert np.array_equal(clamped.any(axis=0), [[c[3] for c in pair] for pair in want])
    # the mask is per axis, and a clamped axis has a zero positional derivative
    h, w = fields.shape[1:3]
    x, y = q
    assert np.array_equal(clamped, [(x < 0) | (x > w - 1), (y < 0) | (y > h - 1)])
    assert np.all(jac[0][:, clamped[0]] == 0.0)
    assert np.all(jac[1][:, clamped[1]] == 0.0)


def _planes_of(x, cams, camera):
    return _to_params(x, cams) if camera else _to_params(x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), camera=st.booleans(),
       lams=st.tuples(*[_weight] * len(_LAMS)), frames=st.integers(2, 4),
       joints=st.integers(1, 6))
def test_workspace_objective_matches_allocating_oracle(seed, camera, lams, frames, joints):
    # several points on one plan, so state left in the workspace would show;
    # one joint has no bone, and zero weights drop terms from the table
    x, cams, anchor, plan = _scene_point(seed, camera, frames, joints)
    hp = PoseHyperParams(**dict(zip(_LAMS, lams)))
    evaluate = _pose_objective(hp, _planes(anchor), **plan)
    oracle = allocating_pose_objective(hp, 1.0, _planes(anchor), **plan)
    rng = np.random.Generator(np.random.PCG64(seed))
    for step in (0.0, 0.3, 0.0, 2.0):
        params = _planes_of(x + rng.normal(0.0, step, x.shape), cams, camera)
        row, want_row = np.zeros(5), np.zeros(5)
        value, grad = evaluate(params, row)
        want_value, want = oracle(params, want_row)
        # bit for bit, signed zeros included
        assert value.tobytes() == want_value.tobytes()
        assert grad.tobytes() == want.tobytes()
        assert row.tobytes() == want_row.tobytes()
        assert evaluate(params)[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("camera", [True, False])
def test_evaluate_leaves_inputs_and_earlier_results_alone(camera):
    x, cams, anchor, plan = _scene_point(3, camera)
    evaluate = _pose_objective(PoseHyperParams(), _planes(anchor), **plan)
    first = _planes_of(x, cams, camera)
    before = first.copy()
    value, grad = evaluate(first)
    kept = grad.copy()
    assert np.array_equal(first, before)
    second = _planes_of(x + 0.25, cams, camera)
    other_value, other = evaluate(second)
    assert not np.array_equal(other, kept)
    assert np.array_equal(grad, kept) and np.array_equal(first, before)
    # the same point again gives the same bits
    again_value, again = evaluate(first)
    assert again_value == value and np.array_equal(again, kept)


@pytest.mark.parametrize("scale", [1.0, 0.5, 3.0])
def test_huber_parts_match_np_clip_form_bit_for_bit(scale):
    # the penalty gives the bits of the divide-and-clip form at a threshold
    # of 1.0, on probes inside (0.5), at (1) and past (3) the kink
    r = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, scale, -scale, 0.5 * scale,
                  -2.0 * scale, np.nextafter(scale, 0.0), 1e-300, -5e-324])
    slope = np.clip(np.divide(r, 1.0), -1.0, 1.0)
    want = (slope * (r - 0.5 * 1.0 * slope), slope)
    for got, ref in zip(_huber_parts(r), want):
        assert got.tobytes() == ref.tobytes()


def test_nan_pixel_samples_nan_instead_of_failing():
    # a NaN point (say, from a NaN camera scale) gives a NaN sample, as the
    # allocating sampler does, so the refiner reports a NumericalError
    fields = np.random.default_rng(0).normal(size=(2, 5, 4, 2))
    q = np.array([[[np.nan, 1.5], [2.0, np.nan]], [[0.5, np.nan], [np.nan, np.nan]]])
    got = _sampler(fields)(q)
    with np.errstate(invalid="ignore"):     # the reference casts NaN to an index
        want = allocating_sample_flow(fields, q)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.isnan(got[0][:, np.isnan(q).any(axis=0)]).all()
