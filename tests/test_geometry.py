import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowpose import (CameraTrack, DetectionTrack, FlowField, FlowRefineParams,
                      InvalidInputError, NoiseConfig, PoseHyperParams, PoseTrack, SceneBundle,
                      SkeletonTopology, average_tracks, default_topology, generate_scene,
                      project_track, rasterize_skeleton)
from flowpose.geometry import _bone_tree
from flowpose.gradcheck import run_gradient_checks
from flowpose.pose_refine import _only, _planes, _pose_objective


def _project_point(point, cam):
    """``project_track`` of one joint in one frame."""
    return project_track(PoseTrack([[point]]), CameraTrack([cam]))[0, 0]


def test_project_identity_camera():
    for z in (0.0, -3.0, 17.5):
        assert np.allclose(_project_point([0.0, 0.0, z], [1.0, 0.0, 0.0]), [0.0, 0.0])


def test_project_direct_formula():
    assert np.allclose(_project_point([1.0, 2.0, 5.0], [100.0, 50.0, 60.0]), [150.0, 260.0])


def test_project_partials_match_central_differences():
    # Partials w.r.t. (s, tx, ty) at point (1, 2, z) should be ((1,2),(1,0),(0,1)).
    point = np.array([1.0, 2.0, -4.0])
    cam = np.array([3.0, 7.0, -2.0])
    expected = np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    h = 1e-5
    for i in range(3):
        hi, lo = cam.copy(), cam.copy()
        hi[i] += h
        lo[i] -= h
        numeric = (_project_point(point, hi) - _project_point(point, lo)) / (2 * h)
        assert np.allclose(numeric, expected[i], atol=1e-6)


def test_project_rejects_bad_input():
    # project_track takes validated tracks: a non-finite point or a
    # non-positive scale fails at the track, mismatched frames at the call
    with pytest.raises(InvalidInputError):
        _project_point([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        _project_point([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])  # non-positive scale
    with pytest.raises(InvalidInputError, match="frame counts differ"):
        project_track(PoseTrack(np.zeros((2, 1, 3))), CameraTrack([[1.0, 0.0, 0.0]]))


def test_project_linearity_in_point():
    rng = np.random.default_rng(0)
    cam = np.array([3.5, 10.0, -4.0])
    p, q = rng.normal(size=3), rng.normal(size=3)
    lhs = _project_point(p, cam) - _project_point(q, cam)
    assert np.allclose(lhs, cam[0] * (p - q)[:2], rtol=0, atol=1e-12)


def _bone_term(positions, topo):
    """``(value, grad)`` of the pose objective's bone-length term alone on a
    ``(T, J, 3)`` track; the gradient is in the objective's planar layout."""
    x = _planes(np.asarray(positions, dtype=np.float64))
    evaluate = _pose_objective(_only(lam_bone=1.0), x, bones=topo.bone_array())
    return evaluate(x.ravel())


def _huber(r):
    return 0.5 * r * r if abs(r) < 1.0 else abs(r) - 0.5


def test_bone_lengths_examples():
    # a zero-length bone in frame 0 and a 3-4-5 bone in frame 1: the length
    # changes by exactly 5, so the term is the smooth-L1 of 5
    topo = SkeletonTopology(joint_count=2, bones=((0, 1),))
    value, grad = _bone_term([[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]], topo)
    assert value == 4.5
    assert np.all(np.isfinite(grad))
    assert _bone_term(np.zeros((2, 2, 3)), topo)[0] == 0.0


def test_bone_lengths_matches_independent_recomputation():
    rng = np.random.default_rng(7)
    topo = default_topology()
    X = rng.normal(size=(3, 17, 3))
    lengths = []
    for t in range(3):
        row = []
        for j, k in topo.bones:
            # per-component recomputation with plain floats
            dx = X[t, j, 0] - X[t, k, 0]
            dy = X[t, j, 1] - X[t, k, 1]
            dz = X[t, j, 2] - X[t, k, 2]
            row.append((dx * dx + dy * dy + dz * dz) ** 0.5)
        lengths.append(row)
    want = sum(_huber(lengths[t + 1][b] - lengths[t][b])
               for t in range(2) for b in range(len(topo.bones))) / (2 * len(topo.bones))
    assert abs(_bone_term(X, topo)[0] - want) < 1e-12 * want


def test_bone_lengths_translation_invariant():
    rng = np.random.default_rng(8)
    topo = default_topology()
    X = rng.normal(size=(2, 17, 3))
    shifted = X + np.array([[[5.0, -3.0, 11.0]], [[-2.0, 0.5, 7.0]]])
    assert np.allclose(_bone_term(shifted, topo)[0], _bone_term(X, topo)[0], rtol=1e-9)
    # a frame that is a translate of the one before keeps every bone length
    moved = np.stack([X[0], X[0] + np.array([5.0, -3.0, 11.0])])
    assert _bone_term(moved, topo)[0] < 1e-20


def test_average_tracks_examples():
    rng = np.random.default_rng(1)
    a = PoseTrack(rng.normal(size=(2, 3, 3)))
    assert np.array_equal(average_tracks(a, a).positions, a.positions)
    neg = PoseTrack(-a.positions)
    assert np.all(average_tracks(a, neg).positions == 0.0)
    one = PoseTrack([[[1.0, 1.0, 1.0]]])
    three = PoseTrack([[[3.0, 3.0, 3.0]]])
    assert np.array_equal(average_tracks(one, three).positions,
                          [[[2.0, 2.0, 2.0]]])
    # every array field of every kind is averaged
    cams = CameraTrack([[1.0, 2.0, 3.0]]), CameraTrack([[3.0, 0.0, 1.0]])
    assert np.array_equal(average_tracks(*cams).params, [[2.0, 1.0, 2.0]])
    dets = (DetectionTrack([[[0.0, 4.0]]], [[1.0]]),
            DetectionTrack([[[2.0, 0.0]]], [[0.5]]))
    avg = average_tracks(*dets)
    assert np.array_equal(avg.pixels, [[[1.0, 2.0]]])
    assert np.array_equal(avg.confidence, [[0.75]])
    flows = FlowField(np.ones((2, 3, 2))), FlowField(np.zeros((2, 3, 2)))
    assert np.all(average_tracks(*flows).uv == 0.5)


def test_average_commutes_exactly():
    rng = np.random.default_rng(2)
    a = PoseTrack(rng.normal(size=(4, 5, 3)))
    b = PoseTrack(rng.normal(size=(4, 5, 3)))
    assert np.array_equal(average_tracks(a, b).positions,
                          average_tracks(b, a).positions)
    fa = FlowField(rng.normal(size=(6, 7, 2)))
    fb = FlowField(rng.normal(size=(6, 7, 2)))
    assert np.array_equal(average_tracks(fa, fb).uv, average_tracks(fb, fa).uv)


def test_average_rejects_mismatch():
    a = PoseTrack(np.zeros((2, 3, 3)))
    b = PoseTrack(np.zeros((2, 4, 3)))
    with pytest.raises(InvalidInputError):
        average_tracks(a, b)
    with pytest.raises(InvalidInputError):
        average_tracks(FlowField(np.zeros((2, 2, 2))), FlowField(np.zeros((3, 2, 2))))


def test_average_refuses_different_kinds_and_non_tracks():
    pose, camera = PoseTrack(np.zeros((2, 3, 3))), CameraTrack(np.ones((2, 3)))
    with pytest.raises(InvalidInputError, match="^cannot average PoseTrack with CameraTrack$"):
        average_tracks(pose, camera)
    with pytest.raises(InvalidInputError, match="^unsupported track type ndarray$"):
        average_tracks(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))


def test_an_eval_subset_out_of_range_is_refused():
    for subset in ((3,), (0, -1)):
        with pytest.raises(InvalidInputError, match="^eval_subset"):
            SkeletonTopology(joint_count=3, bones=((0, 1),), eval_subset=subset)


def test_a_confidence_of_another_shape_is_refused():
    with pytest.raises(InvalidInputError, match=r"^confidence: expected shape \(1, 2\), got \(1, 3\)$"):
        DetectionTrack(np.zeros((1, 2, 2)), np.ones((1, 3)))


def test_topology_invariants():
    with pytest.raises(InvalidInputError):
        SkeletonTopology(joint_count=3, bones=((0, 3),))  # out of range
    with pytest.raises(InvalidInputError):
        SkeletonTopology(joint_count=3, bones=((1, 1),))  # degenerate
    with pytest.raises(InvalidInputError):
        SkeletonTopology(joint_count=3, bones=((0, 1), (1, 0)))  # duplicate
    with pytest.raises(InvalidInputError):
        SkeletonTopology(joint_count=4, bones=((0, 1), (2, 3)))  # disconnected
    # every index is a whole number: no overflow, NaN or silent truncation
    for bad in (float("inf"), float("-inf"), float("nan"), 1.5, True):
        with pytest.raises(InvalidInputError):
            SkeletonTopology(joint_count=3, bones=((0, bad),))
        with pytest.raises(InvalidInputError):
            SkeletonTopology(joint_count=3, bones=((0, 1),), eval_subset=(bad,))
    with pytest.raises(InvalidInputError):
        SkeletonTopology(joint_count=float("inf"), bones=())
    topo = default_topology()
    assert topo.joint_count == 17
    assert len(topo.bones) == 16


@pytest.mark.parametrize("setting", [
    {"eval_subset": 5}, {"bones": 5}, {"names": 5}, {"bones": ((0, 1, 2),)},
    {"names": ([1], {}, "c")}, {"names": ("a", None, "c")},
    # a string, a dict or a set is no sequence, even where its items would pass
    {"names": "abc"}, {"bones": {(0, 1): None}}, {"eval_subset": {0, 2}},
])
def test_topology_rejects_a_malformed_sequence(setting):
    with pytest.raises(InvalidInputError, match=next(iter(setting))):
        SkeletonTopology(**{"joint_count": 3, "bones": ((0, 1),), **setting})


def test_bone_tree_walks_breadth_first_from_the_lowest_joint():
    # a star on joint 2 reached through joint 1: bones in bone order per joint
    bones = ((2, 4), (1, 2), (3, 2), (2, 5))
    assert _bone_tree(bones) == [(1, 1, 2), (0, 2, 4), (2, 2, 3), (3, 2, 5)]
    # a cycle reaches every joint with one bone to spare
    assert len(_bone_tree(((0, 1), (1, 2), (2, 0)))) == 2
    assert _bone_tree(()) == []


def test_track_invariants():
    with pytest.raises(InvalidInputError):
        PoseTrack(np.full((1, 1, 3), np.inf))
    with pytest.raises(InvalidInputError):
        CameraTrack([[0.0, 1.0, 1.0]])  # scale must be positive
    with pytest.raises(InvalidInputError):
        DetectionTrack(np.zeros((1, 2, 2)), np.array([[0.5, 1.5]]))  # conf > 1
    with pytest.raises(InvalidInputError):
        FlowField(np.zeros((0, 4, 2)))


@pytest.mark.parametrize("data", [
    "abc", [[["1", "x", "2"]]], [[[1.0, 2.0], [3.0]]], [[[10**400, 0, 0]]],
    [[[1 + 2j, 0, 0]]], np.zeros((1, 1, 3), complex), [np.zeros((1, 3), complex)],
], ids=["string", "word", "ragged", "huge-int", "complex", "complex-array", "complex-rows"])
def test_a_non_real_array_is_invalid_input_named_by_its_field(data):
    # none escapes as a plain TypeError or ValueError, and no imaginary part
    # is dropped with only a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^positions: not an array of real numbers$"):
            PoseTrack(data)


def test_a_complex_flow_is_invalid_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^uv: not an array of real numbers$"):
            FlowField(np.zeros((2, 2, 2), complex))


def test_tracks_are_immutable():
    pose = PoseTrack(np.zeros((1, 1, 3)))
    with pytest.raises(ValueError):
        pose.positions[0, 0, 0] = 1.0


def test_scene_bundle_validation():
    topo = SkeletonTopology(joint_count=2, bones=((0, 1),))
    det = DetectionTrack(np.zeros((3, 2, 2)), np.ones((3, 2)))
    flows = tuple(FlowField(np.zeros((4, 4, 2))) for _ in range(2))
    pose = PoseTrack(np.zeros((3, 2, 3)))
    cam = CameraTrack(np.tile([1.0, 0.0, 0.0], (3, 1)))
    bundle = SceneBundle(topology=topo, width=4, height=4, detections=det,
                         flows=flows, pose=pose, camera=cam)
    assert bundle.frames == 3
    for change, message in (
            ({"flows": flows[:1]}, "expected 2 flow fields for 3 frames, got 1"),
            ({"pose": None}, "3d mode requires pose and camera tracks"),
            ({"topology": SkeletonTopology(3, ((0, 1), (1, 2)))},
             "detections joint count does not match topology"),
            ({"pose": PoseTrack(np.zeros((2, 2, 3)))}, "frame count does not match"),
            ({"camera": CameraTrack(np.tile([1.0, 0.0, 0.0], (4, 1)))},
             "frame count does not match"),
            ({"pose": PoseTrack(np.zeros((3, 3, 3)))}, "pose joint count does not match"),
            ({"width": 5}, r"flows\[0\]: dimensions do not match"),
            ({"mode": "4d"}, "mode must be '3d' or '2d', got '4d'"),
            # a 2-D scene holds neither track, so none can stand in for its result
            ({"mode": "2d"}, "2d mode holds no pose or camera track"),
            ({"mode": "2d", "pose": None}, "2d mode holds no pose or camera track"),
            # the pairs are in frame order, which a set or an iterator does not keep
            ({"flows": set(flows)}, "flows must be a sequence"),
            ({"flows": (f for f in flows)}, "flows must be a sequence")):
        with pytest.raises(InvalidInputError, match=message):
            replace(bundle, **change)
    two_d = replace(bundle, mode="2d", pose=None, camera=None)
    assert two_d.pose is None
    # the image dimensions are whole numbers: no escape, no silent truncation
    for bad in ("abc", float("nan"), float("inf"), 2.5, 0):
        for name in ("width", "height"):
            with pytest.raises(InvalidInputError, match=f"^{name} "):
                replace(two_d, **{name: bad})


def _one_pixel_bundle(width=1, height=1):
    """A two-frame, one-joint 2-D scene whose flows are one pixel."""
    return SceneBundle(topology=SkeletonTopology(1, ()), width=width, height=height,
                       detections=DetectionTrack(np.zeros((2, 1, 2)), np.ones((2, 1))),
                       flows=(FlowField(np.zeros((1, 1, 2))),), mode="2d")


# (field as the message names it, least allowed value, a value just below it,
# the constructor or call that checks it)
_LOWER_BOUNDS = [
    ("stride", 1, 0, lambda v: FlowRefineParams(stride=v)),
    ("sigma", 0, -0.5, lambda v: FlowRefineParams(sigma=v)),
    ("learning rate", 0, -0.05, lambda v: FlowRefineParams(lr=v)),
    *[(name, 0, -1.0, lambda v, name=name: PoseHyperParams(**{name: v}))
      for name in ("lam_opt", "lam_3d", "lam_2d", "lam_pos", "lam_cam", "lam_bone")],
    ("learning rate", 0, -0.001, lambda v: PoseHyperParams(lr=v)),
    ("joint_count", 1, 0, lambda v: SkeletonTopology(joint_count=v, bones=())),
    ("width", 1, 0, lambda v: _one_pixel_bundle(width=v)),
    ("height", 1, 0, lambda v: _one_pixel_bundle(height=v)),
    ("width", 1, 0, lambda v: rasterize_skeleton(np.zeros((1, 2)), SkeletonTopology(1, ()),
                                                 v, 1)),
    ("height", 1, 0, lambda v: rasterize_skeleton(np.zeros((1, 2)), SkeletonTopology(1, ()),
                                                  1, v)),
    ("scenes", 1, 0, lambda v: run_gradient_checks(scenes=v)),
    ("pose_sigma", 0, -0.1, lambda v: NoiseConfig(pose_sigma=v)),
    ("det_sigma", 0, -0.1, lambda v: NoiseConfig(det_sigma=v)),
    ("camera_sigma", 0, -0.1, lambda v: NoiseConfig(camera_sigma=(0.0, v, 0.0))),
    ("frames", 2, 1, lambda v: generate_scene(0, frames=v, width=4, height=4)),
    ("width", 4, 3, lambda v: generate_scene(0, frames=2, width=v, height=4)),
    ("height", 4, 3, lambda v: generate_scene(0, frames=2, width=4, height=v)),
    ("amplitude", 0, -0.1, lambda v: generate_scene(0, frames=2, width=4, height=4,
                                                    amplitude=v)),
]


@pytest.mark.parametrize("field, least, below, check", _LOWER_BOUNDS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_LOWER_BOUNDS)])
def test_lower_bounds_name_the_field_and_the_value(field, least, below, check):
    # one message form for every bound: the field, the bound and the value
    kind = "an integer " if isinstance(least, int) and isinstance(below, int) else ""
    with pytest.raises(InvalidInputError,
                       match=f"^{field} must be {kind}>= {least}, got {re.escape(repr(below))}$"):
        check(below)
    check(least)


def test_project_track_shapes():
    pose = PoseTrack(np.ones((2, 3, 3)))
    cam = CameraTrack([[2.0, 1.0, 0.0], [4.0, 0.0, 1.0]])
    p = project_track(pose, cam)
    assert p.shape == (2, 3, 2)
    assert np.allclose(p[0, 0], [3.0, 2.0])
    assert np.allclose(p[1, 0], [4.0, 5.0])
