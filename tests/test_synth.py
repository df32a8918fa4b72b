from dataclasses import replace

import numpy as np
import pytest

from flowpose import (MODE_2D, FlowField, GroundTruthBundle, InvalidInputError, NoiseConfig,
                      PoseTrack, SkeletonTopology, bone_flow, default_topology, epe,
                      generate_scene, mpjpe, perturb, sequence_joint_epe,
                      standard_benchmark)
from flowpose.pose_refine import _only, _planes, _pose_objective

from oracles import norm_epe, rodrigues_pose_track


def test_zero_amplitude_gives_static_scene_and_background_flow():
    gt = generate_scene(seed=3, frames=4, width=48, height=48, amplitude=0.0)
    X = gt.scene.pose.positions
    assert np.allclose(X, X[0], atol=1e-12)
    for f in gt.scene.flows:
        assert np.all(f.uv == 0.0)  # default zero background everywhere


def test_same_seed_bitwise_identical():
    a = generate_scene(seed=42, frames=5, width=64, height=64)
    b = generate_scene(seed=42, frames=5, width=64, height=64)
    assert np.array_equal(a.scene.pose.positions, b.scene.pose.positions)
    assert np.array_equal(a.scene.camera.params, b.scene.camera.params)
    assert np.array_equal(a.scene.detections.pixels, b.scene.detections.pixels)
    for fa, fb in zip(a.scene.flows, b.scene.flows):
        assert np.array_equal(fa.uv, fb.uv)


def test_generated_bone_lengths_constant():
    # the pose objective's bone-length term alone vanishes on the generated
    # track: no bone length changes between frames
    gt = generate_scene(seed=5, frames=8, width=64, height=64)
    x = _planes(gt.scene.pose.positions)
    evaluate = _pose_objective(_only(lam_bone=1.0), x,
                               bones=gt.scene.topology.bone_array())
    value, grad = evaluate(x.ravel())
    assert value < 1e-20
    assert np.all(np.abs(grad) < 1e-9)


def test_generate_scene_requires_tree_and_dims():
    loop = SkeletonTopology(joint_count=3, bones=((0, 1), (1, 2), (2, 0)))
    with pytest.raises(InvalidInputError):
        generate_scene(seed=0, frames=4, topo=loop)
    with pytest.raises(InvalidInputError):
        generate_scene(seed=0, frames=1)
    with pytest.raises(InvalidInputError):
        generate_scene(seed=0, frames=4, width=2, height=2)


@pytest.mark.parametrize("name, value", [
    ("frames", 3.5), ("width", 32.5), ("amplitude", float("nan")),
    ("background", 5), ("background", (1.0,)),
])
def test_generate_scene_rejects_bad_values(name, value):
    # each value is named, not truncated or left to fail deeper down
    with pytest.raises(InvalidInputError, match=name):
        generate_scene(**{"seed": 0, "frames": 3, "width": 32, "height": 32, name: value})


_TREE = SkeletonTopology(joint_count=7, bones=((3, 1), (1, 0), (1, 4), (4, 6), (3, 2), (2, 5)))


@pytest.mark.parametrize("seed, frames, width, height, amplitude, topo", [
    (0, 2, 128, 128, 1.0, None), (1, 3, 64, 40, 1.0, None), (7, 10, 33, 71, 2.5, None),
    (77, 10, 128, 128, 1.0, None), (12, 5, 48, 48, 0.0, None), (5, 6, 40, 90, 1.0, _TREE),
    (31, 9, 100, 17, 0.5, _TREE),
])
def test_generate_scene_matches_the_rodrigues_loop(seed, frames, width, height, amplitude,
                                                   topo):
    # every frame of a bone posed in one batch gives the per-frame loop's bits
    gt = generate_scene(seed, frames, topo, width, height, amplitude=amplitude)
    want = rodrigues_pose_track(seed, frames, topo or default_topology(), amplitude)
    assert gt.scene.pose.positions.tobytes() == want.tobytes()


def test_background_fills_every_off_skeleton_pixel():
    gt = generate_scene(seed=3, frames=2, width=32, height=24, background=(0.5, -2))
    _, mask = bone_flow(gt.joints2d[0], gt.joints2d[1], gt.scene.topology, 32, 24)
    assert np.all(gt.scene.flows[0].uv[~mask] == (0.5, -2.0))


def test_gt_flow_matches_bone_flow_recomputation():
    gt = generate_scene(seed=9, frames=4, width=64, height=64)
    scene = gt.scene
    for i in range(3):
        sparse, mask = bone_flow(gt.joints2d[i], gt.joints2d[i + 1],
                                 scene.topology, 64, 64, radius=15)
        assert np.allclose(scene.flows[i].uv[mask], sparse.uv[mask], atol=1e-9)
        assert np.all(scene.flows[i].uv[~mask] == 0.0)


def test_perturb_zero_noise_is_identity():
    gt = generate_scene(seed=2, frames=3, width=48, height=48)
    noisy = perturb(gt, NoiseConfig(seed=1))
    assert np.array_equal(noisy.pose.positions, gt.scene.pose.positions)
    assert np.array_equal(noisy.camera.params, gt.scene.camera.params)
    assert np.array_equal(noisy.detections.pixels, gt.scene.detections.pixels)
    for fa, fb in zip(noisy.flows, gt.scene.flows):
        assert np.array_equal(fa.uv, fb.uv)


def test_perturb_corruption_is_local():
    gt = generate_scene(seed=2, frames=3, width=48, height=48)
    cfg = NoiseConfig(corrupt_rect=(8, 12, 10, 10), corrupt_flow=(5.0, -3.0),
                      seed=1)
    noisy = perturb(gt, cfg)
    for fa, fb in zip(noisy.flows, gt.scene.flows):
        outside = np.ones((48, 48), bool)
        outside[12:22, 8:18] = False
        assert np.array_equal(fa.uv[outside], fb.uv[outside])
        assert np.all(fa.uv[12:22, 8:18] == np.array([5.0, -3.0]))


def test_perturb_names_the_missing_pose_track():
    scene = generate_scene(seed=2, frames=3, width=16, height=16).scene
    flat = GroundTruthBundle(replace(scene, mode=MODE_2D, pose=None, camera=None))
    with pytest.raises(InvalidInputError, match="pose track"):
        perturb(flat, NoiseConfig())


@pytest.mark.parametrize("setting", [
    {"pose_sigma": "a"}, {"pose_sigma": None}, {"pose_sigma": float("nan")},
    {"det_sigma": float("inf")}, {"det_sigma": -1.0},
    {"camera_sigma": (0, 0)}, {"camera_sigma": (0.0, float("nan"), 0.0)},
    {"camera_sigma": (0.0, "x", 0.0)},
    {"corrupt_flow": ("x", 0)}, {"corrupt_flow": (float("nan"), 0.0)},
    {"corrupt_flow": (0.0,)}, {"camera_sigma": None}, {"corrupt_flow": 5},
    {"corrupt_rect": 5}, {"corrupt_rect": (0, 0, 4)}, {"corrupt_rect": {0, 1, 2, 3}},
])
def test_noise_config_rejects_bad_values(setting):
    # every sigma and replacement flow is checked on construction, whether
    # or not a corruption rectangle uses the flow, and the error names it
    [(field, _)] = setting.items()
    with pytest.raises(InvalidInputError, match=f"^{field} "):
        NoiseConfig(**setting)


def test_perturb_noise_matches_expected_norm():
    # E||N(0, sigma^2 I_3)|| = sigma * sqrt(8 / pi); J*T = 510 samples
    gt = generate_scene(seed=4, frames=30, width=64, height=64)
    sigma = 0.03
    noisy = perturb(gt, NoiseConfig(pose_sigma=sigma, seed=11))
    expected = sigma * np.sqrt(8.0 / np.pi)
    got = mpjpe(noisy.pose, gt.scene.pose)
    assert abs(got - expected) / expected < 0.2


def test_mpjpe_examples_and_oracle():
    a = PoseTrack([[[0.0, 0.0, 0.0]]])
    b = PoseTrack([[[0.03, 0.0, 0.0]]])
    assert mpjpe(a, a) == 0.0
    assert mpjpe(b, a) == pytest.approx(0.03, abs=1e-15)
    rng = np.random.default_rng(6)
    x = PoseTrack(rng.normal(size=(4, 6, 3)))
    y = PoseTrack(rng.normal(size=(4, 6, 3)))
    total = 0.0
    for t in range(4):
        for j in range(6):
            d = x.positions[t, j] - y.positions[t, j]
            total += float(d[0] ** 2 + d[1] ** 2 + d[2] ** 2) ** 0.5
    assert abs(mpjpe(x, y) - total / 24) < 1e-12


def test_mpjpe_subset_and_translation_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5, 3))
    y = rng.normal(size=(3, 5, 3))
    sub = (1, 3)
    manual = np.linalg.norm((x - y)[:, sub], axis=-1).mean()
    assert mpjpe(PoseTrack(x), PoseTrack(y), sub) == pytest.approx(manual, rel=1e-15)
    shift = np.array([1.0, -2.0, 0.5])
    assert mpjpe(PoseTrack(x + shift), PoseTrack(y + shift)) == pytest.approx(
        mpjpe(PoseTrack(x), PoseTrack(y)), rel=1e-12)


def test_epe_examples():
    rng = np.random.default_rng(8)
    uv = rng.normal(size=(6, 8, 2))
    f = FlowField(uv)
    assert epe(f, f) == 0.0
    g = FlowField(uv + np.array([3.0, 4.0]))
    assert epe(g, f) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(InvalidInputError):
        epe(f, FlowField(np.zeros((5, 8, 2))))
    with pytest.raises(InvalidInputError):
        epe(f, f, points=[[100.0, 0.0]])


@pytest.mark.parametrize("shape", [(1, 1), (48, 64), (256, 256), (7, 3)])
def test_whole_image_epe_matches_the_norm_over_the_last_axis(shape):
    # the planar form gives the interleaved norm's float, bit for bit, over
    # fields from sub-pixel to large motions
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for scale in (1e-3, 1e-1, 1.0, 1e2):
        a, b = (FlowField(rng.normal(size=(*shape, 2)) * scale) for _ in range(2))
        assert epe(a, b) == norm_epe(a.uv, b.uv)


def test_epe_rejects_a_nan_point():
    f = FlowField(np.zeros((4, 4, 2)))
    with pytest.raises(InvalidInputError, match="points"):
        epe(f, f, points=[[np.nan, 1.0]])


@pytest.mark.parametrize("subset", [(1.5,), (True,), 5, {0, 1}])
def test_mpjpe_rejects_a_non_index_subset(subset):
    x = PoseTrack(np.zeros((2, 3, 3)))
    with pytest.raises(InvalidInputError, match="subset"):
        mpjpe(x, x, subset)


@pytest.mark.parametrize("subset", [(3,), (0, 7), ()], ids=["past-end", "one-past", "empty"])
def test_mpjpe_rejects_a_subset_out_of_range(subset):
    x = PoseTrack(np.zeros((2, 3, 3)))
    with pytest.raises(InvalidInputError, match="^subset: joint index out of range$"):
        mpjpe(x, x, subset)


def test_epe_zero_iff_identical():
    rng = np.random.default_rng(9)
    uv = rng.normal(size=(5, 5, 2))
    f = FlowField(uv)
    bumped = uv.copy()
    bumped[2, 2, 0] += 1e-6
    assert epe(FlowField(bumped), f) > 0.0
    assert epe(f, FlowField(uv.copy())) == 0.0


def test_joint_restricted_epe_against_elementwise_oracle():
    # flows differ only at the listed integer pixels
    rng = np.random.default_rng(10)
    base = rng.normal(size=(16, 16, 2))
    pred = base.copy()
    points = [(3, 4), (7, 9), (12, 2)]
    deltas = [(1.0, 0.5), (-2.0, 1.0), (0.0, 3.0)]
    for (x, y), (du, dv) in zip(points, deltas):
        pred[y, x] += np.array([du, dv])
    restricted = epe(FlowField(pred), FlowField(base),
                     points=np.array(points, dtype=float))
    oracle = np.mean([np.hypot(du, dv) for du, dv in deltas])
    assert restricted == pytest.approx(oracle, rel=1e-12)
    # evaluating at every pixel reproduces the full-image value exactly
    ys, xs = np.mgrid[0:16, 0:16]
    all_pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    assert epe(FlowField(pred), FlowField(base), points=all_pts) == pytest.approx(
        epe(FlowField(pred), FlowField(base)), rel=1e-12)


def test_sequence_joint_epe():
    gt = generate_scene(seed=12, frames=3, width=48, height=48)
    assert sequence_joint_epe(gt.scene.flows, gt.scene.flows, gt.joints2d) == 0.0


def test_sequence_joint_epe_needs_a_joint_frame_per_pair():
    gt = generate_scene(seed=12, frames=3, width=48, height=48)
    with pytest.raises(InvalidInputError, match="joints2d"):
        sequence_joint_epe(gt.scene.flows, gt.scene.flows, gt.joints2d[:1])


@pytest.mark.parametrize("pairs", [(2, 1), (1, 2), (0, 0)], ids=["fewer-gt", "fewer-pred", "empty"])
def test_sequence_joint_epe_needs_equal_nonempty_sequences(pairs):
    gt = generate_scene(seed=12, frames=3, width=48, height=48)
    flows = gt.scene.flows
    with pytest.raises(InvalidInputError, match="^flow sequences must have equal, nonzero length$"):
        sequence_joint_epe(flows[:pairs[0]], flows[:pairs[1]], gt.joints2d)


def test_noise_config_refuses_an_empty_corrupt_rect():
    for rect in ((0, 0, 0, 4), (0, 0, 4, 0)):
        with pytest.raises(InvalidInputError, match="^corrupt_rect must be .* w, h >= 1"):
            NoiseConfig(corrupt_rect=rect)


@pytest.mark.parametrize("scene", [5, None, "scene"])
def test_ground_truth_names_a_scene_of_the_wrong_class(scene):
    # it was accepted, and bootstrap failed later with an AttributeError
    with pytest.raises(TypeError, match="^scene must be a SceneBundle"):
        GroundTruthBundle(scene)


def test_fourteen_joint_subset():
    from flowpose import EVAL_JOINTS_14
    assert len(EVAL_JOINTS_14) == 14
    gt = generate_scene(seed=1, frames=2, width=48, height=48)
    assert mpjpe(gt.scene.pose, gt.scene.pose, EVAL_JOINTS_14) == 0.0
    topo = default_topology(eval_subset=EVAL_JOINTS_14)
    assert topo.eval_subset == EVAL_JOINTS_14


def test_standard_benchmark_reproducible():
    gt_a, noisy_a, cfg_a = standard_benchmark()
    gt_b, noisy_b, cfg_b = standard_benchmark()
    assert cfg_a == cfg_b
    assert np.array_equal(noisy_a.pose.positions, noisy_b.pose.positions)
    assert cfg_a.corrupt_rect[2:] == (32, 32)
