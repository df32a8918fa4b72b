"""Synthetic articulated scenes with exact ground truth, noise injection, metrics.

Scenes are generated deterministically from a seed using numpy's PCG64
generator (documented, portable): a kinematic tree with fixed bone lengths
swings each bone sinusoidally about a random axis, the root follows a slow
sinusoidal path, and the camera pans and zooms gently.  Ground-truth flow
is the rasterized bone flow composed over a constant background flow, so
the dense flow, detections, camera and pose are mutually consistent by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .geometry import (MODE_3D, CameraTrack, DetectionTrack, FlowField,
                       PoseTrack, SceneBundle, SkeletonTopology, _bone_tree, _count,
                       _finite_number, _numbers, _positive_array, _sampler, _zeros,
                       default_topology, project_track)
from .raster import bone_flow, compose_target_flow


@dataclass(frozen=True, eq=False)
class GroundTruthBundle:
    """A scene whose pose, camera, detections and flows are exact."""

    scene: SceneBundle

    @property
    def joints2d(self) -> np.ndarray:
        """Exact joint pixels, ``(T, J, 2)`` (same as the GT detections)."""
        return self.scene.detections.pixels


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels and flow corruption applied to ground truth.

    ``camera_sigma`` is one standard deviation per camera component
    ``(s, tx, ty)``.  ``corrupt_rect`` is ``(x0, y0, w, h)`` in pixels; inside
    it every flow field is replaced by ``corrupt_flow``; its origin is
    ``>= 0`` and its sides ``>= 1``, clipped to the image.
    """

    pose_sigma: float = 0.0
    camera_sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    det_sigma: float = 0.0
    corrupt_rect: tuple[int, int, int, int] | None = None
    corrupt_flow: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        _finite_number(self.pose_sigma, "pose_sigma", 0)
        _finite_number(self.det_sigma, "det_sigma", 0)
        object.__setattr__(self, "camera_sigma", _numbers(
            self.camera_sigma, 3, "camera_sigma", each=lambda s, name: _finite_number(s, name, 0)))
        object.__setattr__(self, "corrupt_flow", _numbers(self.corrupt_flow, 2, "corrupt_flow"))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if self.corrupt_rect is not None:
            rect = _numbers(self.corrupt_rect, 4, "corrupt_rect", each=_count)
            if min(rect[2:]) < 1:
                raise InvalidInputError(
                    f"corrupt_rect must be (x0, y0, w, h) with w, h >= 1, got {rect}")
            object.__setattr__(self, "corrupt_rect", rect)


_MOTION_PERIOD = 32  # frames per sinusoid period; keeps per-frame motion video-like


def generate_scene(seed: int, frames: int, topo: SkeletonTopology | None = None,
                   width: int = 128, height: int = 128,
                   amplitude: float = 1.0, radius: int = 15,
                   background: tuple[float, float] = (0.0, 0.0)) -> GroundTruthBundle:
    """Deterministic articulated scene with exact ground truth.

    ``amplitude`` scales both the joint swing angles and the root motion;
    zero gives a perfectly static skeleton.  Trajectories advance at a fixed
    per-frame rate (a 32-frame sinusoid period), so joint displacements stay
    in the few-pixel range typical of video regardless of the clip length.
    The same seed always produces a bit-identical bundle.
    """
    topo = topo or default_topology()
    frames = _count(frames, "frames", 2)
    width, height = _count(width, "width", 4), _count(height, "height", 4)
    _finite_number(amplitude, "amplitude", 0)
    background = _numbers(background, 2, "background")
    rng = np.random.Generator(np.random.PCG64(_count(seed, "seed")))
    tree = _bone_tree(topo.bones)
    if len(tree) != len(topo.bones):  # only a tree keeps every bone length constant
        raise InvalidInputError("scene generation requires a tree-shaped bone graph")
    joint_count = topo.joint_count

    # Rest offsets: random directions flattened in depth so the skeleton
    # spreads across the image plane, with fixed per-bone lengths.
    dirs = rng.normal(size=(len(topo.bones), 3))
    dirs[:, 2] *= 0.3
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    lengths = rng.uniform(0.15, 0.35, size=len(topo.bones))
    axes = rng.normal(size=(len(topo.bones), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    swing = amplitude * rng.uniform(0.1, 0.3, size=len(topo.bones))
    freq = rng.integers(1, 3, size=len(topo.bones))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=len(topo.bones))

    root_amp = amplitude * np.array([0.25, 0.15, 0.10])
    root_freq = rng.integers(1, 3, size=3)
    root_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    # each bone's Rodrigues matrices I + sin(a) K + (1 - cos a) K^2, all frames at once
    X = _zeros((frames, joint_count, 3), "frames")
    tau = 2.0 * np.pi * np.arange(frames) / _MOTION_PERIOD
    X[:, tree[0][1] if tree else 0] = root_amp * np.sin(root_freq * tau[:, None] + root_phase)
    for b, parent, child in tree:
        x, y, z = axes[b]
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        angle = swing[b] * np.sin(freq[b] * tau + phase[b])
        rot = (np.eye(3) + np.sin(angle)[:, None, None] * k
               + (1.0 - np.cos(angle))[:, None, None] * (k @ k))
        X[:, child] = X[:, parent] + rot @ (lengths[b] * dirs[b])

    # Fit the camera so projections stay comfortably inside the image.
    # Camera pan and zoom scale with the motion amplitude too, so a zero
    # amplitude really is a fully static scene.
    extent = max(float(np.abs(X[:, :, :2]).max()), 0.1)
    s0 = 0.35 * min(width, height) / extent
    cam_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    cams = np.stack([
        s0 * (1.0 + 0.02 * amplitude * np.sin(tau + cam_phase[0])),
        width / 2.0 + 0.02 * amplitude * width * np.sin(tau + cam_phase[1]),
        height / 2.0 + 0.02 * amplitude * height * np.sin(tau + cam_phase[2]),
    ], axis=1)

    pose = PoseTrack(X)
    camera = CameraTrack(cams)
    joints2d = project_track(pose, camera)
    detections = DetectionTrack(joints2d, np.ones((frames, joint_count)))

    bg = _zeros((height, width, 2), "height and width")
    bg[...] = background
    bg = FlowField(bg)
    flows = []
    for i in range(frames - 1):
        sparse, mask = bone_flow(joints2d[i], joints2d[i + 1], topo, width, height, radius)
        flows.append(compose_target_flow(bg, sparse, mask))

    scene = SceneBundle(topology=topo, width=width, height=height,
                        detections=detections, flows=tuple(flows),
                        mode=MODE_3D, pose=pose, camera=camera)
    return GroundTruthBundle(scene=scene)


def perturb(gt: GroundTruthBundle, cfg: NoiseConfig) -> SceneBundle:
    """Noisy estimates derived from ground truth; ``gt`` itself is untouched.

    Adds seeded Gaussian noise to pose, camera and detections and overwrites
    the configured rectangle of every flow field with the replacement flow.
    """
    scene = gt.scene
    if scene.pose is None:
        raise InvalidInputError("perturb needs ground truth with a pose track")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    pose = PoseTrack(scene.pose.positions
                     + rng.normal(0.0, 1.0, scene.pose.positions.shape) * cfg.pose_sigma)
    cam_sigma = np.asarray(cfg.camera_sigma)
    camera = CameraTrack(scene.camera.params
                         + rng.normal(0.0, 1.0, scene.camera.params.shape) * cam_sigma)
    detections = DetectionTrack(
        scene.detections.pixels
        + rng.normal(0.0, 1.0, scene.detections.pixels.shape) * cfg.det_sigma,
        scene.detections.confidence)

    flows = []
    for f in scene.flows:
        uv = f.uv.copy()
        if cfg.corrupt_rect is not None:
            x0, y0, w, h = cfg.corrupt_rect
            uv[y0:y0 + h, x0:x0 + w] = cfg.corrupt_flow
        flows.append(FlowField(uv))

    return replace(scene, detections=detections, flows=tuple(flows), pose=pose,
                   camera=camera)


def mpjpe(pred: PoseTrack, gt: PoseTrack,
          subset: tuple[int, ...] | None = None) -> float:
    """Mean Euclidean joint error over frames and (optionally a subset of) joints.

    Reported in the track's native unit (meters here); multiply by 1000 for
    millimeters.
    """
    if pred.positions.shape != gt.positions.shape:
        raise InvalidInputError("pose tracks have different dimensions")
    a, b = pred.positions, gt.positions
    if subset is not None:
        idx = list(_numbers(subset, None, "subset", each=_count))
        if not idx or max(idx) >= pred.joints:
            raise InvalidInputError("subset: joint index out of range")
        a, b = a[:, idx], b[:, idx]
    return float(np.linalg.norm(a - b, axis=-1).mean())


def joint2d_error(pred: DetectionTrack, gt: DetectionTrack) -> float:
    """Mean Euclidean distance in pixels between two 2-D joint tracks, over
    frames and joints."""
    if pred.pixels.shape != gt.pixels.shape:
        raise InvalidInputError("2-D joint tracks have different dimensions")
    return float(np.linalg.norm(pred.pixels - gt.pixels, axis=-1).mean())


def epe(pred: FlowField, gt: FlowField, points=None) -> float:
    """Mean endpoint error in pixels, over all pixels or at given points.

    ``points`` is an ``(N, 2)`` array of pixel positions; both fields are
    sampled bilinearly there.  Points outside the field are rejected.
    """
    if pred.uv.shape != gt.uv.shape:
        raise InvalidInputError("flow fields have different dimensions")
    if points is None:
        # on planes: a strided length-2 axis is slow to reduce
        d = np.subtract(pred.uv.transpose(2, 0, 1), gt.uv.transpose(2, 0, 1), order="C")
        d *= d
        return float(np.sqrt(d[0] + d[1]).mean())
    pts = _positive_array(points, "points", ("N",), 2)
    if np.any(pts < 0) or np.any(pts > (pred.width - 1, pred.height - 1)):
        raise InvalidInputError("points: position outside the flow field")
    at = pts.T[:, None]
    d = _sampler(pred.uv[None])(at)[0] - _sampler(gt.uv[None])(at)[0]
    return float(np.linalg.norm(d, axis=0).mean())


def sequence_joint_epe(pred_flows, gt_flows, joints2d) -> float:
    """Mean joint-restricted EPE across all frame pairs.

    ``joints2d`` is ``(T, J, 2)``; pair ``i`` is evaluated at the frame-``i``
    joint pixels (clipped into the field so border joints stay measurable).
    """
    if len(pred_flows) != len(gt_flows) or len(pred_flows) == 0:
        raise InvalidInputError("flow sequences must have equal, nonzero length")
    joints = _positive_array(joints2d, "joints2d", ("T", "J"), 2)
    if len(joints) < len(pred_flows):
        raise InvalidInputError(f"joints2d: {len(joints)} frames for {len(pred_flows)} pairs")
    return float(np.mean([epe(p, g, np.clip(joints[i], 0, (p.width - 1, p.height - 1)))
                          for i, (p, g) in enumerate(zip(pred_flows, gt_flows))]))


def standard_benchmark(seed: int = 77):
    """The frozen desk-scale benchmark used by the acceptance suite.

    A ten-frame, 17-joint, 128x128 scene; noise of 20 mm on the pose, mild
    camera jitter, half-pixel detection noise, and a 32x32 rectangle of
    wrong flow over the left arm (centered between the mean left-shoulder
    and left-wrist positions), modeling a wrongly estimated limb region.
    Returns ``(gt, noisy, noise_config)``.
    """
    topo = default_topology()
    gt = generate_scene(seed=seed, frames=10, topo=topo, width=128, height=128,
                        amplitude=1.0)
    names = np.asarray(topo.names)
    shoulder = int(np.argwhere(names == "left_shoulder")[0][0])
    wrist = int(np.argwhere(names == "left_wrist")[0][0])
    center = (gt.joints2d[:, shoulder].mean(axis=0)
              + gt.joints2d[:, wrist].mean(axis=0)) / 2.0
    x0 = int(np.clip(round(center[0] - 16), 0, gt.scene.width - 32))
    y0 = int(np.clip(round(center[1] - 16), 0, gt.scene.height - 32))
    cfg = NoiseConfig(pose_sigma=0.02, camera_sigma=(0.5, 1.0, 1.0),
                      det_sigma=0.5, corrupt_rect=(x0, y0, 32, 32),
                      corrupt_flow=(-2.5, 1.5), seed=seed + 1)
    return gt, perturb(gt, cfg), cfg
