"""Finite-difference verification of every analytic gradient in the package.

Each check builds a small random scene and compares an analytic gradient
against central differences: the pose objective one term at a time (its
weights one-hot, named ``loss_opt``, ``loss_3d``, ``loss_2d`` and
``loss_temp`` for the flow, anchor, detection and temporal terms), the
whole objective with default weights in both modes, and the flow
refiner's objective.  Scenes keep joint projections strictly inside the
image and away from pixel-grid lines, since the bilinearly sampled flow
(like the smooth-L1 penalty at its threshold) is only piecewise smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import (CameraTrack, DetectionTrack, FlowField, PoseTrack, SkeletonTopology,
                       _count, _finite_number, project_track)
from .flow_refine import FlowRefineParams, flow_objective, grid_shape
from .optim import finite_diff_check
from .pose_refine import PoseHyperParams, _only, _planes, _pose_objective, _to_params


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_error: float


def _near_sampling_kink(p: np.ndarray, width: int, height: int) -> bool:
    """True if any projected coordinate sits within 1e-3 px of a pixel-grid
    line or of the clamping border, where the sampled flow is not smooth."""
    for coords, n in ((p[..., 0], width), (p[..., 1], height)):
        interior = (coords > 0) & (coords < n - 1)
        if np.any(interior & (np.abs(coords - np.round(coords)) < 1e-3)):
            return True
        if np.any(np.minimum(np.abs(coords), np.abs(coords - (n - 1))) < 1e-3):
            return True
    return False


def make_random_scene(seed: int, frames: int = 3, joints: int = 5,
                      width: int = 32, height: int = 32):
    """Small random scene for gradient checking; deterministic in the seed.

    Scenes whose joint projections land too close to a sampling kink are
    redrawn from the same stream, so central differences never straddle a
    derivative discontinuity of the bilinear interpolation.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    parents = [int(rng.integers(0, j)) for j in range(1, joints)]
    topo = SkeletonTopology(joint_count=joints,
                            bones=tuple((p, j + 1) for j, p in enumerate(parents)))
    for _ in range(100):
        X = rng.normal(0.0, 0.4, size=(frames, joints, 3))
        cams = np.stack([
            rng.uniform(5.0, 8.0, size=frames),
            width / 2.0 + rng.normal(0.0, 1.0, size=frames),
            height / 2.0 + rng.normal(0.0, 1.0, size=frames),
        ], axis=1)
        pose = PoseTrack(X)
        camera = CameraTrack(cams)
        proj = project_track(pose, camera)
        if _near_sampling_kink(proj, width, height):
            continue
        det = DetectionTrack(rng.normal(width / 2.0, 4.0, size=(frames, joints, 2)),
                             rng.uniform(0.2, 1.0, size=(frames, joints)))
        flows = tuple(FlowField(rng.normal(0.0, 1.0, size=(height, width, 2)))
                      for _ in range(frames - 1))
        return topo, pose, camera, det, flows
    raise RuntimeError(f"could not draw a kink-free scene for seed {seed}")


def check_scene(seed: int, step: float = 1e-5) -> list[CheckResult]:
    """Finite-difference checks on one random scene: each pose-objective term
    alone, the whole pose objective with default weights in both modes, and
    the flow objective."""
    topo, pose, camera, det, flows = make_random_scene(seed)
    # Every check runs on a track that moves little between frames, as the
    # refiners' tracks do: on the scene's independent frames the temporal
    # term is about 1e3, and that value's rounding swamps any gradient
    # component that cancels to about 1e-5.
    moved = np.random.Generator(np.random.PCG64(seed + 20_000))
    x = None
    while x is None or _near_sampling_kink(x, flows[0].width, flows[0].height):
        X = pose.positions[:1] + moved.normal(0.0, 0.01, pose.positions.shape)
        x = project_track(PoseTrack(X), camera)
    anchor_3d = X + moved.normal(0.0, 0.05, X.shape)
    anchor_2d = x + moved.normal(0.0, 0.5, x.shape)
    # The temporal term's cameras move little too: across a camera jump past
    # the smooth-L1 threshold its camera slopes cancel to exactly zero.
    still = camera.params[:1] + moved.normal(0.0, 0.1, camera.params.shape)
    # Perturb the anchor check away from the (zero-gradient) initial pose.
    rng = np.random.Generator(np.random.PCG64(seed + 10_000))
    shifted = X + rng.normal(0.0, 0.05, X.shape)
    point_3d = _to_params(X, camera.params)

    plan = dict(det=det, flows_uv=np.stack([f.uv for f in flows]), bones=topo.bone_array())
    results = []
    for name, hp, camera_on, anchor, point in (
            ("loss_opt", _only(lam_opt=1.0), True, X, point_3d),
            ("loss_3d", _only(lam_3d=1.0), False, X, _to_params(shifted)),
            ("loss_2d", _only(lam_2d=1.0), True, X, point_3d),
            ("loss_temp", _only(lam_pos=300.0, lam_cam=0.1, lam_bone=1e4), True, X,
             _to_params(X, still)),
            ("objective_3d", PoseHyperParams(), True, anchor_3d, point_3d),
            ("objective_2d", PoseHyperParams(), False, anchor_2d, _to_params(x))):
        objective = _pose_objective(hp, _planes(anchor), camera=camera_on, **plan)
        results.append(CheckResult(name, seed, finite_diff_check(objective, point, step)))

    base = flows[0].uv
    target = flows[-1].uv
    fp = FlowRefineParams()
    gh, gw = grid_shape(base.shape[1], base.shape[0], fp.stride)
    grid0 = rng.normal(0.0, 0.3, size=(gh, gw, 2)).transpose(2, 0, 1).copy()
    objective = flow_objective(base, target, fp.stride, fp.sigma)
    results.append(CheckResult("flow_objective", seed, finite_diff_check(objective, grid0, step)))
    return results


def run_gradient_checks(scenes: int = 20, seed0: int = 0, step: float = 1e-5,
                        threshold: float = 1e-4):
    """Run the whole suite; returns ``(results, all_passed)``."""
    if _count(scenes, "scenes") < 1:
        raise InvalidInputError("scenes must be >= 1")
    _count(seed0, "seed")
    if _finite_number(step, "step") <= 0 or _finite_number(threshold, "threshold") <= 0:
        raise InvalidInputError("step and threshold must be > 0")
    results: list[CheckResult] = []
    for s in range(scenes):
        results.extend(check_scene(seed0 + s, step))
    ok = all(r.max_rel_error < threshold for r in results)
    return results, ok
