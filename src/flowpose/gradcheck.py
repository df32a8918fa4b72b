"""Finite-difference verification of every analytic gradient in the package.

Each check builds a small random scene, wraps one loss term as a function
of a flat parameter vector, and compares the analytic gradient against
central differences.  Scenes keep joint projections strictly inside the
image and away from pixel-grid lines, since the bilinearly sampled flow
(like the smooth-L1 penalty at its threshold) is only piecewise smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CameraTrack, DetectionTrack, FlowField, PoseTrack, SkeletonTopology,
                       project)
from .flow_refine import flow_objective, grid_shape
from .optim import finite_diff_check
from .pose_refine import (PoseHyperParams, _planes, _pose_objective, _to_params, loss_2d,
                          loss_3d, loss_opt, loss_temp)


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_error: float


def _near_sampling_kink(p: np.ndarray, width: int, height: int,
                        margin: float = 1e-3) -> bool:
    """True if any projected coordinate sits within ``margin`` of a pixel-grid
    line or of the clamping border, where the sampled flow is not smooth."""
    for coords, n in ((p[..., 0], width), (p[..., 1], height)):
        interior = (coords > 0) & (coords < n - 1)
        if np.any(interior & (np.abs(coords - np.round(coords)) < margin)):
            return True
        if np.any(np.minimum(np.abs(coords), np.abs(coords - (n - 1))) < margin):
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
        proj = project(X, cams[:, None])
        if _near_sampling_kink(proj, width, height):
            continue
        det = DetectionTrack(rng.normal(width / 2.0, 4.0, size=(frames, joints, 2)),
                             rng.uniform(0.2, 1.0, size=(frames, joints)))
        flows = tuple(FlowField(rng.normal(0.0, 1.0, size=(height, width, 2)))
                      for _ in range(frames - 1))
        return topo, pose, camera, det, flows
    raise RuntimeError(f"could not draw a kink-free scene for seed {seed}")


def _pack(pose: PoseTrack, camera: CameraTrack) -> np.ndarray:
    return np.concatenate([pose.positions.ravel(), camera.params.ravel()])


def _unpack(vec: np.ndarray, shape_x, shape_c):
    n = int(np.prod(shape_x))
    return (PoseTrack(vec[:n].reshape(shape_x)),
            CameraTrack(vec[n:].reshape(shape_c)))


def check_scene(seed: int, step: float = 1e-5) -> list[CheckResult]:
    """Finite-difference checks of all loss terms on one random scene, and of
    the refiners' whole objective with default weights in both modes."""
    topo, pose, camera, det, flows = make_random_scene(seed)
    # Every check runs on a track that moves little between frames, as the
    # refiners' tracks do: on the scene's independent frames the temporal
    # term is about 1e3, and that value's rounding swamps any gradient
    # component that cancels to about 1e-5.
    moved = np.random.Generator(np.random.PCG64(seed + 20_000))
    x = None
    while x is None or _near_sampling_kink(x, flows[0].width, flows[0].height):
        X = pose.positions[:1] + moved.normal(0.0, 0.01, pose.positions.shape)
        x = project(X, camera.params[:, None])
    anchor_3d = X + moved.normal(0.0, 0.05, X.shape)
    anchor_2d = x + moved.normal(0.0, 0.5, x.shape)
    # The temporal term's cameras move little too: across a camera jump past
    # the smooth-L1 threshold its camera slopes cancel to exactly zero.
    still = CameraTrack(camera.params[:1] + moved.normal(0.0, 0.1, camera.params.shape))
    shape_x = X.shape
    shape_c = camera.params.shape
    params = _pack(PoseTrack(X), camera)
    results = []

    def f_opt(vec):
        p, c = _unpack(vec, shape_x, shape_c)
        v, gx, gc, _ = loss_opt(p, c, flows)
        return v, np.concatenate([gx.ravel(), gc.ravel()])

    def f_3d(vec):
        v, gx = loss_3d(PoseTrack(vec.reshape(shape_x)), PoseTrack(X))
        return v, gx.ravel()

    def f_2d(vec):
        p, c = _unpack(vec, shape_x, shape_c)
        v, gx, gc = loss_2d(p, c, det)
        return v, np.concatenate([gx.ravel(), gc.ravel()])

    def f_temp(vec):
        p, c = _unpack(vec, shape_x, shape_c)
        v, gx, gc = loss_temp(p, c, topo)
        return v, np.concatenate([gx.ravel(), gc.ravel()])

    # Perturb the anchor check away from the (zero-gradient) initial pose.
    rng = np.random.Generator(np.random.PCG64(seed + 10_000))
    shifted = X.ravel() + rng.normal(0.0, 0.05, X.size)
    results.append(CheckResult("loss_opt", seed, finite_diff_check(f_opt, params, step)))
    results.append(CheckResult("loss_3d", seed, finite_diff_check(f_3d, shifted, step)))
    results.append(CheckResult("loss_2d", seed, finite_diff_check(f_2d, params, step)))
    results.append(CheckResult("loss_temp", seed, finite_diff_check(
        f_temp, _pack(PoseTrack(X), still), step)))

    plan = dict(det=det, flows_uv=np.stack([f.uv for f in flows]), bones=topo.bone_array())
    for name, camera_on, anchor, point in (
            ("objective_3d", True, anchor_3d, _to_params(X, camera.params)),
            ("objective_2d", False, anchor_2d, _to_params(x))):
        objective = _pose_objective(PoseHyperParams(), 1.0, _planes(anchor),
                                    camera=camera_on, **plan)
        results.append(CheckResult(name, seed, finite_diff_check(objective, point, step)))

    base = flows[0].uv
    target = flows[-1].uv
    stride, sigma = 8, 1.0
    gh, gw = grid_shape(base.shape[1], base.shape[0], stride)
    grid0 = rng.normal(0.0, 0.3, size=(gh, gw, 2))

    def f_flow(vec):
        v, g = flow_objective(vec.reshape(gh, gw, 2), base, target, stride, sigma)
        return v, g.ravel()

    results.append(CheckResult("flow_objective", seed,
                               finite_diff_check(f_flow, grid0.ravel(), step)))
    return results


def run_gradient_checks(scenes: int = 20, seed0: int = 0, step: float = 1e-5,
                        threshold: float = 1e-4):
    """Run the whole suite; returns ``(results, all_passed)``."""
    results: list[CheckResult] = []
    for s in range(scenes):
        results.extend(check_scene(seed0 + s, step))
    ok = all(r.max_rel_error < threshold for r in results)
    return results, ok
