"""Pose refinement: the four-term objective and its analytic gradients.

The objective ties a 3-D joint track and its per-frame cameras to the
scene's optical flow (projected joint displacements must follow the flow
sampled at the joint pixels), to the initial estimates, to 2-D detections
weighted by confidence, and to temporal consistency of positions, cameras
and bone lengths.  Every term is an arithmetic mean over its indices and
every gradient is closed-form, including the path through the bilinear
flow sampling location.

A 2-D fallback optimizes pixel tracks directly when no trustworthy 3-D
estimate exists: projected points are replaced by the 2-D variables, the
camera terms drop out, and the anchor term compares against the initial
2-D estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import (CameraTrack, DetectionTrack, FlowField, PoseTrack,
                       SkeletonTopology)
from .optim import _huber, _huber_parts, adam_init, adam_step

_NORM_EPS = 1e-12  # guards the bone-direction derivative at zero length


@dataclass(frozen=True)
class PoseHyperParams:
    """Loss weights and optimization settings for pose refinement."""

    lam_opt: float = 0.01
    lam_3d: float = 400.0
    lam_2d: float = 0.01
    lam_pos: float = 300.0
    lam_cam: float = 0.1
    lam_bone: float = 1e4
    lr: float = 0.001
    epochs: int = 1500

    def __post_init__(self):
        lams = (self.lam_opt, self.lam_3d, self.lam_2d,
                self.lam_pos, self.lam_cam, self.lam_bone)
        if any(not np.isfinite(l) or l < 0 for l in lams):
            raise InvalidInputError("loss weights must be finite and >= 0")
        if not np.isfinite(self.lr):
            raise InvalidInputError("learning rate must be finite")
        if int(self.epochs) < 0:
            raise InvalidInputError("epochs must be >= 0")
        object.__setattr__(self, "epochs", int(self.epochs))


# ---------------------------------------------------------------------------
# array-level building blocks

def _project(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    s = C[:, 0][:, None]
    return np.stack([s * X[..., 0] + C[:, 1][:, None],
                     s * X[..., 1] + C[:, 2][:, None]], axis=-1)


def _project_backprop(gp: np.ndarray, X: np.ndarray, C: np.ndarray):
    s = C[:, 0][:, None]
    gX = np.zeros_like(X)
    gX[..., 0] = gp[..., 0] * s
    gX[..., 1] = gp[..., 1] * s
    gC = np.zeros_like(C)
    gC[:, 0] = (gp[..., 0] * X[..., 0] + gp[..., 1] * X[..., 1]).sum(axis=1)
    gC[:, 1] = gp[..., 0].sum(axis=1)
    gC[:, 2] = gp[..., 1].sum(axis=1)
    return gX, gC


def _sample_flow(uv: np.ndarray, pts: np.ndarray):
    """Bilinear samples of stacked fields ``(P, H, W, 2)`` at ``(P, N, 2)`` pixels.

    Field ``k`` is sampled at the points ``pts[k]``, all pairs in one gather.
    Positions are clamped to the field; where clamping was active the
    positional derivative in that axis is zero (the sample no longer moves
    with the point).  Returns values ``(P, N, 2)``, d(value)/dx and
    d(value)/dy (each ``(P, N, 2)``), and the number of clamped positions.
    """
    pairs, h, w = uv.shape[:3]
    x = pts[..., 0]
    y = pts[..., 1]
    inside_x = (x >= 0.0) & (x <= w - 1.0)
    inside_y = (y >= 0.0) & (y <= h - 1.0)
    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc).astype(np.intp), max(w - 2, 0))
    y0 = np.minimum(np.floor(yc).astype(np.intp), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    # row offsets into the flattened (P * H * W, 2) stack
    flat = uv.reshape(-1, 2)
    base = (np.arange(pairs) * (h * w))[:, None]
    row0 = base + y0 * w
    row1 = base + y1 * w
    v00 = flat[row0 + x0]
    v01 = flat[row0 + x1]
    v10 = flat[row1 + x0]
    v11 = flat[row1 + x1]
    val = (1 - fy) * ((1 - fx) * v00 + fx * v01) + fy * ((1 - fx) * v10 + fx * v11)
    dvdx = (1 - fy) * (v01 - v00) + fy * (v11 - v10)
    dvdy = (1 - fx) * (v10 - v00) + fx * (v11 - v01)
    dvdx[~inside_x] = 0.0
    dvdy[~inside_y] = 0.0
    clamped = int(np.count_nonzero(~(inside_x & inside_y)))
    return val, dvdx, dvdy, clamped


def _flow_consistency(p: np.ndarray, flows_uv: np.ndarray, beta: float):
    """Mean smooth-L1 of ``flow(p_t) - (p_{t+1} - p_t)`` over pairs and joints.

    ``p`` is a ``(T, J, 2)`` pixel track and ``flows_uv`` the stacked
    ``(T-1, H, W, 2)`` fields.  Gradients flow into both frames of each pair
    and through the sampling location.
    """
    frames, joints = p.shape[:2]
    n = (frames - 1) * joints
    val, dvdx, dvdy, clamped = _sample_flow(flows_uv, p[:-1])
    resid = val - (p[1:] - p[:-1])
    vals, g = _huber_parts(resid, beta)
    gp = np.zeros_like(p)
    # residual_u = val_u(x, y) + x - x_next, residual_v = val_v(x, y) + y - y_next
    gp[:-1, :, 0] += (g[..., 0] * (dvdx[..., 0] + 1.0) + g[..., 1] * dvdx[..., 1]) / n
    gp[:-1, :, 1] += (g[..., 0] * dvdy[..., 0] + g[..., 1] * (dvdy[..., 1] + 1.0)) / n
    gp[1:] -= g / n
    # pair sums accumulated in frame order, as a per-pair loop adds them
    total = np.cumsum(vals.reshape(frames - 1, -1).sum(axis=1))[-1]
    return float(total) / n, gp, clamped


def _anchor(X: np.ndarray, X0: np.ndarray, beta: float):
    n = X.shape[0] * X.shape[1]
    v, g = _huber(X - X0, beta)
    return v / n, g / n


def _weighted_match(p: np.ndarray, target: np.ndarray, w: np.ndarray, beta: float):
    n = p.shape[0] * p.shape[1]
    vals, g = _huber_parts(target - p, beta)
    value = float((w[:, :, None] * vals).sum()) / n
    return value, -(w[:, :, None] * g) / n


def _temporal(A: np.ndarray, beta: float):
    """Mean smooth-L1 of consecutive-frame differences; A is (T, N, D)."""
    n = (A.shape[0] - 1) * A.shape[1]
    v, g = _huber(A[1:] - A[:-1], beta)
    grad = np.zeros_like(A)
    grad[1:] += g / n
    grad[:-1] -= g / n
    return v / n, grad


def _bone_consistency(X: np.ndarray, bones: np.ndarray, beta: float):
    """Mean smooth-L1 of per-bone length changes between consecutive frames."""
    frames = X.shape[0]
    nb = bones.shape[0]
    grad = np.zeros_like(X)
    if nb == 0 or frames < 2:
        return 0.0, grad
    n = (frames - 1) * nb
    d = X[:, bones[:, 0]] - X[:, bones[:, 1]]      # (T, B, D)
    lengths = np.linalg.norm(d, axis=-1)           # (T, B)
    units = d / np.maximum(lengths, _NORM_EPS)[:, :, None]
    v, g = _huber(lengths[1:] - lengths[:-1], beta)  # g: (T-1, B)
    coef = g[:, :, None] / n
    # d|X_j - X_k| / dX_j is the unit bone vector; joints repeat across bones,
    # hence the scatter-adds.
    np.add.at(grad[1:], (slice(None), bones[:, 0]), coef * units[1:])
    np.add.at(grad[1:], (slice(None), bones[:, 1]), -coef * units[1:])
    np.add.at(grad[:-1], (slice(None), bones[:, 0]), -coef * units[:-1])
    np.add.at(grad[:-1], (slice(None), bones[:, 1]), coef * units[:-1])
    return v / n, grad


# ---------------------------------------------------------------------------
# public loss terms

def _stack_flows(flows: Sequence[FlowField]) -> np.ndarray:
    shapes = {f.uv.shape for f in flows}
    if len(shapes) > 1:
        raise InvalidInputError("flow fields have different dimensions")
    return np.stack([f.uv for f in flows])


def _check_sequence(pose: PoseTrack, camera: CameraTrack, flows=None):
    if pose.frames != camera.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    if pose.frames < 2:
        raise InvalidInputError("at least two frames are required")
    if flows is not None and len(flows) != pose.frames - 1:
        raise InvalidInputError(
            f"expected {pose.frames - 1} flow fields, got {len(flows)}")


def loss_opt(pose: PoseTrack, camera: CameraTrack, flows: Sequence[FlowField],
             beta: float = 1.0):
    """Flow-consistency term.

    Returns ``(value, grad_positions, grad_camera, clamped)`` where
    ``clamped`` counts joint projections that fell outside the flow field
    and were sampled at the border.
    """
    _check_sequence(pose, camera, flows)
    X = pose.positions
    C = camera.params
    p = _project(X, C)
    value, gp, clamped = _flow_consistency(p, _stack_flows(flows), beta)
    gX, gC = _project_backprop(gp, X, C)
    return value, gX, gC, clamped


def loss_3d(pose: PoseTrack, pose_init: PoseTrack, beta: float = 1.0):
    """Deviation from the initial 3-D estimates: ``(value, grad_positions)``."""
    if pose.positions.shape != pose_init.positions.shape:
        raise InvalidInputError("pose tracks have different dimensions")
    return _anchor(pose.positions, pose_init.positions, beta)


def loss_2d(pose: PoseTrack, camera: CameraTrack, det: DetectionTrack,
            beta: float = 1.0):
    """Confidence-weighted reprojection term: ``(value, grad_positions, grad_camera)``."""
    if pose.frames != camera.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    if det.pixels.shape[:2] != pose.positions.shape[:2]:
        raise InvalidInputError("detections do not match the pose dimensions")
    X = pose.positions
    C = camera.params
    p = _project(X, C)
    value, gp = _weighted_match(p, det.pixels, det.confidence, beta)
    gX, gC = _project_backprop(gp, X, C)
    return value, gX, gC


def loss_temp(pose: PoseTrack, camera: CameraTrack, topo: SkeletonTopology,
              w_pos: float = 300.0, w_cam: float = 0.1, w_bone: float = 1e4,
              beta: float = 1.0):
    """Temporal smoothness of positions and cameras plus bone-length consistency.

    Returns ``(value, grad_positions, grad_camera)``; the three sub-terms are
    weighted internally by ``w_pos``, ``w_cam`` and ``w_bone``.
    """
    _check_sequence(pose, camera)
    if pose.joints != topo.joint_count:
        raise InvalidInputError("pose joint count does not match topology")
    X = pose.positions
    v_pos, g_pos = _temporal(X, beta)
    v_cam, g_cam = _temporal(camera.params[:, None, :], beta)
    v_bone, g_bone = _bone_consistency(X, topo.bone_array(), beta)
    value = w_pos * v_pos + w_cam * v_cam + w_bone * v_bone
    gX = w_pos * g_pos + w_bone * g_bone
    gC = w_cam * g_cam[:, 0, :]
    return value, gX, gC


# ---------------------------------------------------------------------------
# refinement loops

def _total_loss_3d(X, C, X0, det_px, det_w, flows_uv, bones, hp: PoseHyperParams,
                   beta: float):
    gX = np.zeros_like(X)
    gC = np.zeros_like(C)
    terms = np.zeros(4)
    gp = np.zeros(X.shape[:2] + (2,))
    if hp.lam_opt > 0 or hp.lam_2d > 0:
        p = _project(X, C)
    if hp.lam_opt > 0:
        v, g, _ = _flow_consistency(p, flows_uv, beta)
        gp += hp.lam_opt * g
        terms[0] = hp.lam_opt * v
    if hp.lam_3d > 0:
        v, g = _anchor(X, X0, beta)
        gX += hp.lam_3d * g
        terms[1] = hp.lam_3d * v
    if hp.lam_2d > 0:
        v, g = _weighted_match(p, det_px, det_w, beta)
        gp += hp.lam_2d * g
        terms[2] = hp.lam_2d * v
    if hp.lam_opt > 0 or hp.lam_2d > 0:
        gXp, gCp = _project_backprop(gp, X, C)
        gX += gXp
        gC += gCp
    v_temp = 0.0
    if hp.lam_pos > 0:
        v, g = _temporal(X, beta)
        gX += hp.lam_pos * g
        v_temp += hp.lam_pos * v
    if hp.lam_cam > 0:
        v, g = _temporal(C[:, None, :], beta)
        gC += hp.lam_cam * g[:, 0, :]
        v_temp += hp.lam_cam * v
    if hp.lam_bone > 0:
        v, g = _bone_consistency(X, bones, beta)
        gX += hp.lam_bone * g
        v_temp += hp.lam_bone * v
    terms[3] = v_temp
    total = terms[0] + terms[1] + terms[2] + terms[3]
    return total, terms, gX, gC


def refine_pose(pose_init: PoseTrack, camera_init: CameraTrack,
                det: DetectionTrack, flows: Sequence[FlowField],
                topo: SkeletonTopology, hp: PoseHyperParams | None = None,
                beta: float = 1.0, anchor: PoseTrack | None = None):
    """Jointly refine 3-D joints and cameras over the whole sequence.

    Starts at the initial estimates and runs ``hp.epochs`` Adam steps on the
    full four-term objective.  The deviation term compares against
    ``anchor`` (the original off-the-shelf estimates), which defaults to the
    starting pose.  Returns ``(pose, camera, history)`` where ``history``
    has one row per epoch: ``[total, flow, anchor3d, detection2d,
    temporal]`` loss values (each already weighted) evaluated before that
    epoch's step.
    """
    hp = hp or PoseHyperParams()
    _check_sequence(pose_init, camera_init, flows)
    if det.pixels.shape[:2] != pose_init.positions.shape[:2]:
        raise InvalidInputError("detections do not match the pose dimensions")
    if pose_init.joints != topo.joint_count:
        raise InvalidInputError("pose joint count does not match topology")
    if anchor is not None and anchor.positions.shape != pose_init.positions.shape:
        raise InvalidInputError("anchor does not match the pose dimensions")

    X0 = (anchor or pose_init).positions
    X = pose_init.positions.copy()
    C = camera_init.params.copy()
    flows_uv = _stack_flows(flows)
    bones = topo.bone_array()

    n_x = X.size
    params = np.concatenate([X.ravel(), C.ravel()])
    state = adam_init(params)
    history = np.zeros((hp.epochs, 5))
    for e in range(hp.epochs):
        X = params[:n_x].reshape(X0.shape)
        C = params[n_x:].reshape(-1, 3)
        # divergence is detected right below; silence the transient fp noise
        with np.errstate(over="ignore", invalid="ignore"):
            total, terms, gX, gC = _total_loss_3d(
                X, C, X0, det.pixels, det.confidence, flows_uv, bones, hp, beta)
        if not np.isfinite(total):
            raise NumericalError(
                f"pose refinement diverged at epoch {e}: "
                f"flow={terms[0]:g} anchor={terms[1]:g} "
                f"det={terms[2]:g} temporal={terms[3]:g}")
        history[e, 0] = total
        history[e, 1:] = terms
        grad = np.concatenate([gX.ravel(), gC.ravel()])
        params, state = adam_step(state, params, grad, hp.lr)
        # a non-positive scale is an optimizer failure, not a bad input
        bad = np.flatnonzero(params[n_x::3] <= 0.0)
        if bad.size:
            raise NumericalError(
                f"pose refinement drove the camera scale of frame {bad[0]} "
                f"to {params[n_x + 3 * bad[0]]:g} at epoch {e}")
    return (PoseTrack(params[:n_x].reshape(X0.shape)),
            CameraTrack(params[n_x:].reshape(-1, 3)),
            history)


def _total_loss_2d(x, x0, det_px, det_w, flows_uv, bones, hp: PoseHyperParams,
                   beta: float):
    gx = np.zeros_like(x)
    terms = np.zeros(4)
    if hp.lam_opt > 0:
        v, gp, _ = _flow_consistency(x, flows_uv, beta)
        gx += hp.lam_opt * gp
        terms[0] = hp.lam_opt * v
    if hp.lam_3d > 0:
        v, g = _anchor(x, x0, beta)
        gx += hp.lam_3d * g
        terms[1] = hp.lam_3d * v
    if hp.lam_2d > 0:
        v, gp = _weighted_match(x, det_px, det_w, beta)
        gx += hp.lam_2d * gp
        terms[2] = hp.lam_2d * v
    v_temp = 0.0
    if hp.lam_pos > 0:
        v, g = _temporal(x, beta)
        gx += hp.lam_pos * g
        v_temp += hp.lam_pos * v
    if hp.lam_bone > 0:
        v, g = _bone_consistency(x, bones, beta)
        gx += hp.lam_bone * g
        v_temp += hp.lam_bone * v
    terms[3] = v_temp
    total = terms[0] + terms[1] + terms[2] + terms[3]
    return total, terms, gx


def refine_pose_2d(x_init: DetectionTrack, det: DetectionTrack,
                   flows: Sequence[FlowField], topo: SkeletonTopology,
                   hp: PoseHyperParams | None = None, beta: float = 1.0,
                   anchor: DetectionTrack | None = None):
    """Fallback refinement operating purely on 2-D joint tracks.

    The flow, anchor, detection and temporal terms mirror the 3-D objective
    with projected points replaced by the 2-D variables; the camera
    smoothness term drops out (there is no camera), and bone-length
    consistency is measured in pixels (disable with ``lam_bone=0``).  The
    anchor defaults to the starting track.  Returns ``(track, history)``;
    confidences pass through from ``x_init``.
    """
    hp = hp or PoseHyperParams()
    if x_init.pixels.shape != det.pixels.shape:
        raise InvalidInputError("initial and detected tracks have different dimensions")
    if x_init.frames < 2:
        raise InvalidInputError("at least two frames are required")
    if len(flows) != x_init.frames - 1:
        raise InvalidInputError(
            f"expected {x_init.frames - 1} flow fields, got {len(flows)}")
    if x_init.joints != topo.joint_count:
        raise InvalidInputError("track joint count does not match topology")
    if anchor is not None and anchor.pixels.shape != x_init.pixels.shape:
        raise InvalidInputError("anchor does not match the track dimensions")

    x0 = (anchor or x_init).pixels
    flows_uv = _stack_flows(flows)
    bones = topo.bone_array()
    params = x_init.pixels.copy().ravel()
    state = adam_init(params)
    history = np.zeros((hp.epochs, 5))
    for e in range(hp.epochs):
        x = params.reshape(x0.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            total, terms, gx = _total_loss_2d(
                x, x0, det.pixels, det.confidence, flows_uv, bones, hp, beta)
        if not np.isfinite(total):
            raise NumericalError(
                f"2d refinement diverged at epoch {e}: "
                f"flow={terms[0]:g} anchor={terms[1]:g} "
                f"det={terms[2]:g} temporal={terms[3]:g}")
        history[e, 0] = total
        history[e, 1:] = terms
        params, state = adam_step(state, params, gx.ravel(), hp.lr)
    return DetectionTrack(params.reshape(x0.shape), x_init.confidence), history
