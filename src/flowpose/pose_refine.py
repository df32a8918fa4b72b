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
from .optim import _huber_parts, adam_init, adam_step

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
    """Weak-perspective pixels ``(s * x + tx, s * y + ty)`` of ``(T, J, 3)`` joints."""
    return X[..., :2] * C[:, None, :1] + C[:, None, 1:]


def _project_backprop(gp: np.ndarray, X: np.ndarray, C: np.ndarray,
                      gX: np.ndarray, gC: np.ndarray) -> None:
    """Add the chain rule of pixel gradients ``gp`` through ``_project`` to
    the joint and camera gradients ``gX`` and ``gC``."""
    gX[..., :2] += gp * C[:, None, :1]
    gC[:, 0] += (gp * X[..., :2]).reshape(len(C), -1).sum(axis=1)
    gC[:, 1:] += gp.sum(axis=1)


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
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    gx = 1 - fx
    gy = 1 - fy
    # corners (x0, y0), (x1, y0), (x0, y1), (x1, y1) from the flattened
    # (P * H * W, 2) stack; a one-pixel axis has x1 = x0 (or y1 = y0)
    dx = int(w > 1)
    dy = w * int(h > 1)
    corner = (np.arange(pairs) * (h * w))[:, None] + y0 * w + x0
    offsets = np.array([0, dx, dy, dx + dy])[:, None, None]
    v00, v01, v10, v11 = uv.reshape(-1, 2).take(corner + offsets, axis=0)
    val = gy * (gx * v00 + fx * v01) + fy * (gx * v10 + fx * v11)
    dvdx = gy * (v01 - v00) + fy * (v11 - v10)
    dvdy = gx * (v10 - v00) + fx * (v11 - v01)
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


def _pose_objective(hp: PoseHyperParams, beta: float, x0: np.ndarray,
                    det: DetectionTrack | None = None,
                    flows_uv: np.ndarray | None = None,
                    bones: np.ndarray | None = None, camera: bool = False):
    """The weighted pose objective, built once; returns ``evaluate``.

    The variables are a ``(T, J, D)`` track ``x`` and, with ``camera``,
    per-frame cameras ``C`` that project it to pixels; otherwise the
    projector is the identity and there is no camera term (2-D mode).
    ``evaluate(params, row=None)`` takes ``[x.ravel(), C.ravel()]`` and
    returns ``(total, grad)``, ``grad`` laid out like ``params``; it writes
    ``[total, flow, anchor, detection, temporal]`` (each weighted) into
    ``row``.  ``x0`` is the anchor.  Every term but the flow term is a
    smooth-L1 of a residual written into one buffer whose elements carry
    ``lam / n`` (times the detection confidence), so the penalty runs once.
    A term whose weight is zero is left out.
    """
    frames, joints, dim = x0.shape
    n_x = x0.size
    nb = 0 if bones is None else len(bones)
    # (name, history column, residual shape, weight of each element)
    blocks = [b for b in (
        ("anchor", 2, x0.shape, hp.lam_3d / (frames * joints)),
        ("det", 3, (frames, joints, 2),
         hp.lam_2d / (frames * joints) * det.confidence[..., None] if hp.lam_2d else 0.0),
        ("pos", 4, (frames - 1, joints, dim), hp.lam_pos / ((frames - 1) * joints)),
        ("cam", 4, (frames - 1, 3), hp.lam_cam / (frames - 1) if camera else 0.0),
        ("bone", 4, (frames - 1, nb), hp.lam_bone / ((frames - 1) * nb) if nb else 0.0),
    ) if np.any(b[3])]
    sizes = [int(np.prod(shape)) for _, _, shape, _ in blocks]
    resid, wgrad, weights = np.empty((3, sum(sizes)))
    starts = np.cumsum([0] + sizes[:-1])
    columns = [column for _, column, _, _ in blocks]
    r, wg = {}, {}
    for (name, _, shape, w), a, size in zip(blocks, starts, sizes):
        r[name] = resid[a:a + size].reshape(shape)
        wg[name] = wgrad[a:a + size].reshape(shape)
        weights[a:a + size].reshape(shape)[...] = w
    if "bone" in r:
        incidence = np.zeros((joints, nb))             # bone b is x_j - x_k
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
    flow = hp.lam_opt > 0
    projected = camera and (flow or "det" in r)

    def evaluate(params: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(5) if row is None else row
        row[:] = 0.0
        x = params[:n_x].reshape(x0.shape)
        grad = np.zeros(params.size)
        gx = grad[:n_x].reshape(x0.shape)
        if camera:
            C = params[n_x:].reshape(frames, 3)
            gC = grad[n_x:].reshape(frames, 3)
        p = _project(x, C) if projected else x
        if resid.size:
            if "anchor" in r:
                np.subtract(x, x0, out=r["anchor"])
            if "det" in r:
                np.subtract(p, det.pixels, out=r["det"])
            if "pos" in r:
                np.subtract(x[1:], x[:-1], out=r["pos"])
            if "cam" in r:
                np.subtract(C[1:], C[:-1], out=r["cam"])
            if "bone" in r:
                d = incidence_t @ x
                lengths = np.sqrt((d * d).sum(axis=-1))
                np.subtract(lengths[1:], lengths[:-1], out=r["bone"])
            vals, g = _huber_parts(resid, beta)
            np.multiply(weights, g, out=wgrad)
            # each term summed on its own, the temporal ones then added in order
            row += np.bincount(columns, np.add.reduceat(
                np.multiply(weights, vals, out=vals), starts), minlength=5)
            if "anchor" in r:
                gx += wg["anchor"]
            if "pos" in r:
                gx[1:] += wg["pos"]
                gx[:-1] -= wg["pos"]
            if "cam" in r:
                gC[1:] += wg["cam"]
                gC[:-1] -= wg["cam"]
            if "bone" in r:
                # d|x_j - x_k| / dx_j is the unit bone vector
                gl = np.zeros((frames, nb))
                gl[1:] = wg["bone"]
                gl[:-1] -= wg["bone"]
                gl /= np.maximum(lengths, _NORM_EPS)
                gx += incidence @ (d * gl[..., None])
        gp = wg.get("det")
        if flow:
            v, g_flow, _ = _flow_consistency(p, flows_uv, beta)
            row[1] = hp.lam_opt * v
            gp = hp.lam_opt * g_flow if gp is None else hp.lam_opt * g_flow + gp
        if gp is not None and camera:
            _project_backprop(gp, x, C, gx, gC)
        elif gp is not None:
            gx += gp
        row[0] = row[1] + row[2] + row[3] + row[4]
        return row[0], grad

    return evaluate


def _descend(evaluate, params: np.ndarray, hp: PoseHyperParams, what: str,
             n_x: int | None = None):
    """``hp.epochs`` Adam steps on ``evaluate``; returns ``(params, history)``.

    ``history`` holds each epoch's row before its step.  With ``n_x`` the
    parameters from ``n_x`` on are ``(s, tx, ty)`` cameras, and a scale that
    reaches zero raises ``NumericalError``.
    """
    state = adam_init(params)
    history = np.zeros((hp.epochs, 5))
    for e, row in enumerate(history):
        # divergence is detected right below; silence the transient fp noise
        with np.errstate(over="ignore", invalid="ignore"):
            total, grad = evaluate(params, row)
        if not np.isfinite(total):
            raise NumericalError(
                f"{what} diverged at epoch {e}: "
                f"flow={row[1]:g} anchor={row[2]:g} det={row[3]:g} temporal={row[4]:g}")
        params, state = adam_step(state, params, grad, hp.lr)
        if n_x is not None:
            # a non-positive scale is an optimizer failure, not a bad input
            bad = np.flatnonzero(params[n_x::3] <= 0.0)
            if bad.size:
                raise NumericalError(
                    f"{what} drove the camera scale of frame {bad[0]} "
                    f"to {params[n_x + 3 * bad[0]]:g} at epoch {e}")
    return params, history


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


def _only(**lams) -> PoseHyperParams:
    """Weights with every term switched off but the given ones."""
    off = dict(lam_opt=0, lam_3d=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0)
    return PoseHyperParams(**{**off, **lams})


def _evaluate_3d(hp: PoseHyperParams, beta: float, pose: PoseTrack,
                 camera: CameraTrack, **plan):
    """``(value, grad_positions, grad_camera)`` of the objective at one pose."""
    X = pose.positions
    value, grad = _pose_objective(hp, beta, X, camera=True, **plan)(
        np.concatenate([X.ravel(), camera.params.ravel()]))
    return float(value), grad[:X.size].reshape(X.shape), grad[X.size:].reshape(-1, 3)


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
    value, gp, clamped = _flow_consistency(_project(X, C), _stack_flows(flows), beta)
    gX = np.zeros_like(X)
    gC = np.zeros_like(C)
    _project_backprop(gp, X, C, gX, gC)
    return value, gX, gC, clamped


def loss_3d(pose: PoseTrack, pose_init: PoseTrack, beta: float = 1.0):
    """Deviation from the initial 3-D estimates: ``(value, grad_positions)``."""
    if pose.positions.shape != pose_init.positions.shape:
        raise InvalidInputError("pose tracks have different dimensions")
    value, grad = _pose_objective(_only(lam_3d=1.0), beta, pose_init.positions)(
        pose.positions.ravel())
    return float(value), grad.reshape(pose.positions.shape)


def loss_2d(pose: PoseTrack, camera: CameraTrack, det: DetectionTrack,
            beta: float = 1.0):
    """Confidence-weighted reprojection term: ``(value, grad_positions, grad_camera)``."""
    if pose.frames != camera.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    if det.pixels.shape[:2] != pose.positions.shape[:2]:
        raise InvalidInputError("detections do not match the pose dimensions")
    return _evaluate_3d(_only(lam_2d=1.0), beta, pose, camera, det=det)


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
    return _evaluate_3d(_only(lam_pos=w_pos, lam_cam=w_cam, lam_bone=w_bone), beta,
                        pose, camera, bones=topo.bone_array())


# ---------------------------------------------------------------------------
# refinement loops

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
    n_x = X0.size
    evaluate = _pose_objective(hp, beta, X0, det, _stack_flows(flows),
                               topo.bone_array(), camera=True)
    params = np.concatenate([pose_init.positions.ravel(), camera_init.params.ravel()])
    params, history = _descend(evaluate, params, hp, "pose refinement", n_x)
    return (PoseTrack(params[:n_x].reshape(X0.shape)),
            CameraTrack(params[n_x:].reshape(-1, 3)),
            history)


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
    evaluate = _pose_objective(hp, beta, x0, det, _stack_flows(flows), topo.bone_array())
    params, history = _descend(evaluate, x_init.pixels.ravel().copy(), hp, "2d refinement")
    return DetectionTrack(params.reshape(x0.shape), x_init.confidence), history
