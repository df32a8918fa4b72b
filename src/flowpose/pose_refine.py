"""Pose refinement: one weighted objective and its analytic gradient.

The objective ties a joint track and, in 3-D, its per-frame cameras to the
scene's optical flow (projected joint displacements must follow the flow
sampled at the joint pixels), to the initial estimates, to 2-D detections
weighted by confidence, and to temporal consistency of positions, cameras
and bone lengths.  Every term is an arithmetic mean over its indices and
every gradient is closed-form, including the path through the bilinear
flow sampling location.

Inside the objective the variables are coordinate planes: the track is
``(D, T, J)`` and the cameras ``(3, T)`` rows of ``(s, tx, ty)``, so each
coordinate is one contiguous plane and no operation broadcasts over a
trailing axis of two or three.  The refiners convert the public
``(T, J, D)`` and ``(T, 3)`` layouts once on entry and once on exit.  The
six residuals (flow, anchor, detection, and the changes of positions,
cameras and bone lengths between frames) share one buffer whose elements
carry their term's weight ``lam / n``, so one smooth-L1 pass and one
segmented sum evaluate every term.

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

def _planes(a: np.ndarray) -> np.ndarray:
    """The ``(..., D)`` coordinates of ``a`` as contiguous ``(D, ...)`` planes."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _interleaved(planes: np.ndarray) -> np.ndarray:
    """``(D, ...)`` planes back as a C-ordered ``(..., D)`` array."""
    return np.moveaxis(planes, 0, -1).copy()


def _to_params(*arrays: np.ndarray) -> np.ndarray:
    """The objective's flat parameters: each array's planes, in order."""
    return np.concatenate([_planes(a).ravel() for a in arrays])


def _project(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Weak-perspective pixel planes ``(s * x + tx, s * y + ty)`` of a
    ``(3, T, J)`` track under ``(3, T)`` cameras."""
    return x[:2] * C[0, :, None] + C[1:, :, None]


def _project_backprop(gp: np.ndarray, x: np.ndarray, C: np.ndarray,
                      gx: np.ndarray, gC: np.ndarray) -> None:
    """Add the chain rule of pixel gradients ``gp`` through ``_project`` to
    the track and camera gradients ``gx`` and ``gC``."""
    gx[:2] += gp * C[0, :, None]
    gC[0] += (gp * x[:2]).sum(axis=(0, 2))
    gC[1:] += gp.sum(axis=2)


def _sample_flow(uv: np.ndarray, q: np.ndarray):
    """Bilinear samples of stacked fields ``(P, H, W, 2)`` at ``(2, P, N)`` pixels.

    Field ``k`` is sampled at the points ``q[:, k]``, all pairs in one
    gather.  Positions are clamped to the field; where clamping was active
    the positional derivative in that axis is zero (the sample no longer
    moves with the point).  Returns the ``(2, P, N)`` planes of the value
    ``(u, v)``, its ``(2, 2, P, N)`` Jacobian (``jac[0]`` is d(value)/dx and
    ``jac[1]`` d(value)/dy) and the ``(2, P, N)`` mask of clamped x and y
    coordinates.
    """
    pairs, h, w = uv.shape[:3]
    c = np.clip(q, 0.0, np.array([w - 1.0, h - 1.0]).reshape(2, 1, 1))
    clamped = c != q
    i0 = np.minimum(np.floor(c).astype(np.intp),
                    np.array([max(w - 2, 0), max(h - 2, 0)]).reshape(2, 1, 1))
    f = c - i0
    g = 1 - f
    # corners (x0, y0), (x1, y0), (x0, y1), (x1, y1), each as its u and v
    # entries of the flat (P * H * W * 2) stack; a one-pixel axis has
    # x1 = x0 (or y1 = y0)
    dx = 2 * int(w > 1)
    dy = 2 * w * int(h > 1)
    corner = i0[1] * (2 * w) + 2 * i0[0] + np.arange(0, 2 * pairs * h * w, 2 * h * w)[:, None]
    offsets = np.array([0, 1, dx, dx + 1, dy, dy + 1, dx + dy, dx + dy + 1])
    v = uv.reshape(-1).take(corner + offsets.reshape(4, 2, 1, 1))
    rows = g[0] * v[0::2] + f[0] * v[1::2]
    val = g[1] * rows[0] + f[1] * rows[1]
    # jac[0] = gy * (v01 - v00) + fy * (v11 - v10), and jac[1] alike in y
    diff = np.empty((2,) + v[:2].shape)
    np.subtract(v[1::2], v[0::2], out=diff[0])
    np.subtract(v[2:], v[:2], out=diff[1])
    jac = g[::-1, None] * diff[:, 0] + f[::-1, None] * diff[:, 1]
    np.copyto(jac, 0.0, where=clamped[:, None])
    return val, jac, clamped


def _pose_objective(hp: PoseHyperParams, beta: float, x0: np.ndarray,
                    det: DetectionTrack | None = None,
                    flows_uv: np.ndarray | None = None,
                    bones: np.ndarray | None = None, camera: bool = False):
    """The weighted pose objective, built once; returns ``evaluate``.

    The variables are a track ``x`` of ``(D, T, J)`` coordinate planes and,
    with ``camera``, ``(3, T)`` camera planes ``C`` that project it to
    pixels; otherwise the projector is the identity and there is no camera
    term (2-D mode).  ``evaluate(params, row=None)`` takes
    ``[x.ravel(), C.ravel()]`` and returns ``(total, grad)``, ``grad`` laid
    out like ``params``; it writes ``[total, flow, anchor, detection,
    temporal]`` (each weighted) into ``row``.  ``x0`` is the anchor, in
    planes like ``x``; ``flows_uv`` stacks the ``(T-1, H, W, 2)`` fields.
    Every term is a smooth-L1 of a residual written into one buffer whose
    elements carry ``lam / n`` (times the detection confidence), so the
    penalty runs once.  A term whose weight is zero is left out.
    """
    dim, frames, joints = x0.shape
    n_x = x0.size
    nb = 0 if bones is None else len(bones)
    # (name, history column, residual shape, weight of each element)
    blocks = [b for b in (
        ("flow", 1, (2, frames - 1, joints), hp.lam_opt / ((frames - 1) * joints)),
        ("anchor", 2, x0.shape, hp.lam_3d / (frames * joints)),
        ("det", 3, (2, frames, joints),
         hp.lam_2d / (frames * joints) * det.confidence if hp.lam_2d else 0.0),
        ("pos", 4, (dim, frames - 1, joints), hp.lam_pos / ((frames - 1) * joints)),
        ("cam", 4, (3, frames - 1), hp.lam_cam / (frames - 1) if camera else 0.0),
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
    if "det" in r:
        det_pixels = _planes(det.pixels)
    if "bone" in r:
        incidence = np.zeros((joints, nb))             # bone b is x_j - x_k
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
    projected = camera and ("flow" in r or "det" in r)

    def evaluate(params: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(5) if row is None else row
        row[:] = 0.0
        grad = np.zeros(params.size)
        if not resid.size:
            return row[0], grad
        x = params[:n_x].reshape(x0.shape)
        gx = grad[:n_x].reshape(x0.shape)
        if camera:
            C = params[n_x:].reshape(3, frames)
            gC = grad[n_x:].reshape(3, frames)
        p = _project(x, C) if projected else x
        if "flow" in r:
            val, jac, _ = _sample_flow(flows_uv, p[:, :-1])
            np.subtract(p[:, 1:], p[:, :-1], out=r["flow"])
            np.subtract(val, r["flow"], out=r["flow"])
        if "anchor" in r:
            np.subtract(x, x0, out=r["anchor"])
        if "det" in r:
            np.subtract(p, det_pixels, out=r["det"])
        if "pos" in r:
            np.subtract(x[:, 1:], x[:, :-1], out=r["pos"])
        if "cam" in r:
            np.subtract(C[:, 1:], C[:, :-1], out=r["cam"])
        if "bone" in r:
            d = (x.reshape(-1, joints) @ incidence).reshape(dim, frames, nb)
            lengths = np.sqrt((d * d).sum(axis=0))
            np.subtract(lengths[1:], lengths[:-1], out=r["bone"])
        vals, g = _huber_parts(resid, beta)
        np.multiply(weights, g, out=wgrad)
        # each term summed on its own, the temporal ones then added in order
        row += np.bincount(columns, np.add.reduceat(
            np.multiply(weights, vals, out=vals), starts), minlength=5)
        row[0] = row[1] + row[2] + row[3] + row[4]
        if "anchor" in r:
            gx += wg["anchor"]
        if "pos" in r:
            gx[:, 1:] += wg["pos"]
            gx[:, :-1] -= wg["pos"]
        if "cam" in r:
            gC[:, 1:] += wg["cam"]
            gC[:, :-1] -= wg["cam"]
        if "bone" in r:
            # d|x_j - x_k| / dx_j is the unit bone vector
            gl = np.zeros((frames, nb))
            gl[1:] = wg["bone"]
            gl[:-1] -= wg["bone"]
            gl /= np.maximum(lengths, _NORM_EPS)
            gx += ((d * gl).reshape(-1, nb) @ incidence_t).reshape(x0.shape)
        gp = wg.get("det")
        if "flow" in r:
            # residual = flow(p_t) + p_t - p_{t+1}, a (u, v) pair per joint
            wf = wg["flow"]
            gp = np.zeros((2, frames, joints)) if gp is None else gp
            gp[:, :-1] += wf
            gp[:, 1:] -= wf
            gp[:, :-1] += (wf * jac).sum(axis=1)
        if gp is not None and camera:
            _project_backprop(gp, x, C, gx, gC)
        elif gp is not None:
            gx += gp
        return row[0], grad

    return evaluate


def _descend(evaluate, params: np.ndarray, hp: PoseHyperParams, what: str,
             scales: slice | None = None):
    """``hp.epochs`` Adam steps on ``evaluate``; returns ``(params, history)``.

    ``history`` holds each epoch's row before its step.  ``scales`` is the
    slice of ``params`` holding the per-frame camera scales, if any; a scale
    that reaches zero raises ``NumericalError``, and so do non-finite
    parameters.
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
        if scales is not None:
            # a non-positive scale is an optimizer failure, not a bad input
            bad = np.flatnonzero(params[scales] <= 0.0)
            if bad.size:
                raise NumericalError(
                    f"{what} drove the camera scale of frame {bad[0]} "
                    f"to {params[scales][bad[0]]:g} at epoch {e}")
    # every other step is caught by the next epoch's evaluation
    if not np.all(np.isfinite(params)):
        raise NumericalError(
            f"{what} produced non-finite parameters at epoch {hp.epochs - 1}")
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
    x = _planes(pose.positions)
    value, grad = _pose_objective(hp, beta, x, camera=True, **plan)(
        _to_params(pose.positions, camera.params))
    return (float(value), _interleaved(grad[:x.size].reshape(x.shape)),
            _interleaved(grad[x.size:].reshape(3, -1)))


def loss_opt(pose: PoseTrack, camera: CameraTrack, flows: Sequence[FlowField],
             beta: float = 1.0):
    """Flow-consistency term.

    Returns ``(value, grad_positions, grad_camera, clamped)`` where
    ``clamped`` counts joint projections that fell outside the flow field
    and were sampled at the border.
    """
    _check_sequence(pose, camera, flows)
    flows_uv = _stack_flows(flows)
    value, gX, gC = _evaluate_3d(_only(lam_opt=1.0), beta, pose, camera,
                                 flows_uv=flows_uv)
    p = _project(_planes(pose.positions), _planes(camera.params))
    clamped = _sample_flow(flows_uv, p[:, :-1])[2]
    return value, gX, gC, int(np.count_nonzero(clamped.any(axis=0)))


def loss_3d(pose: PoseTrack, pose_init: PoseTrack, beta: float = 1.0):
    """Deviation from the initial 3-D estimates: ``(value, grad_positions)``."""
    if pose.positions.shape != pose_init.positions.shape:
        raise InvalidInputError("pose tracks have different dimensions")
    x0 = _planes(pose_init.positions)
    value, grad = _pose_objective(_only(lam_3d=1.0), beta, x0)(_to_params(pose.positions))
    return float(value), _interleaved(grad.reshape(x0.shape))


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
    full objective.  The deviation term compares against ``anchor`` (the
    original off-the-shelf estimates), which defaults to the starting pose.
    Returns ``(pose, camera, history)`` where ``history`` has one row per
    epoch: ``[total, flow, anchor3d, detection2d, temporal]`` loss values
    (each already weighted) evaluated before that epoch's step.
    """
    hp = hp or PoseHyperParams()
    _check_sequence(pose_init, camera_init, flows)
    if det.pixels.shape[:2] != pose_init.positions.shape[:2]:
        raise InvalidInputError("detections do not match the pose dimensions")
    if pose_init.joints != topo.joint_count:
        raise InvalidInputError("pose joint count does not match topology")
    if anchor is not None and anchor.positions.shape != pose_init.positions.shape:
        raise InvalidInputError("anchor does not match the pose dimensions")

    x0 = _planes((anchor or pose_init).positions)
    n_x = x0.size
    evaluate = _pose_objective(hp, beta, x0, det, _stack_flows(flows),
                               topo.bone_array(), camera=True)
    params = _to_params(pose_init.positions, camera_init.params)
    params, history = _descend(evaluate, params, hp, "pose refinement",
                               slice(n_x, n_x + pose_init.frames))
    return (PoseTrack(_interleaved(params[:n_x].reshape(x0.shape))),
            CameraTrack(_interleaved(params[n_x:].reshape(3, -1))),
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

    x0 = _planes((anchor or x_init).pixels)
    evaluate = _pose_objective(hp, beta, x0, det, _stack_flows(flows), topo.bone_array())
    params, history = _descend(evaluate, _to_params(x_init.pixels), hp, "2d refinement")
    return DetectionTrack(_interleaved(params.reshape(x0.shape)), x_init.confidence), history
