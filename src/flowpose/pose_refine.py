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

A refinement runs about 1500 epochs on arrays of a few hundred elements, so
an epoch costs numpy calls, not arithmetic.  The objective is therefore
built once per refinement as a workspace: a parameter buffer that each
evaluation copies its input into, the projected pixels, the residuals, the
bone buffers and the gradient, with every slice the epoch uses made once as
a view, plus a sampling plan for the stacked flow fields (clamp bounds and
one table of gather offsets).  Each evaluation writes through these buffers
and returns a copy of the gradient; it gives the same bits as building
every array afresh.

A 2-D fallback optimizes pixel tracks directly when no trustworthy 3-D
estimate exists: projected points are replaced by the 2-D variables, the
camera terms drop out, and the anchor term compares against the initial
2-D estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import (CameraTrack, DetectionTrack, FlowField, PoseTrack,
                       SkeletonTopology, _count, _finite_number)
from .optim import _epoch_history, _huber_parts, adam_step

_NORM_EPS = 1e-12  # guards the bone-direction derivative at zero length


@dataclass(frozen=True)
class PoseHyperParams:
    """Loss weights and learning rate for pose refinement; the epoch budget
    is the refiner's argument (a schedule's ``PoseStage``)."""

    lam_opt: float = 0.01
    lam_3d: float = 400.0
    lam_2d: float = 0.01
    lam_pos: float = 300.0
    lam_cam: float = 0.1
    lam_bone: float = 1e4
    lr: float = 0.001

    def __post_init__(self):
        for name in ("lam_opt", "lam_3d", "lam_2d", "lam_pos", "lam_cam", "lam_bone"):
            if _finite_number(getattr(self, name), name) < 0:
                raise InvalidInputError("loss weights must be finite and >= 0")
        if _finite_number(self.lr, "learning rate") < 0:
            raise InvalidInputError("learning rate must be >= 0")


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


def _sampler(uv: np.ndarray):
    """Bilinear sampling plan for stacked fields ``(P, H, W, 2)``; returns
    ``sample(q)`` for ``(2, P, N)`` pixels.

    Field ``k`` is sampled at the points ``q[:, k]``, all pairs in one
    gather.  Positions are clamped to the field; where clamping was active
    the positional derivative in that axis is zero (the sample no longer
    moves with the point).  ``sample`` returns the ``(2, P, N)`` planes of
    the value ``(u, v)``, its ``(2, 2, P, N)`` Jacobian (``jac[0]`` is
    d(value)/dx and ``jac[1]`` d(value)/dy) and the ``(2, P, N)`` mask of
    clamped x and y coordinates.  The plan holds what does not depend on
    ``q``: the clamp bounds, the corner cap, the flat field and a table of
    the gather offsets of each pair and corner.
    """
    pairs, h, w = uv.shape[:3]
    hi = np.array([w - 1.0, h - 1.0]).reshape(2, 1, 1)
    cap = np.array([max(w - 2.0, 0.0), max(h - 2.0, 0.0)]).reshape(2, 1, 1)
    # corner (x0, y0) of pair k is u entry 2 * x0 + 2 * w * y0 of field k in
    # the flat (P * H * W * 2) stack; the products and sums are exact
    step = np.array([2.0, 2.0 * w])
    flat = uv.reshape(-1)
    # corners (x0, y0), (x1, y0), (x0, y1), (x1, y1), each as its u and v
    # entries, plus each pair's offset; a one-pixel axis has x1 = x0 (or y1 = y0)
    dx = 2 * int(w > 1)
    dy = 2 * w * int(h > 1)
    table = (np.array([0, 1, dx, dx + 1, dy, dy + 1, dx + dy, dx + dy + 1]).reshape(4, 2, 1, 1)
             + np.arange(0, 2 * pairs * h * w, 2 * h * w)[:, None])

    def sample(q: np.ndarray):
        c = q.clip(0.0, hi)
        clamped = c != q
        # fmin keeps a NaN point's corner in range: its sample is NaN, not an index error
        i0 = np.floor(np.fmin(c, cap))
        gf = np.empty((2,) + c.shape)          # (1 - f, f), each an (x, y) pair of planes
        f = np.subtract(c, i0, out=gf[1])
        np.subtract(1, f, out=gf[0])
        corner = (step @ i0.reshape(2, -1)).astype(np.intp).reshape(c.shape[1:])
        v = flat.take(corner + table).reshape((2, 2) + c.shape)   # (y, x, u|v, P, N)
        # rows[y] = gx * v[y, 0] + fx * v[y, 1], then val = gy * rows[0] + fy * rows[1]
        t = v * gf[:, 0, None]
        rows = np.add(t[:, 0], t[:, 1])
        t = rows * gf[:, 1, None]
        val = np.add(t[0], t[1])
        # jac[0] = gy * (v01 - v00) + fy * (v11 - v10), and jac[1] alike in y
        diff = np.empty((2,) + v.shape[1:])
        np.subtract(v[:, 1], v[:, 0], out=diff[0])
        np.subtract(v[1], v[0], out=diff[1])
        np.multiply(diff, gf[:, ::-1].swapaxes(0, 1)[:, :, None], out=diff)
        jac = np.add(diff[:, 0], diff[:, 1])
        np.copyto(jac, 0.0, where=clamped[:, None])
        return val, jac, clamped

    return sample


def _sample_flow(uv: np.ndarray, q: np.ndarray):
    """One bilinear sample of the fields ``uv`` at ``q``; see ``_sampler``."""
    return _sampler(uv)(q)


def _pose_objective(hp: PoseHyperParams, x0: np.ndarray,
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
    penalty runs once.  A term whose weight is zero, or that has no
    elements (one frame, no bones), is left out.

    ``evaluate`` works in the workspace built here (see the module
    docstring): it copies ``params`` in, never writes to them, and returns
    a copy of the gradient, so a later call leaves an earlier result alone.
    """
    dim, frames, joints = x0.shape
    n_x = x0.size
    nb = 0 if bones is None else len(bones)
    moves = frames - 1   # frame pairs; the flow and temporal terms need one
    # (name, history column, residual shape, weight of each element)
    blocks = [b for b in (
        ("flow", 1, (2, moves, joints), hp.lam_opt / (moves * joints) if moves else 0.0),
        ("anchor", 2, x0.shape, hp.lam_3d / (frames * joints)),
        ("det", 3, (2, frames, joints),
         hp.lam_2d / (frames * joints) * det.confidence if hp.lam_2d else 0.0),
        ("pos", 4, (dim, moves, joints), hp.lam_pos / (moves * joints) if moves else 0.0),
        ("cam", 4, (3, moves), hp.lam_cam / moves if camera and moves else 0.0),
        ("bone", 4, (moves, nb), hp.lam_bone / (moves * nb) if moves and nb else 0.0),
    ) if np.any(b[3])]
    sizes = [int(np.prod(shape)) for _, _, shape, _ in blocks]
    resid, wgrad, weights = np.empty((3, sum(sizes)))
    starts = np.cumsum([0] + sizes[:-1])
    columns = np.array([column for _, column, _, _ in blocks], dtype=np.intp)
    r, wg = {}, {}
    for (name, _, shape, w), a, size in zip(blocks, starts, sizes):
        r[name] = resid[a:a + size].reshape(shape)
        wg[name] = wgrad[a:a + size].reshape(shape)
        weights[a:a + size].reshape(shape)[...] = w
    projected = camera and ("flow" in r or "det" in r)
    # the workspace, and every view an evaluation uses
    work = np.empty(n_x + 3 * frames * camera)
    grad = np.empty_like(work)
    x = work[:n_x].reshape(x0.shape)
    gx = grad[:n_x].reshape(x0.shape)
    x_head, x_tail, gx_head, gx_tail = x[:, :-1], x[:, 1:], gx[:, :-1], gx[:, 1:]
    if camera:
        C = work[n_x:].reshape(3, frames)
        gC = grad[n_x:].reshape(3, frames)
        C_head, C_tail, gC_head, gC_tail = C[:, :-1], C[:, 1:], gC[:, :-1], gC[:, 1:]
        scale, shift, g_scale, g_shift = C[0, :, None], C[1:, :, None], gC[0], gC[1:]
        xy, gxy = x[:2], gx[:2]
    p = np.empty((2, frames, joints)) if projected else x
    p_head, p_tail = p[:, :-1], p[:, 1:]
    # the pixel gradient: the detection slopes, or a buffer zeroed per call
    gp = wg.get("det", np.empty((2, frames, joints)))
    gp_head, gp_tail = gp[:, :-1], gp[:, 1:]
    if projected:
        gp_scaled = np.empty((2, frames, joints))
    if "flow" in r:
        sample = _sampler(flows_uv)
    if "det" in r:
        det_pixels = _planes(det.pixels)
    if "bone" in r:
        incidence = np.zeros((joints, nb))             # bone b is x_j - x_k
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
        d = np.empty((dim, frames, nb))                # bone vectors
        d_g = np.empty_like(d)                         # their squares, then d * gl
        lengths = np.empty((frames, nb))
        gl = np.empty((frames, nb))                    # d(loss) / d(length)
        gx_bone = np.empty(x0.shape)
        x_rows, d_rows, d_g_rows = x.reshape(-1, joints), d.reshape(-1, nb), d_g.reshape(-1, nb)
        gx_bone_rows = gx_bone.reshape(-1, joints)
        lengths_head, lengths_tail, gl_head, gl_tail = lengths[:-1], lengths[1:], gl[:-1], gl[1:]

    def evaluate(params: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(5) if row is None else row
        grad.fill(0.0)
        if not resid.size:
            row[:] = 0.0
            return row[0], grad.copy()
        np.copyto(work, params)
        if projected:
            np.multiply(xy, scale, out=p)
            np.add(p, shift, out=p)
        if "flow" in r:
            val, jac, _ = sample(p_head)
            np.subtract(p_tail, p_head, out=r["flow"])
            np.subtract(val, r["flow"], out=r["flow"])
        if "anchor" in r:
            np.subtract(x, x0, out=r["anchor"])
        if "det" in r:
            np.subtract(p, det_pixels, out=r["det"])
        if "pos" in r:
            np.subtract(x_tail, x_head, out=r["pos"])
        if "cam" in r:
            np.subtract(C_tail, C_head, out=r["cam"])
        if "bone" in r:
            np.matmul(x_rows, incidence, out=d_rows)
            np.add.reduce(np.multiply(d, d, out=d_g), axis=0, out=lengths)
            np.sqrt(lengths, out=lengths)
            np.subtract(lengths_tail, lengths_head, out=r["bone"])
        vals, g = _huber_parts(resid)
        np.multiply(weights, g, out=wgrad)
        # each term summed on its own, the temporal ones then added in order
        row[:] = np.bincount(columns, np.add.reduceat(
            np.multiply(weights, vals, out=vals), starts), minlength=5)
        row[0] = row[1] + row[2] + row[3] + row[4]
        if "anchor" in r:
            np.add(gx, wg["anchor"], out=gx)
        if "pos" in r:
            np.add(gx_tail, wg["pos"], out=gx_tail)
            np.subtract(gx_head, wg["pos"], out=gx_head)
        if "cam" in r:
            np.add(gC_tail, wg["cam"], out=gC_tail)
            np.subtract(gC_head, wg["cam"], out=gC_head)
        if "bone" in r:
            # d|x_j - x_k| / dx_j is the unit bone vector
            gl[0] = 0.0
            np.copyto(gl_tail, wg["bone"])
            np.subtract(gl_head, wg["bone"], out=gl_head)
            np.divide(gl, np.maximum(lengths, _NORM_EPS, out=lengths), out=gl)
            np.multiply(d, gl, out=d_g)
            np.matmul(d_g_rows, incidence_t, out=gx_bone_rows)
            np.add(gx, gx_bone, out=gx)
        if "flow" in r:
            # residual = flow(p_t) + p_t - p_{t+1}, a (u, v) pair per joint
            wf = wg["flow"]
            if "det" not in r:
                gp.fill(0.0)
            np.add(gp_head, wf, out=gp_head)
            np.subtract(gp_tail, wf, out=gp_tail)
            np.add(gp_head, np.add.reduce(np.multiply(jac, wf, out=jac), axis=1),
                   out=gp_head)
        if projected:
            np.add(gxy, np.multiply(gp, scale, out=gp_scaled), out=gxy)
            np.add(g_scale, np.add.reduce(np.multiply(gp, xy, out=gp_scaled), axis=(0, 2)),
                   out=g_scale)
            np.add(g_shift, np.add.reduce(gp, axis=2), out=g_shift)
        elif "flow" in r or "det" in r:
            np.add(gx, gp, out=gx)
        return row[0], grad.copy()

    return evaluate


def _descend(evaluate, params: np.ndarray, epochs: int, lr: float, what: str,
             scales: slice | None = None):
    """``epochs`` Adam steps of rate ``lr`` on ``evaluate``, updating
    ``params`` in place; returns ``(params, history)``.

    ``history`` holds each epoch's row before its step.  ``scales`` is the
    slice of ``params`` holding the per-frame camera scales, if any; a scale
    that reaches zero raises ``NumericalError``, and so do non-finite
    parameters.
    """
    moments = np.zeros((2, *params.shape))
    history = _epoch_history(_count(epochs, "epochs"), 5)
    # divergence is detected right below; silence the transient fp noise
    with np.errstate(over="ignore", invalid="ignore"):
        for e, row in enumerate(history):
            total, grad = evaluate(params, row)
            if not math.isfinite(total):
                raise NumericalError(
                    f"{what} diverged at epoch {e}: "
                    f"flow={row[1]:g} anchor={row[2]:g} det={row[3]:g} temporal={row[4]:g}")
            adam_step(params, grad, moments, e + 1, lr)
            # a non-positive scale is an optimizer failure, not a bad input;
            # fmin passes over a NaN scale, which the next evaluation reports
            if scales is not None and np.fmin.reduce(params[scales]) <= 0.0:
                bad = np.flatnonzero(params[scales] <= 0.0)[0]
                raise NumericalError(
                    f"{what} drove the camera scale of frame {bad} "
                    f"to {params[scales][bad]:g} at epoch {e}")
    # every other step is caught by the next epoch's evaluation
    if not np.all(np.isfinite(params)):
        raise NumericalError(
            f"{what} produced non-finite parameters at epoch {epochs - 1}")
    return params, history


# ---------------------------------------------------------------------------
# weights that keep some terms

def _only(**lams) -> PoseHyperParams:
    """Weights with every term switched off but the given ones."""
    off = dict(lam_opt=0, lam_3d=0, lam_2d=0, lam_pos=0, lam_cam=0, lam_bone=0)
    return PoseHyperParams(**{**off, **lams})


# ---------------------------------------------------------------------------
# refinement loops

def _refine(x_init: np.ndarray, det: DetectionTrack, flows: Sequence[FlowField],
            topo: SkeletonTopology, hp: PoseHyperParams | None, epochs: int,
            what: str, camera: np.ndarray | None = None):
    """Both refiners' body: check the inputs, build the objective on the
    ``(T, J, D)`` track ``x_init`` (the anchor) and, in 3-D, the ``(T, 3)``
    cameras, and descend.  Returns the refined track and cameras (``None``
    without) in those layouts, and the history."""
    hp = hp or PoseHyperParams()
    frames, joints = x_init.shape[:2]
    if frames < 2:
        raise InvalidInputError("at least two frames are required")
    if len(flows) != frames - 1:
        raise InvalidInputError(f"expected {frames - 1} flow fields, got {len(flows)}")
    if len({f.uv.shape for f in flows}) > 1:
        raise InvalidInputError("flow fields have different dimensions")
    if det.pixels.shape[:2] != (frames, joints):
        raise InvalidInputError("detections do not match the track dimensions")
    if joints != topo.joint_count:
        raise InvalidInputError("track joint count does not match topology")

    x0 = _planes(x_init)
    n_x = x0.size
    arrays = (x_init,) if camera is None else (x_init, camera)
    evaluate = _pose_objective(hp, x0, det, np.stack([f.uv for f in flows]),
                               topo.bone_array(), camera=camera is not None)
    params, history = _descend(evaluate, _to_params(*arrays), epochs, hp.lr, what,
                               None if camera is None else slice(n_x, n_x + frames))
    cams = None if camera is None else _interleaved(params[n_x:].reshape(3, -1))
    return _interleaved(params[:n_x].reshape(x0.shape)), cams, history


def refine_pose(pose_init: PoseTrack, camera_init: CameraTrack,
                det: DetectionTrack, flows: Sequence[FlowField],
                topo: SkeletonTopology, hp: PoseHyperParams | None = None,
                epochs: int = 1500):
    """Jointly refine 3-D joints and cameras over the whole sequence.

    Starts at the initial estimates and runs ``epochs`` Adam steps on the
    full objective.  The deviation term compares against the starting pose
    (the original off-the-shelf estimates).
    Returns ``(pose, camera, history)`` where ``history`` has one row per
    epoch: ``[total, flow, anchor3d, detection2d, temporal]`` loss values
    (each already weighted) evaluated before that epoch's step.
    """
    if pose_init.frames != camera_init.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    x, cams, history = _refine(pose_init.positions, det, flows, topo, hp, epochs,
                               "pose refinement", camera_init.params)
    return PoseTrack(x), CameraTrack(cams), history


def refine_pose_2d(x_init: DetectionTrack, det: DetectionTrack,
                   flows: Sequence[FlowField], topo: SkeletonTopology,
                   hp: PoseHyperParams | None = None, epochs: int = 1500):
    """Fallback refinement operating purely on 2-D joint tracks.

    The flow, anchor, detection and temporal terms mirror the 3-D objective
    with projected points replaced by the 2-D variables; the camera
    smoothness term drops out (there is no camera), and bone-length
    consistency is measured in pixels (disable with ``lam_bone=0``).  The
    anchor is the starting track.  Returns ``(track, history)``;
    confidences pass through from ``x_init``.
    """
    x, _, history = _refine(x_init.pixels, det, flows, topo, hp, epochs, "2d refinement")
    return DetectionTrack(x, x_init.confidence), history
