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
built once per refinement as a workspace around one buffer
``z = [x | C | p | bone lengths | x0 | detections]``, where ``p`` holds the
projected pixels, plus a sampling plan for the stacked flow fields
(``geometry._sampler``).  Each term is one row of a table: its history
column, the weight of each element and two index arrays into ``z``,
``plus`` and ``minus``.  An evaluation copies its input into ``z``,
projects it and measures the bones, then forms every residual with one
gather, ``z[plus] - z[minus]``, to which the flow term adds the sampled
flow.  The linear part of the gradient is that gather's transpose,
``bincount(plus, w g) - bincount(minus, w g)``, a fresh array on every
call; only the adjoints of the bone lengths, the flow sampling and the
projection are written out.  It gives the same bits as building every
array afresh.

A 2-D fallback optimizes pixel tracks directly when no trustworthy 3-D
estimate exists: the projection is the identity (``p`` is a copy of the
track), the camera terms drop out, and the anchor term compares against
the initial 2-D estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import (CameraTrack, DetectionTrack, FlowField, PoseTrack,
                       SkeletonTopology, _count, _finite_number, _sampler)
from .optim import _epoch_history, _huber_parts, adam_step, descend

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
    a fresh gradient, so a later call leaves an earlier result alone.
    """
    dim, frames, joints = x0.shape
    nb = 0 if bones is None else len(bones)
    moves = frames - 1   # frame pairs; the flow and temporal terms need one
    # z = [x | C | p | bone lengths | x0 | detections]: each region's span,
    # a view of it and the indices of its elements
    shapes = (x0.shape, (3 * camera, frames), (2, frames, joints), (frames, nb), x0.shape,
              (2, frames, joints))
    sizes = [math.prod(shape) for shape in shapes]
    spans = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    z, at, regions = np.zeros(sum(sizes)), np.arange(sum(sizes)), list(zip(spans, shapes))
    x, C, p, lengths, anchor, pixels = (z[span].reshape(shape) for span, shape in regions)
    xi, ci, pi, li, x0i, di = (at[span].reshape(shape) for span, shape in regions)
    anchor[...] = x0
    if det is not None:
        pixels[...] = _planes(det.pixels)
    # each term's residual is z[plus] - z[minus], to which the flow term adds
    # the flow sampled at p_t: (history column, weight of each element, plus, minus)
    terms = (
        (1, hp.lam_opt / (moves * joints) if moves else 0.0, pi[:, :-1], pi[:, 1:]),
        (2, hp.lam_3d / (frames * joints), xi, x0i),
        (3, hp.lam_2d / (frames * joints) * det.confidence if hp.lam_2d else 0.0, pi, di),
        (4, hp.lam_pos / (moves * joints) if moves else 0.0, xi[:, 1:], xi[:, :-1]),
        (4, hp.lam_cam / moves if camera and moves else 0.0, ci[:, 1:], ci[:, :-1]),
        (4, hp.lam_bone / (moves * nb) if moves and nb else 0.0, li[1:], li[:-1]))
    blocks = [term for term in terms if np.any(term[1])]
    # the trailing empty array keeps the table's dtypes when every term is off
    weights, plus, minus = (np.concatenate(
        [np.broadcast_to(b[k], b[2].shape).ravel() for b in blocks] + [np.zeros(0, np.intp)])
        for k in (1, 2, 3))
    columns = np.array([b[0] for b in blocks], dtype=np.intp)
    starts = np.cumsum([0] + [b[2].size for b in blocks[:-1]])
    resid, wgrad = np.empty((2, plus.size))
    # the terms with a non-linear adjoint: the sampled flow and the bone lengths
    flow, bone = np.any(terms[0][1]), np.any(terms[-1][1])
    n, xy = xi.size + ci.size, x[:2]
    if camera:
        scale, shift = C[0, :, None], C[1:, :, None]
        gp_scaled = np.empty(p.shape)
    if flow:
        sample = _sampler(flows_uv)
        r_flow = resid[:pi[:, :-1].size].reshape(pi[:, :-1].shape)
        w_flow = wgrad[:r_flow.size].reshape(r_flow.shape)
    if bone:
        incidence = np.zeros((joints, nb))             # bone b is x_j - x_k
        incidence[bones[:, 0], np.arange(nb)] = 1.0
        incidence[bones[:, 1], np.arange(nb)] = -1.0
        incidence_t = incidence.T.copy()
        d = np.empty((dim, frames, nb))                # bone vectors
        d_g = np.empty_like(d)                         # their squares, then d * gl
        gx_bone = np.empty(x0.shape)
        x_rows, d_rows, d_g_rows = x.reshape(-1, joints), d.reshape(-1, nb), d_g.reshape(-1, nb)
        gx_bone_rows = gx_bone.reshape(-1, joints)

    def evaluate(params: np.ndarray, row: np.ndarray | None = None):
        row = np.zeros(5) if row is None else row
        if not resid.size:
            row[:] = 0.0
            return row[0], np.zeros(n)
        np.copyto(z[:n], params)
        if camera:
            np.multiply(xy, scale, out=p)
            np.add(p, shift, out=p)
        else:
            np.copyto(p, xy)
        if bone:
            np.matmul(x_rows, incidence, out=d_rows)
            np.add.reduce(np.multiply(d, d, out=d_g), axis=0, out=lengths)
            np.sqrt(lengths, out=lengths)
        np.subtract(z.take(plus), z.take(minus), out=resid)
        if flow:
            val, jac, _ = sample(p[:, :-1])
            np.add(r_flow, val, out=r_flow)
        vals, g = _huber_parts(resid)
        np.multiply(weights, g, out=wgrad)
        # each term summed on its own, the temporal ones then added in order
        row[:] = np.bincount(columns, np.add.reduceat(
            np.multiply(weights, vals, out=vals), starts), minlength=5)
        row[0] = row[1] + row[2] + row[3] + row[4]
        # the linear part of the gradient is the gather's transpose, a fresh
        # array on every call
        gz = np.bincount(plus, wgrad, z.size)
        np.subtract(gz, np.bincount(minus, wgrad, z.size), out=gz)
        gx, gp = gz[spans[0]].reshape(x0.shape), gz[spans[2]].reshape(p.shape)
        if bone:
            # d|x_j - x_k| / dx_j is the unit bone vector
            gl = gz[spans[3]].reshape(lengths.shape)
            np.divide(gl, np.maximum(lengths, _NORM_EPS, out=lengths), out=gl)
            np.multiply(d, gl, out=d_g)
            np.matmul(d_g_rows, incidence_t, out=gx_bone_rows)
            np.add(gx, gx_bone, out=gx)
        if flow:
            gp_head = gp[:, :-1]
            np.add(gp_head, np.add.reduce(np.multiply(jac, w_flow, out=jac), axis=1),
                   out=gp_head)
        gxy = gx[:2]
        if camera:
            gC = gz[spans[1]].reshape(C.shape)
            np.add(gxy, np.multiply(gp, scale, out=gp_scaled), out=gxy)
            np.add(gC[0], np.add.reduce(np.multiply(gp, xy, out=gp_scaled), axis=(0, 2)),
                   out=gC[0])
            np.add(gC[1:], np.add.reduce(gp, axis=2), out=gC[1:])
        else:
            np.add(gxy, gp, out=gxy)
        return row[0], gz[:n]

    return evaluate


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
    evaluate = _pose_objective(hp, x0, det, np.stack([f.uv for f in flows]),
                               topo.bone_array(), camera=camera is not None)
    params = _to_params(x_init) if camera is None else _to_params(x_init, camera)
    moments = np.zeros((2, *params.shape))
    history = _epoch_history(_count(epochs, "epochs"), 5)
    scales = params[n_x:n_x + frames] if camera is not None else None
    for e, grad in descend(evaluate, params, history, what,
                           ("flow", "anchor", "det", "temporal")):
        adam_step(params, grad, moments, e + 1, hp.lr)
        # a non-positive scale is an optimizer failure, not a bad input;
        # fmin passes over a NaN scale, which the next evaluation reports
        if scales is not None and np.fmin.reduce(scales) <= 0.0:
            bad = np.flatnonzero(scales <= 0.0)[0]
            raise NumericalError(f"{what} drove the camera scale of frame {bad} "
                                 f"to {scales[bad]:g} at epoch {e}")
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
