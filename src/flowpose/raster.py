"""Thick stick-figure rasterization and the sketch flow overlaid on a base flow.

A skeleton is drawn by rasterizing each bone's centerline one pixel wide
(pixel centers within half a pixel of the segment) and dilating the result
with a plus-shaped structuring element whose arm length is the radius.
Bones are clipped to the image before thickening, so a skeleton entirely
outside the frame leaves the raster empty.  A coordinate beyond 2**40 px
is invalid input, past the reach where float64 measures bones to a pixel.

Each bone is measured only inside its window, its bounding box grown by
``radius + 1`` and clipped to the image; this gives the same bits as
measuring every bone over the whole image (see ``rasterize_skeleton``),
merged in place by ``np.copyto``.  The fraction is clamped by ``np.clip``,
which keeps the ``-0.0`` that ``np.maximum`` turns into ``0.0``.  Each arm
of the dilation doubles its reach per step: ``ceil(log2(r + 1))`` steps.

Every raster pixel knows its owning bone (the bone with the nearest
centerline, ties to the lower bone index) and the arc-length fraction of
the nearest centerline point, which is what lets bone motion be splatted
into a sparse flow map: a pixel at fraction ``a`` of bone ``(j, k)`` moves
by ``(1 - a) * d_j + a * d_k`` where ``d_*`` are the joint displacements
between the two frames; the splat writes them through their flat indices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import FlowField, SkeletonTopology, _count, _of_class, _positive_array


@dataclass(frozen=True, eq=False)
class BoneRaster:
    """Boolean skeleton mask plus per-pixel owner bone and centerline fraction.

    ``owner`` is -1 and ``frac`` is NaN outside the mask.
    """

    mask: np.ndarray   # (H, W) bool
    owner: np.ndarray  # (H, W) int32
    frac: np.ndarray   # (H, W) float64

    def __post_init__(self):
        for arr in (self.mask, self.owner, self.frac):
            arr.setflags(write=False)


# float64 spacing at 2**40 is 2**-12 px, so a bone's fractions resolve to ~2**-11 px
_REACH = 2.0 ** 40


def _check_joints2d(joints2d, topo: SkeletonTopology) -> np.ndarray:
    topo = _of_class(topo, SkeletonTopology, "topo")
    pts = _positive_array(joints2d, "joints2d", ("J",), 2)
    if pts.shape[0] != topo.joint_count:
        raise InvalidInputError(
            f"joints2d: expected {topo.joint_count} joints, got {pts.shape[0]}")
    if np.abs(pts).max() > _REACH:
        raise InvalidInputError(f"joints2d: {np.abs(pts).max():.17g} px is beyond 2**40 px")
    return pts


def rasterize_skeleton(joints2d, topo: SkeletonTopology, width: int, height: int,
                       radius: int = 15) -> BoneRaster:
    """Rasterize the bones of a 2-D skeleton into a thick mask.

    ``radius`` is the arm length of the plus-shaped dilation element;
    ``radius=0`` leaves the one-pixel-wide centerlines.  Joints may lie
    outside the image; off-image parts are clipped.
    """
    width, height = _count(width, "width", 1), _count(height, "height", 1)
    radius = _count(radius, "radius")
    pts = _check_joints2d(joints2d, topo)

    centerline = np.zeros((height, width), dtype=bool)
    best_d = np.full((height, width), np.inf)
    owner = np.full((height, width), -1, dtype=np.int32)
    frac = np.full((height, width), np.nan)

    # an arm as long as the image reaches every pixel of its row and column
    radius = min(radius, max(width, height))
    # The windows are exact: a masked pixel lies within radius + 0.5 of its
    # nearest bone, so a bone whose window excludes it can neither own it nor
    # tie, and the element-wise arithmetic gives the same bits in a window;
    # within the reach every bound is an exact integer.
    bones = topo.bone_array()
    p, q = pts[bones[:, 0]], pts[bones[:, 1]]
    lo = np.clip(np.floor(np.minimum(p, q)) - (radius + 1), 0, (width, height))
    hi = np.clip(np.ceil(np.maximum(p, q)) + (radius + 2), 0, (width, height))
    xs, ys = np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64)[:, None]
    for b, ((x0, y0), (x1, y1), (px, py), (qx, qy)) in enumerate(zip(
            lo.astype(int).tolist(), hi.astype(int).tolist(), p, q)):
        if x0 >= x1 or y0 >= y1:
            continue
        xx, yy = xs[x0:x1], ys[y0:y1]
        dx, dy = qx - px, qy - py
        d2 = dx ** 2 + dy ** 2
        t = np.clip(((xx - px) * dx + (yy - py) * dy) / d2, 0.0, 1.0) if d2 > 0 else 0.0
        dist = np.hypot(xx - (px + t * dx), yy - (py + t * dy))
        window = np.s_[y0:y1, x0:x1]
        centerline[window] |= dist <= 0.5
        closer = dist < best_d[window]
        np.copyto(best_d[window], dist, where=closer)
        np.copyto(owner[window], b, where=closer)
        np.copyto(frac[window], t, where=closer)

    # each arm grows from reach k to k + s, s <= k + 1, so the two shifted
    # ORs leave no gap; numpy buffers each overlapping in-place OR
    rows, cols, k = centerline.copy(), centerline, 0
    while k < radius:
        s = min(k + 1, radius - k)
        rows[:, s:] |= rows[:, :-s]
        rows[:, :-s] |= rows[:, s:]
        cols[s:] |= cols[:-s]
        cols[:-s] |= cols[s:]
        k += s
    mask = rows | cols

    owner = np.where(mask, owner, np.int32(-1))
    frac = np.where(mask, frac, np.nan)
    return BoneRaster(mask=mask, owner=owner, frac=frac)


def bone_flow(joints2d_t, joints2d_t1, topo: SkeletonTopology, width: int,
              height: int, radius: int = 15) -> tuple[FlowField, np.ndarray]:
    """Sparse flow of the skeleton pixels between two frames.

    Rasterizes frame ``t`` and assigns each masked pixel the displacement of
    its nearest centerline point, interpolated linearly between the owning
    bone's endpoint displacements.  Returns the flow (zero off the mask) and
    the frame-``t`` raster's own read-only mask.
    """
    b = _check_joints2d(joints2d_t1, topo)
    raster = rasterize_skeleton(joints2d_t, topo, width, height, radius)
    disp = b - np.asarray(joints2d_t, dtype=np.float64)  # (J, 2)

    m = raster.mask
    idx = np.flatnonzero(m)
    uv = np.zeros((m.size, 2))
    if idx.size:
        bones = topo.bone_array()
        o = raster.owner.take(idx)
        t = raster.frac.take(idx)[:, None]
        uv[idx] = (1.0 - t) * disp[bones[o, 0]] + t * disp[bones[o, 1]]
    return FlowField(uv.reshape(*m.shape, 2)), m


def compose_target_flow(base: FlowField, bone: FlowField, mask) -> FlowField:
    """The target flow: the base estimate with the bone flow written over it where masked."""
    base, bone = _of_class(base, FlowField, "base"), _of_class(bone, FlowField, "bone")
    m = np.asarray(mask, dtype=bool)
    if bone.uv.shape != base.uv.shape:
        raise InvalidInputError("bone flow dimensions do not match the base flow")
    if m.shape != base.uv.shape[:2]:
        raise InvalidInputError("mask dimensions do not match the base flow")
    idx = np.flatnonzero(m)
    uv = base.uv.reshape(-1, 2).copy()
    uv[idx] = bone.uv.reshape(-1, 2).take(idx, axis=0)
    return FlowField(uv.reshape(base.uv.shape))
