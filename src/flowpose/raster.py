"""Thick stick-figure rasterization and target-flow construction.

A skeleton is drawn by rasterizing each bone's centerline one pixel wide
(pixel centers within half a pixel of the segment) and dilating the result
with a plus-shaped structuring element whose arm length is the radius.
Bones are clipped to the image before thickening, so a skeleton entirely
outside the frame leaves the raster empty.

Each bone is measured only inside its window, its bounding box grown by
``radius + 1`` and clipped to the image; this gives the same bits as
measuring every bone over the whole image (see ``rasterize_skeleton``).

Every raster pixel knows its owning bone (the bone with the nearest
centerline, ties to the lower bone index) and the arc-length fraction of
the nearest centerline point, which is what lets bone motion be splatted
into a sparse flow map: a pixel at fraction ``a`` of bone ``(j, k)`` moves
by ``(1 - a) * d_j + a * d_k`` where ``d_*`` are the joint displacements
between the two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import FlowField, SkeletonTopology, _count, _positive_array


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


@dataclass(frozen=True, eq=False)
class TargetFlow:
    """A flow field with a record of which pixels were replaced by bone flow."""

    flow: FlowField
    overlay_mask: np.ndarray  # (H, W) bool

    def __post_init__(self):
        mask = np.array(self.overlay_mask, dtype=bool)
        if mask.shape != (self.flow.height, self.flow.width):
            raise InvalidInputError("overlay mask dimensions do not match the flow")
        mask.setflags(write=False)
        object.__setattr__(self, "overlay_mask", mask)


def _check_joints2d(joints2d, topo: SkeletonTopology) -> np.ndarray:
    pts = _positive_array(joints2d, "joints2d", ("J",), 2)
    if pts.shape[0] != topo.joint_count:
        raise InvalidInputError(
            f"joints2d: expected {topo.joint_count} joints, got {pts.shape[0]}")
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

    # The windows are exact: a masked pixel lies within radius + 0.5 of its
    # nearest bone, so a bone whose window excludes it can neither own it nor
    # tie, and the element-wise arithmetic gives the same bits in a window.
    reach = radius + 1
    for b, (j, k) in enumerate(topo.bones):
        px, py = pts[j]
        qx, qy = pts[k]
        x0 = max(math.floor(min(px, qx)) - reach, 0)
        x1 = min(math.ceil(max(px, qx)) + reach + 1, width)
        y0 = max(math.floor(min(py, qy)) - reach, 0)
        y1 = min(math.ceil(max(py, qy)) + reach + 1, height)
        if x0 >= x1 or y0 >= y1:
            continue
        xx = np.arange(x0, x1, dtype=np.float64)
        yy = np.arange(y0, y1, dtype=np.float64)[:, None]
        d2 = (qx - px) ** 2 + (qy - py) ** 2
        if d2 > 0:
            t = ((xx - px) * (qx - px) + (yy - py) * (qy - py)) / d2
            t = np.clip(t, 0.0, 1.0)
        else:
            t = np.zeros((y1 - y0, x1 - x0))
        dist = np.hypot(xx - (px + t * (qx - px)), yy - (py + t * (qy - py)))
        window = np.s_[y0:y1, x0:x1]
        centerline[window] |= dist <= 0.5
        closer = dist < best_d[window]
        best_d[window][closer] = dist[closer]
        owner[window][closer] = b
        frac[window][closer] = t[closer]

    mask = centerline.copy()
    # an arm as long as the image reaches every pixel of its row and column
    for r in range(1, min(radius, max(width, height)) + 1):
        mask[:, r:] |= centerline[:, :-r]
        mask[:, :-r] |= centerline[:, r:]
        mask[r:, :] |= centerline[:-r, :]
        mask[:-r, :] |= centerline[r:, :]

    owner = np.where(mask, owner, np.int32(-1))
    frac = np.where(mask, frac, np.nan)
    return BoneRaster(mask=mask, owner=owner, frac=frac)


def bone_flow(joints2d_t, joints2d_t1, topo: SkeletonTopology, width: int,
              height: int, radius: int = 15) -> tuple[FlowField, np.ndarray]:
    """Sparse flow of the skeleton pixels between two frames.

    Rasterizes frame ``t`` and assigns each masked pixel the displacement of
    its nearest centerline point, interpolated linearly between the owning
    bone's endpoint displacements.  Returns the flow (zero off the mask) and
    the frame-``t`` raster mask.
    """
    a = _check_joints2d(joints2d_t, topo)
    b = _check_joints2d(joints2d_t1, topo)
    raster = rasterize_skeleton(a, topo, width, height, radius)
    disp = b - a  # (J, 2)

    m = raster.mask
    uv = np.zeros((*m.shape, 2))
    if m.any():
        bones = topo.bone_array()
        o = raster.owner[m]
        t = raster.frac[m][:, None]
        uv[m] = (1.0 - t) * disp[bones[o, 0]] + t * disp[bones[o, 1]]
    return FlowField(uv), m.copy()


def compose_target_flow(base: FlowField, bone: FlowField, mask) -> TargetFlow:
    """Overlay the sparse bone flow onto the base estimate where masked."""
    m = np.asarray(mask, dtype=bool)
    if bone.uv.shape != base.uv.shape:
        raise InvalidInputError("bone flow dimensions do not match the base flow")
    if m.shape != base.uv.shape[:2]:
        raise InvalidInputError("mask dimensions do not match the base flow")
    uv = np.where(m[:, :, None], bone.uv, base.uv)
    return TargetFlow(flow=FlowField(uv), overlay_mask=m)
