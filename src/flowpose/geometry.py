"""Core domain types, skeleton topology, weak-perspective camera geometry,
and the bilinear sampler of stacked flow fields.

Conventions: 3-D joint positions are in meters, image quantities in pixels.
A camera is the triple ``(s, tx, ty)`` (pixels-per-meter scale plus a 2-D
pixel offset) and projection is ``(s * x + tx, s * y + ty)``; the depth
coordinate does not enter the projection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError


def _finite_array(data, dtype, name: str) -> np.ndarray:
    try:  # the dtype tells complex data, so an array is not scanned for it
        arr = np.asarray(data)
        if arr.dtype.kind == "c":
            raise TypeError
        arr = np.array(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{name}: not an array of real numbers") from None
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise InvalidInputError(f"{name}: non-finite value at index {tuple(int(i) for i in bad)}")
    arr.setflags(write=False)
    return arr


def _positive_array(data, name: str, layout: tuple[str, ...], last: int) -> np.ndarray:
    """``data`` as a read-only finite float array of shape ``(*layout, last)``,
    where ``layout`` names the leading axes and none of them may be empty."""
    arr = _finite_array(data, np.float64, name)
    if arr.ndim != len(layout) + 1 or arr.shape[-1] != last:
        raise InvalidInputError(f"{name}: expected ({', '.join(layout)}, {last}), got {arr.shape}")
    if 0 in arr.shape[:-1]:
        raise InvalidInputError(f"{name}: {' and '.join(layout)} must be positive")
    return arr


def _finite_number(value, name: str, least=None):
    """``value`` if it is a finite real number, not below ``least`` if given;
    a bool, a non-number or an integer beyond float range is invalid input."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return value


def _count(value, name: str, least: int = 0) -> int:
    """A finite, integral number not below ``least``, as an ``int``."""
    if _finite_number(value, name) < least or value != math.floor(value):
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _of_class(value, cls: type, name: str, default=...):
    """``value`` if it is a ``cls``, or ``default`` for ``None`` if one is
    given; anything else raises ``TypeError`` naming the argument."""
    if value is None and default is not ...:
        return default
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


MODE_3D = "3d"
MODE_2D = "2d"


def _mode(value) -> str:
    """``value`` if it names a mode, ``'3d'`` or ``'2d'``."""
    if value not in (MODE_3D, MODE_2D):
        raise InvalidInputError(f"mode must be '3d' or '2d', got {value!r}")
    return value


def _zeros(shape: tuple[int, ...], what: str) -> np.ndarray:
    """Zeroed float array of ``shape``; a size too large to allocate is bad
    input, named by ``what``."""
    try:
        return np.zeros(shape)
    except (ValueError, MemoryError):
        raise InvalidInputError(f"{what}: cannot allocate a {shape} array") from None


def _numbers(values, count: int | None, name: str, each=_finite_number) -> tuple:
    """``values``, a list, tuple or array (no string, set or other iterable), as
    a tuple of exactly ``count`` items (of any number if ``None``), each passed
    through ``each`` (by default a finite real number)."""
    if not isinstance(values, (list, tuple, np.ndarray)) or getattr(values, "ndim", 1) == 0:
        raise InvalidInputError(f"{name} must be a sequence, got {values!r}")
    items = tuple(values)
    if count is not None and len(items) != count:
        raise InvalidInputError(f"{name} needs {count} values, got {len(items)}")
    return tuple(each(v, name) for v in items)


def _bone_tree(bones) -> list[tuple[int, int, int]]:
    """Breadth-first ``(bone, parent, child)`` edges from the lowest joint the
    bones reference, each joint's bones visited in bone order.  Every reached
    joint adds one edge, so the walk has one edge fewer than the joints of
    a connected graph, and one edge per bone of a tree."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for b, (j, k) in enumerate(bones):
        adj.setdefault(j, []).append((b, k))
        adj.setdefault(k, []).append((b, j))
    queue = [min(adj)] if adj else []
    visited, order = set(queue), []
    for parent in queue:
        for b, child in adj[parent]:
            if child not in visited:
                visited.add(child)
                order.append((b, parent, child))
                queue.append(child)
    return order


@dataclass(frozen=True, eq=False)
class SkeletonTopology:
    """Joint count plus the list of bones (joint-index pairs) connecting them.

    The bone list must reference valid, distinct joints, contain no duplicate
    pairs (order-insensitive), and form a single connected graph over the
    joints it mentions.  ``eval_subset`` optionally restricts metric reporting
    to a subset of joints.
    """

    joint_count: int
    bones: tuple[tuple[int, int], ...]
    names: tuple[str, ...] | None = None
    eval_subset: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "joint_count", _count(self.joint_count, "joint_count", 1))
        bones = tuple(_numbers(bone, 2, f"bones[{b}]", each=_count) for b, bone
                      in enumerate(_numbers(self.bones, None, "bones", each=lambda bone, _: bone)))
        object.__setattr__(self, "bones", bones)
        seen = set()
        for b, (j, k) in enumerate(bones):
            if not (0 <= j < self.joint_count and 0 <= k < self.joint_count):
                raise InvalidInputError(f"bones[{b}]: joint index out of range")
            if j == k:
                raise InvalidInputError(f"bones[{b}]: degenerate bone ({j}, {j})")
            key = (min(j, k), max(j, k))
            if key in seen:
                raise InvalidInputError(f"bones[{b}]: duplicate bone {key}")
            seen.add(key)
        referenced = {j for bone in bones for j in bone}
        if referenced and len(_bone_tree(bones)) != len(referenced) - 1:
            raise InvalidInputError("bones do not form a connected graph")
        if self.names is not None:
            names = _numbers(self.names, self.joint_count, "names", each=lambda n, _: n)
            if not all(isinstance(n, str) for n in names):
                raise InvalidInputError(f"names must be strings, got {names!r}")
            object.__setattr__(self, "names", names)
        if self.eval_subset is not None:
            subset = _numbers(self.eval_subset, None, "eval_subset", each=_count)
            if any(not 0 <= i < self.joint_count for i in subset):
                raise InvalidInputError("eval_subset: joint index out of range")
            object.__setattr__(self, "eval_subset", subset)

    def bone_array(self) -> np.ndarray:
        """Bone list as an ``(B, 2)`` int array (empty-safe)."""
        return np.asarray(self.bones, dtype=np.intp).reshape(-1, 2)


DEFAULT_JOINT_NAMES = (
    "pelvis", "right_hip", "right_knee", "right_ankle",
    "left_hip", "left_knee", "left_ankle",
    "spine", "neck", "nose", "head",
    "left_shoulder", "left_elbow", "left_wrist",
    "right_shoulder", "right_elbow", "right_wrist",
)

_DEFAULT_BONES = (
    (0, 1), (1, 2), (2, 3),
    (0, 4), (4, 5), (5, 6),
    (0, 7), (7, 8),
    (8, 9), (9, 10),          # neck-nose and nose-head instead of a direct head bone
    (8, 11), (11, 12), (12, 13),
    (8, 14), (14, 15), (15, 16),
)

# The fourteen joints conventionally used for pose-error reporting
# (limbs, neck, head; pelvis, spine and nose excluded).
EVAL_JOINTS_14 = (1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14, 15, 16)


def default_topology(eval_subset: tuple[int, ...] | None = None) -> SkeletonTopology:
    """17-joint human skeleton with the nose splitting the head-neck bone."""
    return SkeletonTopology(
        joint_count=17,
        bones=_DEFAULT_BONES,
        names=DEFAULT_JOINT_NAMES,
        eval_subset=eval_subset,
    )


@dataclass(frozen=True, eq=False)
class PoseTrack:
    """Per-frame 3-D joint positions, shape ``(T, J, 3)`` in meters."""

    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           _positive_array(self.positions, "positions", ("T", "J"), 3))

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def joints(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True, eq=False)
class CameraTrack:
    """Per-frame weak-perspective camera triples ``(s, tx, ty)``, shape ``(T, 3)``."""

    params: np.ndarray

    def __post_init__(self):
        arr = _positive_array(self.params, "params", ("T",), 3)
        if np.any(arr[:, 0] <= 0):
            t = int(np.argwhere(arr[:, 0] <= 0)[0][0])
            raise InvalidInputError(f"params: scale must be positive (frame {t})")
        object.__setattr__(self, "params", arr)

    @property
    def frames(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True, eq=False)
class DetectionTrack:
    """Per-frame 2-D joint pixels with confidences in [0, 1]."""

    pixels: np.ndarray      # (T, J, 2)
    confidence: np.ndarray  # (T, J)

    def __post_init__(self):
        px = _positive_array(self.pixels, "pixels", ("T", "J"), 2)
        w = _finite_array(self.confidence, np.float64, "confidence")
        if w.shape != px.shape[:2]:
            raise InvalidInputError(
                f"confidence: expected shape {px.shape[:2]}, got {w.shape}")
        if np.any(w < 0) or np.any(w > 1):
            t, j = np.argwhere((w < 0) | (w > 1))[0]
            raise InvalidInputError(f"confidence[{t}][{j}]: outside [0, 1]")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "confidence", w)

    @property
    def frames(self) -> int:
        return self.pixels.shape[0]

    @property
    def joints(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class FlowField:
    """Dense per-pixel displacement map, ``uv`` shape ``(H, W, 2)`` in pixels."""

    uv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "uv", _positive_array(self.uv, "uv", ("H", "W"), 2))

    @property
    def width(self) -> int:
        return self.uv.shape[1]

    @property
    def height(self) -> int:
        return self.uv.shape[0]


@dataclass(frozen=True, eq=False)
class SceneBundle:
    """Everything one scene carries through the pipeline.

    3-D mode requires ``pose`` and ``camera``; a 2-D scene holds neither and
    runs on the detections.  ``flows`` holds exactly ``T - 1`` fields, one per
    consecutive frame pair, each matching the stated image dimensions.
    """

    topology: SkeletonTopology
    width: int
    height: int
    detections: DetectionTrack
    flows: tuple[FlowField, ...]
    mode: str = MODE_3D
    pose: PoseTrack | None = None
    camera: CameraTrack | None = None

    def __post_init__(self):
        _mode(self.mode)
        object.__setattr__(self, "width", _count(self.width, "width", 1))
        object.__setattr__(self, "height", _count(self.height, "height", 1))
        object.__setattr__(self, "flows", _numbers(self.flows, None, "flows", each=lambda f, _: f))
        t = self.detections.frames
        if self.detections.joints != self.topology.joint_count:
            raise InvalidInputError("detections joint count does not match topology")
        if self.mode == MODE_3D:
            if self.pose is None or self.camera is None:
                raise InvalidInputError("3d mode requires pose and camera tracks")
            if self.pose.frames != t or self.camera.frames != t:
                raise InvalidInputError("pose/camera frame count does not match detections")
            if self.pose.joints != self.topology.joint_count:
                raise InvalidInputError("pose joint count does not match topology")
        elif self.pose is not None or self.camera is not None:
            raise InvalidInputError("2d mode holds no pose or camera track")
        if len(self.flows) != t - 1:
            raise InvalidInputError(
                f"expected {t - 1} flow fields for {t} frames, got {len(self.flows)}")
        for i, f in enumerate(self.flows):
            if (f.width, f.height) != (self.width, self.height):
                raise InvalidInputError(f"flows[{i}]: dimensions do not match the bundle")

    @property
    def frames(self) -> int:
        return self.detections.frames


def project_track(pose: PoseTrack, camera: CameraTrack) -> np.ndarray:
    """Project every joint of every frame, returning ``(T, J, 2)`` pixels."""
    if pose.frames != camera.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    p = pose.positions
    c = camera.params[:, None, :]
    x = c[..., 0] * p[..., 0] + c[..., 1]
    y = c[..., 0] * p[..., 1] + c[..., 2]
    return np.stack([x, y], axis=-1)


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


def average_tracks(a, b):
    """Element-wise mean of two tracks or two flow fields of the same kind
    and dimensions, taken array field by array field."""
    if type(a) is not type(b):
        raise InvalidInputError(
            f"cannot average {type(a).__name__} with {type(b).__name__}")
    if not isinstance(a, (PoseTrack, CameraTrack, DetectionTrack, FlowField)):
        raise InvalidInputError(f"unsupported track type {type(a).__name__}")
    pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)]
    if any(x.shape != y.shape for x, y in pairs):
        raise InvalidInputError(f"{type(a).__name__} dimensions differ")
    return type(a)(*[(x + y) / 2.0 for x, y in pairs])
