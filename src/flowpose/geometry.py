"""Core domain types, skeleton topology, and weak-perspective camera geometry.

Conventions: 3-D joint positions are in meters, image quantities in pixels.
A camera is the triple ``(s, tx, ty)`` (pixels-per-meter scale plus a 2-D
pixel offset) and projection is ``(s * x + tx, s * y + ty)``; the depth
coordinate does not enter the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _finite_array(data, dtype, name: str) -> np.ndarray:
    arr = np.array(data, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise InvalidInputError(f"{name}: non-finite value at index {tuple(int(i) for i in bad)}")
    arr.setflags(write=False)
    return arr


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
        if int(self.joint_count) <= 0:
            raise InvalidInputError("joint_count must be positive")
        object.__setattr__(self, "joint_count", int(self.joint_count))
        bones = tuple((int(j), int(k)) for j, k in self.bones)
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
        self._check_connected(bones)
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != self.joint_count:
                raise InvalidInputError("names length must equal joint_count")
            object.__setattr__(self, "names", names)
        if self.eval_subset is not None:
            subset = tuple(int(i) for i in self.eval_subset)
            if any(not 0 <= i < self.joint_count for i in subset):
                raise InvalidInputError("eval_subset: joint index out of range")
            object.__setattr__(self, "eval_subset", subset)

    def _check_connected(self, bones) -> None:
        referenced = sorted({j for bone in bones for j in bone})
        if not referenced:
            return
        adj: dict[int, list[int]] = {j: [] for j in referenced}
        for j, k in bones:
            adj[j].append(k)
            adj[k].append(j)
        stack, visited = [referenced[0]], set()
        while stack:
            j = stack.pop()
            if j in visited:
                continue
            visited.add(j)
            stack.extend(adj[j])
        if len(visited) != len(referenced):
            raise InvalidInputError("bones do not form a connected graph")

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
        arr = _finite_array(self.positions, np.float64, "positions")
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise InvalidInputError(f"positions: expected (T, J, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError("positions: frames and joints must be positive")
        object.__setattr__(self, "positions", arr)

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
        arr = _finite_array(self.params, np.float64, "params")
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidInputError(f"params: expected (T, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("params: at least one frame required")
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
        px = _finite_array(self.pixels, np.float64, "pixels")
        if px.ndim != 3 or px.shape[2] != 2:
            raise InvalidInputError(f"pixels: expected (T, J, 2), got {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise InvalidInputError("pixels: frames and joints must be positive")
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
        arr = _finite_array(self.uv, np.float64, "uv")
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise InvalidInputError(f"uv: expected (H, W, 2), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError("uv: image dimensions must be positive")
        object.__setattr__(self, "uv", arr)

    @property
    def width(self) -> int:
        return self.uv.shape[1]

    @property
    def height(self) -> int:
        return self.uv.shape[0]

    @property
    def u(self) -> np.ndarray:
        return self.uv[:, :, 0]

    @property
    def v(self) -> np.ndarray:
        return self.uv[:, :, 1]


MODE_3D = "3d"
MODE_2D = "2d"


@dataclass(frozen=True, eq=False)
class SceneBundle:
    """Everything one scene carries through the pipeline.

    3-D mode requires ``pose`` and ``camera``; 2-D mode runs purely on the
    detections.  ``flows`` holds exactly ``T - 1`` fields, one per consecutive
    frame pair, each matching the stated image dimensions.
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
        if self.mode not in (MODE_3D, MODE_2D):
            raise InvalidInputError(f"mode must be '3d' or '2d', got {self.mode!r}")
        if int(self.width) < 1 or int(self.height) < 1:
            raise InvalidInputError("image dimensions must be positive")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "flows", tuple(self.flows))
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
        if len(self.flows) != t - 1:
            raise InvalidInputError(
                f"expected {t - 1} flow fields for {t} frames, got {len(self.flows)}")
        for i, f in enumerate(self.flows):
            if (f.width, f.height) != (self.width, self.height):
                raise InvalidInputError(f"flows[{i}]: dimensions do not match the bundle")

    @property
    def frames(self) -> int:
        return self.detections.frames


def project(points, cams) -> np.ndarray:
    """Weak-perspective projection ``(s * x + tx, s * y + ty)``.

    ``points`` has trailing dimension 3 and ``cams`` trailing dimension 3;
    leading dimensions broadcast.  Linear in the point for a fixed camera,
    with closed-form partials: d/d(x, y) = s, d/ds = (x, y), d/d(tx, ty) = I.
    """
    p = np.asarray(points, dtype=np.float64)
    c = np.asarray(cams, dtype=np.float64)
    if p.shape[-1] != 3:
        raise InvalidInputError(f"points: trailing dimension must be 3, got {p.shape}")
    if c.shape[-1] != 3:
        raise InvalidInputError(f"cams: trailing dimension must be 3, got {c.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(c))):
        raise InvalidInputError("project: non-finite input")
    if np.any(c[..., 0] <= 0):
        raise InvalidInputError("project: camera scale must be positive")
    x = c[..., 0] * p[..., 0] + c[..., 1]
    y = c[..., 0] * p[..., 1] + c[..., 2]
    return np.stack([x, y], axis=-1)


def project_track(pose: PoseTrack, camera: CameraTrack) -> np.ndarray:
    """Project every joint of every frame, returning ``(T, J, 2)`` pixels."""
    if pose.frames != camera.frames:
        raise InvalidInputError("pose and camera frame counts differ")
    return project(pose.positions, camera.params[:, None, :])


def bone_lengths(pose: PoseTrack, topo: SkeletonTopology, t: int) -> np.ndarray:
    """Euclidean length of each bone at frame ``t``, ordered like ``topo.bones``."""
    if not 0 <= t < pose.frames:
        raise IndexError(f"frame {t} out of range for {pose.frames} frames")
    if pose.joints != topo.joint_count:
        raise InvalidInputError("pose joint count does not match topology")
    b = topo.bone_array()
    d = pose.positions[t, b[:, 0]] - pose.positions[t, b[:, 1]]
    return np.linalg.norm(d, axis=-1)


def average_tracks(a, b):
    """Element-wise mean of two tracks of the same kind and dimensions."""
    if type(a) is not type(b):
        raise InvalidInputError(
            f"cannot average {type(a).__name__} with {type(b).__name__}")
    if isinstance(a, PoseTrack):
        if a.positions.shape != b.positions.shape:
            raise InvalidInputError("pose tracks have different dimensions")
        return PoseTrack((a.positions + b.positions) / 2.0)
    if isinstance(a, CameraTrack):
        if a.params.shape != b.params.shape:
            raise InvalidInputError("camera tracks have different dimensions")
        return CameraTrack((a.params + b.params) / 2.0)
    if isinstance(a, DetectionTrack):
        if a.pixels.shape != b.pixels.shape:
            raise InvalidInputError("detection tracks have different dimensions")
        return DetectionTrack((a.pixels + b.pixels) / 2.0,
                              (a.confidence + b.confidence) / 2.0)
    raise InvalidInputError(f"unsupported track type {type(a).__name__}")


def average_flows(a: FlowField, b: FlowField) -> FlowField:
    """Element-wise mean of two flow fields of identical dimensions."""
    if a.uv.shape != b.uv.shape:
        raise InvalidInputError("flow fields have different dimensions")
    return FlowField((a.uv + b.uv) / 2.0)
