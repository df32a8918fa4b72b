"""On-disk formats: .flo flow fields, JSON tracks, scene directories, config.

All writes are atomic (temp file in the destination directory, then
rename), so an interrupted run never leaves truncated files behind.

The .flo layout is the standard flow-interchange binary: a 4-byte tag equal
to the little-endian float32 ``202021.25``, the width and height as
little-endian int32, then row-major interleaved ``(u, v)`` float32 pairs.

Track files are JSON with an explicit ``format`` tag, a ``kind``, a
free-form ``units`` string that round-trips verbatim, the track's leading
dimensions and its arrays as nested row-major lists.  One table, ``_TRACKS``,
says what each kind is: its track type, the names of its leading
dimensions (``frames``, ``joints``) and its default units.  The arrays are
the type's dataclass fields, written and read in field order, so
``write_track`` and ``read_track`` hold no per-kind code.  Floats are
serialized with full precision, so a write/read round trip is exact.

A scene's ``meta.json`` records its mode, which ``read_bundle`` may
override.  Configs and stage reports are serialized from their
dataclasses' own fields, in field order.  A reader refuses a field that its
writer does not write, so a misspelled key is a schema error.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInputError, SchemaError
from .geometry import (MODE_3D, CameraTrack, DetectionTrack, FlowField, PoseTrack,
                       SceneBundle, SkeletonTopology, _count, _mode)
from .flow_refine import FlowRefineParams
from .pipeline import CycleSchedule, FlowStage, PoseStage
from .pose_refine import PoseHyperParams

FLO_MAGIC = float(np.float32(202021.25))

# kind -> (track type, leading-dimension names, default units)
_TRACKS = {"pose": (PoseTrack, ("frames", "joints"), "meters"),
           "camera": (CameraTrack, ("frames",), "pixels"),
           "detections": (DetectionTrack, ("frames", "joints"), "pixels")}


# ---------------------------------------------------------------------------
# atomic writes

def _atomic_write_bytes(path, blob: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_json(path, doc) -> None:
    _atomic_write_bytes(path, _dump_json(doc).encode("utf-8"))


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text", offset=exc.start) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{context}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{context}: missing field '{key}'")
    return doc[key]


def _known_fields(doc: dict, known, context: str) -> None:
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise SchemaError(f"{context}: unknown field {unknown[0]!r}")


# ---------------------------------------------------------------------------
# .flo flow fields

def _check_float32(path, field: FlowField) -> None:
    """Refuse a field float32 cannot hold; rounding is monotonic, so the extremes decide."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32([field.uv.min(), field.uv.max()])).all():
            raise InvalidInputError(f"{path}: flow value beyond float32 range")


def write_flo(path, field: FlowField) -> None:
    """Write a flow field at float32 precision; a value beyond it is refused."""
    _check_float32(path, field)
    header = struct.pack("<f", FLO_MAGIC) + struct.pack("<ii", field.width, field.height)
    _atomic_write_bytes(path, header + field.uv.astype("<f4").tobytes())


def read_flo(path) -> FlowField:
    """Read a .flo file, rejecting bad magic, bad dimensions and truncation."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    if len(data) < 4:
        raise FormatError(f"{path}: truncated header", offset=len(data))
    magic = struct.unpack("<f", data[:4])[0]
    if magic != FLO_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    if len(data) < 12:
        raise FormatError(f"{path}: truncated dimensions", offset=len(data))
    width, height = struct.unpack("<ii", data[4:12])
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}", offset=4)
    expected = 12 + 8 * width * height
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {width}x{height}, got {len(data)}",
            offset=min(len(data), expected))
    uv = np.frombuffer(data, dtype="<f4", count=2 * width * height, offset=12)
    try:
        return FlowField(uv.astype(np.float64).reshape(height, width, 2))
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_flow_dir(path) -> list[FlowField]:
    """Read every .flo file in a directory, ordered by filename."""
    d = Path(path)
    if not d.is_dir():
        raise FormatError(f"{path}: not a directory")
    files = sorted(d.glob("*.flo"))
    if not files:
        raise FormatError(f"{path}: no .flo files found")
    return [read_flo(f) for f in files]


def write_flow_dir(path, flows) -> None:
    """Check every field, then write ``flow_000000.flo``, ... and remove other .flo files."""
    d = Path(path)
    written = [d / f"flow_{i:06d}.flo" for i in range(len(flows))]
    for flo, f in zip(written, flows):
        _check_float32(flo, f)
    d.mkdir(parents=True, exist_ok=True)
    for flo, f in zip(written, flows):
        write_flo(flo, f)
    for stale in set(d.glob("*.flo")).difference(written):
        stale.unlink()


# ---------------------------------------------------------------------------
# track files

def write_track(path, track, units: str | None = None) -> None:
    """Write a pose, camera or detection track as a JSON document."""
    kind = next((k for k, (cls, _, _) in _TRACKS.items() if isinstance(track, cls)), None)
    if kind is None:
        raise InvalidInputError(f"unsupported track type {type(track).__name__}")
    _, dims, default_units = _TRACKS[kind]
    doc = {"format": "track-v1", "kind": kind,
           "units": units if units is not None else default_units}
    doc.update({d: getattr(track, d) for d in dims})
    doc.update({f.name: getattr(track, f.name).tolist() for f in fields(track)})
    _write_json(path, doc)


def read_track(path, kind: str | None = None):
    """Read a track file; returns ``(track, units)``.  Given ``kind``, the
    file must hold a track of that kind."""
    doc = _load_json(path)
    ctx = str(path)
    if _require(doc, "format", ctx) != "track-v1":
        raise SchemaError(f"{ctx}: unsupported format {doc['format']!r}")
    found = _require(doc, "kind", ctx)
    if not isinstance(found, str) or found not in _TRACKS:
        raise SchemaError(f"{ctx}: unknown track kind {found!r}")
    if kind is not None and found != kind:
        raise SchemaError(f"{ctx}: expected a {kind} track")
    cls, dims, _ = _TRACKS[found]
    units = _require(doc, "units", ctx)
    if not isinstance(units, str):
        raise SchemaError(f"{ctx}: units must be a string, got {type(units).__name__}")
    try:
        shape = tuple(_count(_require(doc, d, ctx), d) for d in dims)
        arrays = []
        for f in fields(cls):
            try:
                arrays.append(np.array(_require(doc, f.name, ctx), dtype=np.float64))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{ctx}: field '{f.name}' is not a numeric array") from exc
            if arrays[-1].shape[:len(dims)] != shape:
                raise SchemaError(f"{ctx}: {f.name} shape {arrays[-1].shape} does not match "
                                  + ", ".join(f"{d}={n}" for d, n in zip(dims, shape)))
        _known_fields(doc, ("format", "kind", "units", *dims, *(f.name for f in fields(cls))), ctx)
        return cls(*arrays), units
    except InvalidInputError as exc:
        raise SchemaError(f"{ctx}: {exc}") from exc


# ---------------------------------------------------------------------------
# topology files

def write_topology(path, topo: SkeletonTopology) -> None:
    doc = {"format": "topology-v1", "joint_count": topo.joint_count,
           "bones": [list(b) for b in topo.bones],
           "names": list(topo.names) if topo.names is not None else None,
           "eval_subset": list(topo.eval_subset) if topo.eval_subset is not None else None}
    _write_json(path, doc)


def read_topology(path) -> SkeletonTopology:
    doc = _load_json(path)
    ctx = str(path)
    if _require(doc, "format", ctx) != "topology-v1":
        raise SchemaError(f"{ctx}: unsupported format {doc['format']!r}")
    _known_fields(doc, ("format", "joint_count", "bones", "names", "eval_subset"), ctx)
    try:
        return SkeletonTopology(
            joint_count=_require(doc, "joint_count", ctx), bones=_require(doc, "bones", ctx),
            names=doc.get("names"), eval_subset=doc.get("eval_subset"))
    except InvalidInputError as exc:
        raise SchemaError(f"{ctx}: {exc}") from exc


# ---------------------------------------------------------------------------
# scene directories

def write_bundle(dirpath, bundle: SceneBundle) -> None:
    """Write a scene as a directory of track files plus a flow subdirectory,
    removing the scene files of an older scene there; other files stay.  The
    flows go first, so a field that ``write_flo`` refuses writes nothing."""
    d = Path(dirpath)
    write_flow_dir(d / "flows", bundle.flows)
    meta = {"format": "bundle-v1", "mode": bundle.mode, "width": bundle.width,
            "height": bundle.height, "frames": bundle.frames}
    _write_json(d / "meta.json", meta)
    write_topology(d / "topology.json", bundle.topology)
    write_track(d / "detections.json", bundle.detections)
    for name, track in (("pose.json", bundle.pose), ("camera.json", bundle.camera)):
        if track is not None:
            write_track(d / name, track)
        else:
            (d / name).unlink(missing_ok=True)


def read_bundle(dirpath, mode: str | None = None) -> SceneBundle:
    """Read a scene directory in ``mode``, else in the mode ``meta.json``
    records; only a 3-D read reads (and needs) ``pose.json`` and ``camera.json``."""
    d = Path(dirpath)
    meta = _load_json(d / "meta.json")
    ctx = str(d / "meta.json")
    if _require(meta, "format", ctx) != "bundle-v1":
        raise SchemaError(f"{ctx}: unsupported format {meta['format']!r}")
    _known_fields(meta, ("format", "mode", "width", "height", "frames"), ctx)
    try:
        recorded = _mode(_require(meta, "mode", ctx))
    except InvalidInputError as exc:
        raise SchemaError(f"{ctx}: {exc}") from exc
    mode = mode or recorded
    topo = read_topology(d / "topology.json")
    detections, _ = read_track(d / "detections.json", "detections")
    pose = camera = None
    if mode == MODE_3D:
        pose, _ = read_track(d / "pose.json", "pose")
        camera, _ = read_track(d / "camera.json", "camera")
    flows = read_flow_dir(d / "flows")
    try:
        if _count(_require(meta, "frames", ctx), "frames") != detections.frames:
            raise SchemaError(f"{ctx}: frames {meta['frames']} does not match the "
                              f"{detections.frames} frames of the detections")
        return SceneBundle(topology=topo, width=_require(meta, "width", ctx),
                           height=_require(meta, "height", ctx),
                           detections=detections, flows=tuple(flows), mode=mode,
                           pose=pose, camera=camera)
    except InvalidInputError as exc:
        raise SchemaError(f"{dirpath}: {exc}") from exc


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """A pipeline run's settings; defaults match the shipped settings.  The
    scene it reads and the directory it writes are the caller's."""

    mode: str = MODE_3D
    schedule: CycleSchedule | None = None
    pose_params: PoseHyperParams = PoseHyperParams()
    flow_params: FlowRefineParams = FlowRefineParams()

    def __post_init__(self):
        _mode(self.mode)
        if self.schedule is None:
            object.__setattr__(self, "schedule", CycleSchedule.default(self.mode))


_STAGES = {stage.kind: stage for stage in (FlowStage, PoseStage)}


def config_to_dict(cfg: RunConfig) -> dict:
    return {"format": "config-v3", "mode": cfg.mode,
            "schedule": [{"kind": s.kind, "epochs": s.epochs} for s in cfg.schedule.stages],
            "pose": asdict(cfg.pose_params), "flow": asdict(cfg.flow_params)}


def config_from_dict(doc: dict, context: str = "config") -> RunConfig:
    if _require(doc, "format", context) != "config-v3":
        raise SchemaError(f"{context}: unsupported format {doc['format']!r}")
    known = config_to_dict(RunConfig())
    _known_fields(doc, known, context)
    for key, kind in (("schedule", list), ("pose", dict), ("flow", dict)):
        if not isinstance(_require(doc, key, context), kind):
            raise SchemaError(f"{context}: {key} must be a JSON "
                              f"{'array' if kind is list else 'object'}")
    try:
        stages = []
        for i, s in enumerate(doc["schedule"]):
            kind = _require(s, "kind", f"{context}: schedule[{i}]")
            _known_fields(s, known["schedule"][0], f"{context}: schedule[{i}]")
            if not isinstance(kind, str) or kind not in _STAGES:
                raise SchemaError(f"{context}: schedule[{i}]: unknown kind {kind!r}")
            stages.append(_STAGES[kind](_require(s, "epochs", f"{context}: schedule[{i}]")))
        return RunConfig(
            mode=_require(doc, "mode", context),
            schedule=CycleSchedule(tuple(stages)),
            pose_params=PoseHyperParams(**doc["pose"]),
            flow_params=FlowRefineParams(**doc["flow"]))
    except (InvalidInputError, TypeError, ValueError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def read_config(path) -> RunConfig:
    return config_from_dict(_load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# stage reports

def write_report(path, records) -> None:
    """Per-stage metrics report mirroring the pipeline log."""
    _write_json(path, {"format": "report-v1", "stages": [asdict(r) for r in records]})


__all__ = [
    "FLO_MAGIC", "RunConfig",
    "read_flo", "write_flo", "read_flow_dir", "write_flow_dir",
    "read_track", "write_track", "read_topology", "write_topology",
    "read_bundle", "write_bundle", "read_config",
    "config_to_dict", "config_from_dict", "write_report",
]
