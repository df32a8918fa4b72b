"""Span tracing of flowpose from outside the library.

Wrappers replace module attributes in the namespace where each caller looks
the function up (``flowpose.pipeline.refine_flow`` is the name the pipeline
calls, ``flowpose.flow_refine.adam_step`` the one the flow refiner calls),
so no library file changes.  Each wrapper records a span (name, start, end,
parent span, operation id) in memory and, where the layer does countable
work, adds exact work counts computed from the call's arguments and
result.  ``Tracer.restore`` puts every original attribute back and checks
that the library's module namespaces are identical to a snapshot taken
before the first wrapper went in, so untraced operations run the original
functions.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# The benchmark's root span around each traced operation.
OP_SPAN = "op"


class ModuleProxy:
    """Stands in for a module reference so its functions can be wrapped
    for one caller only (the CLI's ``fileio``)."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans plus per-operation work counts."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``count(counts, bound
        arguments, result)`` adds the call's work counts."""
        original = getattr(owner, attr)
        sig = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts[self.op], bound.arguments, result)
            return result

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def namespace_snapshot(modules) -> dict:
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def snapshot_matches(before: dict, modules) -> bool:
    after = namespace_snapshot(modules)
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


# ---------------------------------------------------------------------------
# work counters

def _count_objective(c, a, result):
    h, w = a["base_uv"].shape[:2]
    c["flow_refine.pixels"] += h * w


def _count_pose(c, a, result):
    track = a["pose_init"] if "pose_init" in a else a["x_init"]
    epochs = result[-1].shape[0]
    c["pose_refine.epochs"] += epochs
    c["pose_refine.joint_evals"] += epochs * track.frames * track.joints


def _count_raster(c, a, result):
    pixels = int(a["width"]) * int(a["height"])
    c["raster.pixels"] += pixels * len(a["topo"].bones)
    c["raster.image_px"] += pixels
    c["raster.mask_px"] += int(result.mask.sum())


def _count_drift(c, a, result):
    c["pipeline.drift_flags"] += sum(r.drift_warning for r in result[1])


def _scene_files(dirpath) -> list[Path]:
    """The files ``read_bundle`` reads and ``write_bundle`` writes."""
    d = Path(dirpath)
    names = ("meta.json", "topology.json", "detections.json", "pose.json", "camera.json")
    return [d / n for n in names if (d / n).exists()] + sorted((d / "flows").glob("*.flo"))


def _file_counter(direction: str, files_of):
    def count(c, a, result):
        files = files_of(a)
        c[f"fileio.bytes_{direction}"] += sum(f.stat().st_size for f in files)
        if direction == "written":
            c["fileio.files_written"] += len(files)
    return count


_READS = {
    "read_bundle": lambda a: _scene_files(a["dirpath"]),
    "read_track": lambda a: [Path(a["path"])],
    "read_topology": lambda a: [Path(a["path"])],
    "read_flow_dir": lambda a: sorted(Path(a["path"]).glob("*.flo")),
}
_WRITES = {
    "write_bundle": lambda a: _scene_files(a["dirpath"]),
    "write_report": lambda a: [Path(a["path"])],
}


def install(tracer: Tracer, fp) -> None:
    """Wrap every layer boundary of the flowpose modules in ``fp``."""
    cli, pipeline, synth = fp.cli, fp.pipeline, fp.synth
    w = tracer.wrap
    for owner in (pipeline, cli):
        w(owner, "bootstrap", "pipeline.bootstrap", _count_drift)
    w(pipeline, "refine_flow", "flow_refine.refine")
    w(pipeline, "refine_pose", "pose_refine.refine3d", _count_pose)
    w(pipeline, "refine_pose_2d", "pose_refine.refine2d", _count_pose)
    for owner in (pipeline, synth):
        w(owner, "bone_flow", "raster.bone_flow")
        w(owner, "compose_target_flow", "raster.compose")
    w(fp.raster, "rasterize_skeleton", "raster.rasterize", _count_raster)
    w(fp.flow_refine, "flow_objective", "flow_refine.objective", _count_objective)
    w(fp.flow_refine, "refiner_apply", "flow_refine.apply")
    for owner in (fp.flow_refine, fp.pose_refine):
        w(owner, "adam_step", "optim.adam")
    w(cli, "generate_scene", "synth.generate")
    w(cli, "perturb", "synth.perturb")
    for owner, names in ((pipeline, ("mpjpe", "sequence_joint_epe")),
                         (cli, ("mpjpe", "epe", "sequence_joint_epe"))):
        for name in names:
            w(owner, name, "synth.eval")
    proxy = ModuleProxy(fp.fileio)
    for name, files_of in _READS.items():
        w(proxy, name, "fileio.read", _file_counter("read", files_of))
    for name, files_of in _WRITES.items():
        w(proxy, name, "fileio.write", _file_counter("written", files_of))
    tracer.patch(cli, "fileio", proxy)


# ---------------------------------------------------------------------------
# per-operation summary

def summarize(tracer: Tracer) -> dict[int, dict]:
    """Per operation: total and self seconds and call count by span name."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[int, dict] = {}
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        s = out.setdefault(op, {"total": defaultdict(float), "self": defaultdict(float),
                                "calls": defaultdict(int)})
        s["total"][name] += end - start
        s["self"][name] += end - start - child[i]
        s["calls"][name] += 1
    return out


# (metric, unit, kind): "time" metrics are the median over traced
# operations, "count" metrics come from the first traced operation and
# repeat exactly for a given seed.
PER_LAYER = [
    ("flow_refine.objective_s", "s", "time"),
    ("flow_refine.objective_calls", "count", "count"),
    ("flow_refine.pixels", "count", "count"),
    ("flow_refine.apply_s", "s", "time"),
    ("flow_refine.refine_s", "s", "time"),
    ("flow_refine.self_s", "s", "time"),
    ("pose_refine.refine3d_s", "s", "time"),
    ("pose_refine.refine2d_s", "s", "time"),
    ("pose_refine.epochs", "count", "count"),
    ("pose_refine.joint_evals", "count", "count"),
    ("pose_refine.self_s", "s", "time"),
    ("optim.adam_s", "s", "time"),
    ("optim.adam_calls", "count", "count"),
    ("raster.bone_flow_s", "s", "time"),
    ("raster.bone_flow_calls", "count", "count"),
    ("raster.rasterize_s", "s", "time"),
    ("raster.compose_s", "s", "time"),
    ("raster.pixels", "count", "count"),
    ("raster.mask_frac", "ratio", "count"),
    ("synth.generate_s", "s", "time"),
    ("synth.perturb_s", "s", "time"),
    ("synth.eval_s", "s", "time"),
    ("fileio.read_s", "s", "time"),
    ("fileio.write_s", "s", "time"),
    ("fileio.bytes_read", "bytes", "count"),
    ("fileio.bytes_written", "bytes", "count"),
    ("fileio.files_written", "count", "count"),
    ("cli.synth_s", "s", "time"),
    ("cli.perturb_s", "s", "time"),
    ("cli.refine_pose_s", "s", "time"),
    ("cli.eval_s", "s", "time"),
    ("cli.self_s", "s", "time"),
    ("pipeline.bootstrap_s", "s", "time"),
    ("pipeline.self_s", "s", "time"),
    ("pipeline.drift_flags", "count", "count"),
]

CLI_SPANS = ("cli.synth", "cli.perturb", "cli.refine_pose", "cli.eval")


def layer_metrics(s: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    total, self_, calls = s["total"], s["self"], s["calls"]
    m = {
        "flow_refine.objective_s": total["flow_refine.objective"],
        "flow_refine.objective_calls": calls["flow_refine.objective"],
        "flow_refine.apply_s": total["flow_refine.apply"],
        "flow_refine.refine_s": total["flow_refine.refine"],
        "flow_refine.self_s": self_["flow_refine.refine"],
        "pose_refine.refine3d_s": total["pose_refine.refine3d"],
        "pose_refine.refine2d_s": total["pose_refine.refine2d"],
        "pose_refine.self_s": self_["pose_refine.refine3d"] + self_["pose_refine.refine2d"],
        "optim.adam_s": total["optim.adam"],
        "optim.adam_calls": calls["optim.adam"],
        "raster.bone_flow_s": total["raster.bone_flow"],
        "raster.bone_flow_calls": calls["raster.bone_flow"],
        "raster.rasterize_s": total["raster.rasterize"],
        "raster.compose_s": total["raster.compose"],
        "synth.generate_s": total["synth.generate"],
        "synth.perturb_s": total["synth.perturb"],
        "synth.eval_s": total["synth.eval"],
        "fileio.read_s": total["fileio.read"],
        "fileio.write_s": total["fileio.write"],
        "cli.synth_s": total["cli.synth"],
        "cli.perturb_s": total["cli.perturb"],
        "cli.refine_pose_s": total["cli.refine_pose"],
        "cli.eval_s": total["cli.eval"],
        "cli.self_s": sum(self_[n] for n in CLI_SPANS),
        "pipeline.bootstrap_s": total["pipeline.bootstrap"],
        "pipeline.self_s": self_["pipeline.bootstrap"],
    }
    for key in ("flow_refine.pixels", "pose_refine.epochs", "pose_refine.joint_evals",
                "raster.pixels", "fileio.bytes_read", "fileio.bytes_written",
                "fileio.files_written", "pipeline.drift_flags"):
        m[key] = counts.get(key, 0.0)
    image_px = counts.get("raster.image_px", 0.0)
    m["raster.mask_frac"] = counts.get("raster.mask_px", 0.0) / image_px if image_px else 0.0
    return m


def per_layer(tracer: Tracer, traced_ops: list[int]) -> dict[str, float]:
    """Times as medians over ``traced_ops``; counts from the first of them."""
    summary = summarize(tracer)
    per_op = [layer_metrics(summary[op], tracer.counts[op]) for op in traced_ops]
    kinds = {name: kind for name, _, kind in PER_LAYER}
    return {name: (statistics.median(m[name] for m in per_op) if kinds[name] == "time"
                   else per_op[0][name])
            for name in kinds}
