"""Orchestration of the alternating flow/pose refinement cycles.

A schedule is an ordered list of stages, and each stage kind runs in its own
function.  ``_flow_stage`` rebuilds the target flow of every frame pair from
the current pose (projected joints in 3-D mode, the current 2-D track
otherwise) and refines each field toward it; ``_pose_stage`` refines the pose
(or the 2-D track) against the current flows.  Each returns the new scene and
the stage's facts; the bundle itself is never mutated.

When ground truth is attached, the per-stage log carries the pose and flow
errors after every stage and flags stages that made the logged error worse
(the drift that appears when bootstrapping continues past its useful point).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import MODE_3D, SceneBundle, _count, _numbers, _of_class, project_track
from .flow_refine import FlowRefineParams, refine_flow
from .pose_refine import PoseHyperParams, refine_pose, refine_pose_2d
from .raster import bone_flow, compose_target_flow
from .synth import GroundTruthBundle, joint2d_error, mpjpe, sequence_joint_epe


@dataclass(frozen=True)
class _Stage:
    """One schedule stage: its ``kind`` tag and its epoch budget."""

    kind: ClassVar[str]
    epochs: int

    def __post_init__(self):
        object.__setattr__(self, "epochs", _count(self.epochs, "stage epochs"))


class FlowStage(_Stage):
    kind: ClassVar[str] = "flow"


class PoseStage(_Stage):
    kind: ClassVar[str] = "pose"


@dataclass(frozen=True)
class CycleSchedule:
    """Ordered refinement stages, each with its own epoch budget."""

    stages: tuple[FlowStage | PoseStage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", _numbers(self.stages, None, "stages", each=lambda s, _: s))
        for s in self.stages:
            if not isinstance(s, (FlowStage, PoseStage)):
                raise InvalidInputError(f"unknown stage type {type(s).__name__}")

    @staticmethod
    def default(mode: str = MODE_3D) -> "CycleSchedule":
        """Flow, pose, flow: the flow budget is 8 in 3-D mode, 50 in 2-D mode."""
        e = 8 if mode == MODE_3D else 50
        return CycleSchedule((FlowStage(e), PoseStage(1500), FlowStage(e)))


@dataclass
class StageRecord:
    """Log entry for one executed stage.

    ``mpjpe`` is the pose error against ground truth (meters in 3-D mode,
    pixels in 2-D mode) and ``epe`` the joint-restricted flow error in
    pixels; both are ``None`` without attached ground truth.  ``final_loss``
    is the stage's last objective value (``None`` for zero-epoch stages).
    """

    index: int
    kind: str
    epochs: int
    final_loss: float | None
    mpjpe: float | None = None
    epe: float | None = None
    drift_warning: bool = False


def _errors(scene: SceneBundle, gt: GroundTruthBundle) -> dict[str, float]:
    """The scene's pose and joint-flow errors against ground truth, by stage kind."""
    pose = (mpjpe(scene.pose, gt.scene.pose) if scene.mode == MODE_3D
            else joint2d_error(scene.detections, gt.scene.detections))
    return {"pose": pose, "flow": sequence_joint_epe(scene.flows, gt.scene.flows, gt.joints2d)}


def _flow_stage(scene: SceneBundle, stage: FlowStage, fp: FlowRefineParams):
    """Refine each flow toward a sketch drawn at ``fp.radius`` from the current
    pose: the projected joints in 3-D mode, the current track in 2-D mode."""
    joints2d = (project_track(scene.pose, scene.camera) if scene.mode == MODE_3D
                else scene.detections.pixels)
    flows, finals = [], []
    for i, flow in enumerate(scene.flows):
        sparse, mask = bone_flow(joints2d[i], joints2d[i + 1], scene.topology,
                                 scene.width, scene.height, fp.radius)
        flow, losses = refine_flow(flow, compose_target_flow(flow, sparse, mask),
                                   stage.epochs, fp)
        flows.append(flow)
        finals.extend(losses[-1:])
    return replace(scene, flows=flows), {"final_loss": float(np.mean(finals)) if finals else None}


def _pose_stage(scene: SceneBundle, bundle: SceneBundle, stage: PoseStage, hp):
    """Refine ``bundle``'s pose (its track in 2-D mode) against the current flows."""
    if scene.mode == MODE_3D:
        pose, camera, history = refine_pose(bundle.pose, bundle.camera, bundle.detections,
                                            scene.flows, scene.topology, hp, stage.epochs)
        scene = replace(scene, pose=pose, camera=camera)
    else:
        track, history = refine_pose_2d(bundle.detections, bundle.detections, scene.flows,
                                        scene.topology, hp, stage.epochs)
        scene = replace(scene, detections=track)
    return scene, {"final_loss": float(history[-1, 0]) if history.size else None}


def bootstrap(bundle: SceneBundle, schedule: CycleSchedule | None = None,
              hp: PoseHyperParams | None = None,
              flow_params: FlowRefineParams | None = None,
              gt: GroundTruthBundle | None = None):
    """Run the refinement schedule on a scene; returns ``(scene, records)``.

    One running scene starts as ``bundle``, and each stage replaces what it
    refines: a flow stage the ``flows``, a 3-D pose stage the ``pose`` and
    ``camera``, a 2-D pose stage the ``detections``.  So each flow stage
    further refines the current flows toward sketches built from the latest
    pose, while every pose stage starts from and anchors to ``bundle``'s
    original estimates, optimizing against the current flows (cross-cycle
    drift enters through the accumulating flow refinement, not through
    compounding pose updates).  Flow stages pass ``flow_params`` to
    ``refine_flow`` and draw overlays at its ``radius``.  An empty schedule
    returns ``bundle`` itself.  An argument of the wrong class raises ``TypeError``.
    """
    bundle = _of_class(bundle, SceneBundle, "bundle")
    schedule = _of_class(schedule, CycleSchedule, "schedule", CycleSchedule.default(bundle.mode))
    hp = _of_class(hp, PoseHyperParams, "hp", None)
    fp = _of_class(flow_params, FlowRefineParams, "flow_params", FlowRefineParams())
    gt = _of_class(gt, GroundTruthBundle, "gt", None)
    if not schedule.stages:
        return bundle, []
    if gt is not None and bundle.mode == MODE_3D and gt.scene.pose is None:
        raise InvalidInputError("a 3d run needs ground truth with a pose track")

    scene = bundle
    before = _errors(scene, gt) if gt is not None else None
    records: list[StageRecord] = []
    for idx, stage in enumerate(schedule.stages):
        kind = stage.kind
        try:
            scene, facts = (_flow_stage(scene, stage, fp) if kind == "flow"
                            else _pose_stage(scene, bundle, stage, hp))
        except NumericalError as exc:
            raise NumericalError(f"stage {idx} ({kind}): {exc}") from exc
        record = StageRecord(index=idx, kind=kind, epochs=stage.epochs, **facts)
        if gt is not None:
            after = _errors(scene, gt)
            record.mpjpe, record.epe = after["pose"], after["flow"]
            if after[kind] > before[kind] + 1e-12:
                record.drift_warning = True
                warnings.warn(f"stage {idx} ({kind}) increased the {kind} error from "
                              f"{before[kind]:.6g} to {after[kind]:.6g}; the schedule may be "
                              "drifting past its useful length", RuntimeWarning, stacklevel=2)
            before = after
        records.append(record)
    return scene, records
