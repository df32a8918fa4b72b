"""Orchestration of the alternating flow/pose refinement cycles.

A schedule is an ordered list of stages.  A flow stage rebuilds the target
flow of every frame pair from the current pose (projected joints in 3-D
mode, the current 2-D track otherwise) and refines each field toward it; a
pose stage refines the pose (or the 2-D track) against the current flows.
Stage outputs feed the next stage; the bundle itself is never mutated.

When ground truth is attached, the per-stage log carries the pose and flow
errors after every stage and flags stages that made the logged error worse
(the drift that appears when bootstrapping continues past its useful
point).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import MODE_2D, MODE_3D, SceneBundle, _count, project_track
from .flow_refine import FlowRefineParams, refine_flow
from .pose_refine import PoseHyperParams, refine_pose, refine_pose_2d
from .raster import bone_flow, compose_target_flow
from .synth import GroundTruthBundle, mpjpe, sequence_joint_epe


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
        object.__setattr__(self, "stages", tuple(self.stages))
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


def _pose_error(mode, pose, pose2d, gt: GroundTruthBundle) -> float:
    if mode == MODE_3D:
        return mpjpe(pose, gt.scene.pose)
    diff = pose2d.pixels - gt.scene.detections.pixels
    return float(np.linalg.norm(diff, axis=-1).mean())


def bootstrap(bundle: SceneBundle, schedule: CycleSchedule | None = None,
              hp: PoseHyperParams | None = None,
              flow_params: FlowRefineParams | None = None,
              gt: GroundTruthBundle | None = None):
    """Run the refinement schedule on a scene; returns ``(bundle, records)``.

    Flow stages carry their state forward: each one further refines the
    current flow fields toward sketches built from the latest pose.  Pose
    stages are re-derived per cycle: every pose stage starts from and
    anchors to the bundle's original estimates, optimizing against the
    current flows (so cross-cycle drift enters through the accumulating
    flow refinement, not through compounding pose updates).  Flow stages
    pass ``flow_params`` to ``refine_flow`` and draw overlays at its
    ``radius``.  An empty schedule returns the bundle unchanged.
    """
    schedule = schedule if schedule is not None else CycleSchedule.default(bundle.mode)
    hp = hp or PoseHyperParams()
    fp = flow_params or FlowRefineParams()
    if not schedule.stages:
        return bundle, []

    topo = bundle.topology
    frames = bundle.frames
    flows = list(bundle.flows)
    pose, camera = bundle.pose, bundle.camera
    observations = bundle.detections
    pose2d = bundle.detections

    prev_mpjpe = prev_epe = None
    if gt is not None:
        prev_mpjpe = _pose_error(bundle.mode, pose, pose2d, gt)
        prev_epe = sequence_joint_epe(flows, gt.scene.flows, gt.joints2d)

    records: list[StageRecord] = []
    for idx, stage in enumerate(schedule.stages):
        kind = stage.kind
        try:
            if kind == "flow":
                if bundle.mode == MODE_3D:
                    joints2d = project_track(pose, camera)
                else:
                    joints2d = pose2d.pixels
                finals = []
                for i in range(frames - 1):
                    sparse, mask = bone_flow(joints2d[i], joints2d[i + 1], topo,
                                             bundle.width, bundle.height, fp.radius)
                    target = compose_target_flow(flows[i], sparse, mask)
                    flows[i], losses = refine_flow(flows[i], target, stage.epochs, fp)
                    if losses.size:
                        finals.append(losses[-1])
                final_loss = float(np.mean(finals)) if finals else None
            else:
                if bundle.mode == MODE_3D:
                    pose, camera, history = refine_pose(
                        bundle.pose, bundle.camera, observations, flows,
                        topo, hp, stage.epochs)
                else:
                    pose2d, history = refine_pose_2d(
                        bundle.detections, observations, flows, topo, hp, stage.epochs)
                final_loss = float(history[-1, 0]) if history.size else None
        except NumericalError as exc:
            raise NumericalError(f"stage {idx} ({kind}): {exc}") from exc

        record = StageRecord(index=idx, kind=kind, epochs=stage.epochs,
                             final_loss=final_loss)
        if gt is not None:
            record.mpjpe = _pose_error(bundle.mode, pose, pose2d, gt)
            record.epe = sequence_joint_epe(flows, gt.scene.flows, gt.joints2d)
            own_metric, prev = ((record.epe, prev_epe) if kind == "flow"
                                else (record.mpjpe, prev_mpjpe))
            if prev is not None and own_metric > prev + 1e-12:
                record.drift_warning = True
                warnings.warn(
                    f"stage {idx} ({kind}) increased the {('flow error' if kind == 'flow' else 'pose error')} "
                    f"from {prev:.6g} to {own_metric:.6g}; the schedule may be "
                    f"drifting past its useful length", RuntimeWarning,
                    stacklevel=2)
            prev_mpjpe, prev_epe = record.mpjpe, record.epe
        records.append(record)

    out = replace(bundle, flows=tuple(flows), pose=pose, camera=camera,
                  detections=pose2d if bundle.mode == MODE_2D else bundle.detections)
    return out, records
