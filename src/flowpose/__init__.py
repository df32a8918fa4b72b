"""Alternating inference-time refinement of human optical flow and pose.

Flow fields are refined toward targets built by overlaying rasterized
skeleton motion on the current estimate; poses are refined against the
current flow, detections and temporal consistency.  A synthetic benchmark
with exact ground truth drives the quantitative checks.
"""

from .errors import FormatError, InvalidInputError, NumericalError, SchemaError
from .geometry import (EVAL_JOINTS_14, MODE_2D, MODE_3D, CameraTrack,
                       DetectionTrack, FlowField, PoseTrack, SceneBundle,
                       SkeletonTopology, average_tracks, default_topology,
                       project_track)
from .optim import finite_diff_check
from .raster import BoneRaster, bone_flow, compose_target_flow, rasterize_skeleton
from .flow_refine import FlowRefineParams, refine_flow
from .pose_refine import PoseHyperParams, refine_pose, refine_pose_2d
from .pipeline import CycleSchedule, FlowStage, PoseStage, StageRecord, bootstrap
from .synth import (GroundTruthBundle, NoiseConfig, epe, generate_scene,
                    mpjpe, perturb, sequence_joint_epe, standard_benchmark)

__version__ = "0.1.0"

__all__ = [
    "FormatError", "InvalidInputError", "NumericalError", "SchemaError",
    "EVAL_JOINTS_14", "MODE_2D", "MODE_3D", "CameraTrack", "DetectionTrack",
    "FlowField", "PoseTrack", "SceneBundle", "SkeletonTopology",
    "average_tracks", "default_topology", "project_track",
    "finite_diff_check",
    "BoneRaster", "bone_flow", "compose_target_flow", "rasterize_skeleton",
    "refine_flow",
    "PoseHyperParams", "refine_pose", "refine_pose_2d",
    "CycleSchedule", "FlowRefineParams", "FlowStage", "PoseStage",
    "StageRecord", "bootstrap",
    "GroundTruthBundle", "NoiseConfig", "epe", "generate_scene", "mpjpe",
    "perturb", "sequence_joint_epe", "standard_benchmark",
    "__version__",
]
