import json
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowpose import (CameraTrack, DetectionTrack, FlowField, FormatError,
                      InvalidInputError, PoseTrack, SchemaError, default_topology)
from flowpose import fileio
from flowpose.fileio import (RunConfig, _dump_json, config_from_dict, config_to_dict,
                             read_bundle, read_config, read_flo, read_topology,
                             read_track, write_bundle, write_flo, write_topology,
                             write_track)
from flowpose.pipeline import FlowStage, PoseStage
from flowpose.synth import generate_scene


def test_flo_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(5):
        uv = rng.normal(scale=10, size=(7, 9, 2)).astype(np.float32).astype(np.float64)
        path = tmp_path / f"f{i}.flo"
        write_flo(path, FlowField(uv))
        back = read_flo(path)
        assert np.array_equal(back.uv, uv)
        # byte-level: write(read(file)) reproduces the file exactly
        blob = path.read_bytes()
        write_flo(tmp_path / "again.flo", back)
        assert (tmp_path / "again.flo").read_bytes() == blob


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(uv=st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda hw: arrays(np.float32, hw + (2,),
                      elements=st.floats(allow_nan=False, allow_infinity=False,
                                         width=32))))
@example(uv=np.zeros((1, 1, 2), np.float32))
def test_flo_roundtrip_property(tmp_path_factory, uv):
    # every float32 value, signed zeros included, survives bit for bit
    d = tmp_path_factory.mktemp("flo")
    write_flo(d / "a.flo", FlowField(uv.astype(np.float64)))
    back = read_flo(d / "a.flo")
    assert back.uv.tobytes() == uv.astype(np.float64).tobytes()
    write_flo(d / "b.flo", back)
    assert (d / "b.flo").read_bytes() == (d / "a.flo").read_bytes()


@st.composite
def _tracks(draw):
    """``(kind, args)`` of a track; frames or joints may be zero."""
    frames = draw(st.integers(0, 4))
    joints = draw(st.integers(0, 5))
    kind = draw(st.sampled_from([PoseTrack, CameraTrack, DetectionTrack]))
    if kind is PoseTrack:
        return kind, (draw(arrays(np.float64, (frames, joints, 3), elements=_FINITE)),)
    if kind is CameraTrack:
        params = draw(arrays(np.float64, (frames, 3), elements=_FINITE))
        params[:, 0] = draw(arrays(np.float64, frames, elements=st.floats(
            min_value=0.0, exclude_min=True, allow_infinity=False)))
        return kind, (params,)
    return kind, (draw(arrays(np.float64, (frames, joints, 2), elements=_FINITE)),
                  draw(arrays(np.float64, (frames, joints), elements=st.floats(0.0, 1.0))))


@settings(max_examples=60, deadline=None)
@given(case=_tracks())
def test_track_roundtrip_property(tmp_path_factory, case):
    kind, args = case
    if args[0].size == 0:
        # an empty track is rejected up front, so it is never written
        with pytest.raises(InvalidInputError):
            kind(*args)
        return
    track = kind(*args)
    path = tmp_path_factory.mktemp("track") / "t.json"
    write_track(path, track)
    back, _ = read_track(path)
    assert type(back) is type(track)
    for f in fields(track):
        assert getattr(back, f.name).tobytes() == getattr(track, f.name).tobytes()


def test_flo_1x1_file_is_20_bytes(tmp_path):
    path = tmp_path / "tiny.flo"
    write_flo(path, FlowField(np.zeros((1, 1, 2))))
    data = path.read_bytes()
    assert len(data) == 20
    assert struct.unpack("<f", data[:4])[0] == struct.unpack("<f", struct.pack("<f", 202021.25))[0]
    assert struct.unpack("<ii", data[4:12]) == (1, 1)


@pytest.mark.filterwarnings("error")
def test_flo_refuses_a_value_float32_cannot_hold(tmp_path):
    # a value that rounds to float32's largest is kept; one that rounds past
    # it would read back as infinity, so no file of the directory is written
    edge = 2.0**128 - 2.0**103
    write_flo(tmp_path / "max.flo", FlowField(np.full((1, 1, 2), np.nextafter(edge, 0))))
    assert read_flo(tmp_path / "max.flo").uv.max() == np.finfo(np.float32).max
    flows = [FlowField(np.zeros((2, 2, 2))), FlowField(np.full((2, 2, 2), -edge))]
    with pytest.raises(InvalidInputError,
                       match=r"flow_000001\.flo: flow value beyond float32 range$"):
        fileio.write_flow_dir(tmp_path / "flows", flows)
    assert not (tmp_path / "flows").exists()


def test_flo_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(struct.pack("<f", 123.25) + struct.pack("<ii", 1, 1) + b"\0" * 8)
    with pytest.raises(FormatError) as exc:
        read_flo(path)
    assert exc.value.offset == 0


def test_flo_holding_nan_rejected(tmp_path):
    path = tmp_path / "nan.flo"
    path.write_bytes(struct.pack("<f", fileio.FLO_MAGIC) + struct.pack("<ii", 2, 1)
                     + np.array([0.0, 1.0, np.nan, 2.0], "<f4").tobytes())
    with pytest.raises(FormatError, match="nan.flo: uv: non-finite value at index"):
        read_flo(path)


def test_write_track_refuses_a_flow_field(tmp_path):
    with pytest.raises(InvalidInputError, match="^unsupported track type FlowField$"):
        write_track(tmp_path / "flow.json", FlowField(np.zeros((2, 2, 2))))
    assert not (tmp_path / "flow.json").exists()


def test_flo_truncation_rejected(tmp_path):
    good = tmp_path / "good.flo"
    write_flo(good, FlowField(np.ones((3, 4, 2))))
    blob = good.read_bytes()
    for cut in (2, 8, len(blob) - 5):
        bad = tmp_path / "cut.flo"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_flo(bad)
    with pytest.raises(FormatError):
        read_flo(tmp_path / "missing.flo")


def test_flo_bad_dimensions_rejected(tmp_path):
    path = tmp_path / "dims.flo"
    path.write_bytes(struct.pack("<f", 202021.25) + struct.pack("<ii", -3, 2))
    with pytest.raises(FormatError) as exc:
        read_flo(path)
    assert exc.value.offset == 4


def test_track_roundtrips(tmp_path):
    rng = np.random.default_rng(1)
    pose = PoseTrack(rng.normal(size=(3, 4, 3)))
    cam = CameraTrack(np.abs(rng.normal(size=(3, 3))) + np.array([1.0, 0, 0]))
    det = DetectionTrack(rng.normal(size=(3, 4, 2)), rng.uniform(size=(3, 4)))
    for name, track in (("p", pose), ("c", cam), ("d", det)):
        path = tmp_path / f"{name}.json"
        write_track(path, track)
        back, units = read_track(path)
        assert type(back) is type(track)
        if isinstance(track, PoseTrack):
            assert np.array_equal(back.positions, track.positions)
            assert units == "meters"
        elif isinstance(track, CameraTrack):
            assert np.array_equal(back.params, track.params)
        else:
            assert np.array_equal(back.pixels, track.pixels)
            assert np.array_equal(back.confidence, track.confidence)


def test_track_units_preserved_verbatim(tmp_path):
    pose = PoseTrack(np.zeros((1, 1, 3)))
    path = tmp_path / "p.json"
    write_track(path, pose, units="meters")
    _, units = read_track(path)
    assert units == "meters"
    write_track(path, pose, units="furlongs per fortnight")
    _, units = read_track(path)
    assert units == "furlongs per fortnight"


def test_detection_track_missing_confidence_named(tmp_path):
    path = tmp_path / "d.json"
    doc = {"format": "track-v1", "kind": "detections", "units": "pixels",
           "frames": 1, "joints": 1, "pixels": [[[0.0, 0.0]]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="confidence"):
        read_track(path)


def test_track_schema_errors(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        read_track(path)
    path.write_text(json.dumps({"format": "track-v1", "kind": "orbit",
                                "units": "x", "frames": 1}))
    with pytest.raises(SchemaError, match="orbit"):
        read_track(path)
    doc = {"format": "track-v1", "kind": "pose", "units": "meters",
           "frames": 2, "joints": 1, "positions": [[[0.0, 0.0, 0.0]]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="positions"):
        read_track(path)
    doc = {"format": "track-v1", "kind": "detections", "units": "pixels",
           "frames": 1, "joints": 1, "pixels": [[[0.0, 0.0]]],
           "confidence": [[1.5]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"confidence\[0\]\[0\]"):
        read_track(path)
    # an integer too large for a float is no number
    path.write_text(json.dumps({**doc, "kind": "pose", "units": "meters"}).replace(
        '"pixels": [[[0.0, 0.0]]]', '"positions": [[[1' + "0" * 400 + ', 0.0, 0.0]]]'))
    with pytest.raises(SchemaError, match="'positions' is not a numeric array"):
        read_track(path)


def test_topology_roundtrip(tmp_path):
    topo = default_topology(eval_subset=(1, 2, 3))
    path = tmp_path / "topo.json"
    write_topology(path, topo)
    back = read_topology(path)
    assert back.joint_count == topo.joint_count
    assert back.bones == topo.bones
    assert back.names == topo.names
    assert back.eval_subset == (1, 2, 3)


def test_bundle_roundtrip(tmp_path):
    gt = generate_scene(seed=30, frames=3, width=32, height=32)
    d = tmp_path / "scene"
    write_bundle(d, gt.scene)
    back = read_bundle(d)
    assert back.mode == "3d"
    assert np.array_equal(back.pose.positions, gt.scene.pose.positions)
    assert np.array_equal(back.camera.params, gt.scene.camera.params)
    assert np.array_equal(back.detections.pixels, gt.scene.detections.pixels)
    assert len(back.flows) == 2
    for fa, fb in zip(back.flows, gt.scene.flows):
        # .flo stores float32; the regenerated values match at that precision
        assert np.array_equal(fa.uv, fb.uv.astype(np.float32).astype(np.float64))


def test_config_defaults_match_shipping_settings():
    cfg = RunConfig()
    doc = config_to_dict(cfg)
    assert doc["format"] == "config-v3"
    assert doc["pose"] == {"lam_opt": 0.01, "lam_3d": 400.0, "lam_2d": 0.01,
                           "lam_pos": 300.0, "lam_cam": 0.1, "lam_bone": 1e4,
                           "lr": 0.001}
    assert doc["flow"] == {"stride": 8, "sigma": 1.0, "lr": 0.05, "radius": 15}
    assert doc["schedule"] == [{"kind": "flow", "epochs": 8},
                               {"kind": "pose", "epochs": 1500},
                               {"kind": "flow", "epochs": 8}]
    two_d = RunConfig(mode="2d")
    assert config_to_dict(two_d)["schedule"][0] == {"kind": "flow", "epochs": 50}


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(mode="2d")
    path = tmp_path / "cfg.json"
    path.write_text(_dump_json(config_to_dict(cfg)))
    back = read_config(path)
    assert back.mode == "2d"
    assert back.schedule.stages == cfg.schedule.stages
    assert back.pose_params == cfg.pose_params
    assert back.flow_params == cfg.flow_params


def test_config_schema_errors():
    with pytest.raises(SchemaError):
        config_from_dict({"format": "nope"})
    with pytest.raises(SchemaError, match="unknown kind"):
        config_from_dict({"format": "config-v3", "mode": "3d",
                          "schedule": [{"kind": "warp", "epochs": 1}],
                          "pose": {}, "flow": {}})


@pytest.mark.parametrize("edit, message", [
    ({"sede": 1}, "unknown field 'sede'"),
    ({"schedule": [{"kind": "pose", "epochs": 1, "epocs": 99}]},
     r"schedule\[0\]: unknown field 'epocs'"),
], ids=["unknown-field", "unknown-stage-field"])
def test_config_rejects_fields_it_does_not_write(edit, message):
    # the fields config_to_dict writes are the only ones a config may hold
    with pytest.raises(SchemaError, match=message):
        config_from_dict({**config_to_dict(RunConfig()), **edit})


def test_a_run_config_holds_no_seed():
    # a bootstrap draws no random number, so a run has no seed to set
    with pytest.raises(TypeError, match="seed"):
        RunConfig(seed=1)


def test_atomic_write_failure_leaves_no_output(tmp_path, monkeypatch):
    target = tmp_path / "out.flo"

    def boom(src, dst):
        raise OSError("disk full")

    import os
    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        write_flo(target, FlowField(np.zeros((2, 2, 2))))
    monkeypatch.undo()
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # temp file cleaned up


def test_write_report(tmp_path):
    from flowpose.pipeline import StageRecord
    records = [StageRecord(index=0, kind="flow", epochs=8, final_loss=0.5,
                           mpjpe=0.01, epe=1.5, drift_warning=False)]
    path = tmp_path / "report.json"
    fileio.write_report(path, records)
    doc = json.loads(path.read_text())
    assert doc["format"] == "report-v1"
    assert doc["stages"][0]["kind"] == "flow"
    assert doc["stages"][0]["epe"] == 1.5


# ---------------------------------------------------------------------------
# format pins: the exact bytes of each record format, so that a reordered or
# renamed key fails here and not only in a downstream reader

_POSE_1x1 = '''{
  "format": "track-v1",
  "kind": "pose",
  "units": "meters",
  "frames": 1,
  "joints": 1,
  "positions": [
    [
      [
        1.0,
        -2.0,
        0.5
      ]
    ]
  ]
}
'''

_CAMERA_1 = '''{
  "format": "track-v1",
  "kind": "camera",
  "units": "pixels",
  "frames": 1,
  "params": [
    [
      2.0,
      3.0,
      4.0
    ]
  ]
}
'''

_DETECTIONS_1x1 = '''{
  "format": "track-v1",
  "kind": "detections",
  "units": "pixels",
  "frames": 1,
  "joints": 1,
  "pixels": [
    [
      [
        5.0,
        6.0
      ]
    ]
  ],
  "confidence": [
    [
      0.25
    ]
  ]
}
'''

_REPORT = '''{
  "format": "report-v1",
  "stages": [
    {
      "index": 0,
      "kind": "flow",
      "epochs": 8,
      "final_loss": 0.5,
      "mpjpe": null,
      "epe": 1.5,
      "drift_warning": true
    }
  ]
}
'''

_CONFIG_3D = '''{
  "format": "config-v3",
  "mode": "3d",
  "schedule": [
    {
      "kind": "flow",
      "epochs": 8
    },
    {
      "kind": "pose",
      "epochs": 1500
    },
    {
      "kind": "flow",
      "epochs": 8
    }
  ],
  "pose": {
    "lam_opt": 0.01,
    "lam_3d": 400.0,
    "lam_2d": 0.01,
    "lam_pos": 300.0,
    "lam_cam": 0.1,
    "lam_bone": 10000.0,
    "lr": 0.001
  },
  "flow": {
    "stride": 8,
    "sigma": 1.0,
    "lr": 0.05,
    "radius": 15
  }
}
'''

_CONFIG_2D = (_CONFIG_3D.replace('"mode": "3d"', '"mode": "2d"')
              .replace('"epochs": 8\n', '"epochs": 50\n'))


@pytest.mark.parametrize("track, text", [
    (PoseTrack([[[1.0, -2.0, 0.5]]]), _POSE_1x1),
    (CameraTrack([[2.0, 3.0, 4.0]]), _CAMERA_1),
    (DetectionTrack([[[5.0, 6.0]]], [[0.25]]), _DETECTIONS_1x1),
], ids=["pose", "camera", "detections"])
def test_track_file_format_is_pinned(tmp_path, track, text):
    write_track(tmp_path / "t.json", track)
    assert (tmp_path / "t.json").read_bytes() == text.encode()


def test_report_file_format_is_pinned(tmp_path):
    from flowpose.pipeline import StageRecord
    record = StageRecord(index=0, kind="flow", epochs=8, final_loss=0.5, epe=1.5,
                         drift_warning=True)
    fileio.write_report(tmp_path / "report.json", [record])
    assert (tmp_path / "report.json").read_bytes() == _REPORT.encode()


@pytest.mark.parametrize("mode, text", [
    ([], _CONFIG_3D), (["--mode", "3d"], _CONFIG_3D), (["--mode", "2d"], _CONFIG_2D),
], ids=["default", "3d", "2d"])
def test_print_config_format_is_pinned(capsys, mode, text):
    from flowpose.cli import main
    assert main(["bootstrap", "--print-config", *mode]) == 0
    assert capsys.readouterr().out == text
