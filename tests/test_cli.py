import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowpose.cli import main
from flowpose import SkeletonTopology, fileio
from flowpose.synth import generate_scene, joint2d_error


def _synth(tmp_path, name="gt", seed=30, frames=3, size=32):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--seed", str(seed),
                 "--frames", str(frames), "--width", str(size),
                 "--height", str(size)]) == 0
    return out


def test_synth_perturb_eval_roundtrip(tmp_path, capsys):
    gt = _synth(tmp_path)
    noisy = tmp_path / "noisy"
    assert main(["perturb", "--in", str(gt), "--out", str(noisy),
                 "--pose-sigma", "0.02", "--det-sigma", "0.5",
                 "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "MPJPE (mm)  all     0.000000" in out
    assert "EPE (px)    all     0.000000" in out
    assert main(["eval", "--pred", str(noisy), "--gt", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "0.000000" not in out.splitlines()[0]


def test_bootstrap_empty_schedule_outputs_equal_inputs(tmp_path):
    gt = _synth(tmp_path)
    cfg = fileio.RunConfig(schedule=__import__("flowpose").CycleSchedule(()))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(fileio._dump_json(fileio.config_to_dict(cfg)))
    out = tmp_path / "out"
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(out)]) == 0
    for name in ("pose.json", "camera.json", "detections.json",
                 "topology.json", "meta.json"):
        assert (out / name).read_bytes() == (gt / name).read_bytes()
    for flo in sorted((gt / "flows").glob("*.flo")):
        assert (out / "flows" / flo.name).read_bytes() == flo.read_bytes()
    report = json.loads((out / "report.json").read_text())
    assert report["stages"] == []


def test_bootstrap_short_schedule_and_report(tmp_path, capsys):
    gt = _synth(tmp_path)
    noisy = tmp_path / "noisy"
    main(["perturb", "--in", str(gt), "--out", str(noisy),
          "--pose-sigma", "0.02", "--seed", "3"])
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["schedule"] = [{"kind": "flow", "epochs": 2},
                       {"kind": "pose", "epochs": 50}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(noisy),
                 "--out", str(out), "--gt", str(gt)]) == 0
    printed = capsys.readouterr().out
    assert "stage 0 flow" in printed and "stage 1 pose" in printed
    report = json.loads((out / "report.json").read_text())
    assert len(report["stages"]) == 2
    assert report["stages"][1]["mpjpe"] is not None


def test_refine_flow_and_pose_commands(tmp_path):
    gt = _synth(tmp_path)
    noisy = tmp_path / "noisy"
    main(["perturb", "--in", str(gt), "--out", str(noisy),
          "--pose-sigma", "0.01", "--seed", "5"])
    out1 = tmp_path / "rf"
    assert main(["refine-flow", "--in", str(noisy), "--out", str(out1),
                 "--epochs", "2"]) == 0
    assert (out1 / "flows" / "flow_000000.flo").exists()
    out2 = tmp_path / "rp"
    assert main(["refine-pose", "--in", str(noisy), "--out", str(out2),
                 "--epochs", "20"]) == 0
    pose, _ = fileio.read_track(out2 / "pose.json")
    assert pose.frames == 3


def test_avg_tracks_and_flow_dirs(tmp_path):
    gt = _synth(tmp_path, name="a", seed=1)
    gt2 = _synth(tmp_path, name="b", seed=2)
    out = tmp_path / "avg.json"
    assert main(["avg", str(gt / "pose.json"), str(gt2 / "pose.json"),
                 "--out", str(out)]) == 0
    a, _ = fileio.read_track(gt / "pose.json")
    b, _ = fileio.read_track(gt2 / "pose.json")
    avg, _ = fileio.read_track(out)
    assert np.array_equal(avg.positions, (a.positions + b.positions) / 2)
    flow_out = tmp_path / "avgflows"
    assert main(["avg", str(gt / "flows"), str(gt2 / "flows"),
                 "--out", str(flow_out)]) == 0
    fa = fileio.read_flo(gt / "flows" / "flow_000000.flo")
    fb = fileio.read_flo(gt2 / "flows" / "flow_000000.flo")
    got = fileio.read_flo(flow_out / "flow_000000.flo")
    want = ((fa.uv + fb.uv) / 2).astype(np.float32).astype(np.float64)
    assert np.array_equal(got.uv, want)


def test_usage_error_exit_2(tmp_path):
    assert main(["synth"]) == 2  # missing --out
    assert main(["no-such-command"]) == 2
    assert main(["bootstrap", "--in", "x"]) == 2  # no output dir


def test_format_error_exit_3(tmp_path):
    gt = _synth(tmp_path)
    flo = next((gt / "flows").glob("*.flo"))
    flo.write_bytes(b"\x00" * 16)
    out = tmp_path / "out"
    assert main(["bootstrap", "--in", str(gt), "--out", str(out)]) == 3
    assert main(["eval", "--pred", str(tmp_path / "missing"),
                 "--gt", str(gt)]) == 3


@pytest.mark.parametrize("name, pattern, replacement", [
    ("meta.json", r'"width": \d+', '"width": "abc"'),
    ("meta.json", r"(?s).*", "16"),
    ("pose.json", r"(?s).*", "16"),
    ("topology.json", r'"joint_count": \d+', '"joint_count": 1e400'),
    ("meta.json", r'"frames": \d+', '"frames": 2'),
    ("meta.json", r'"frames": \d+', '"frames": 1' + '0' * 30),
    ("detections.json", r'"units": "\w+"', '"units": [1]'),
    ("topology.json", r'"names": \[\s*"\w+"', '"names": [[1]'),
    # only a missing key or null means no names or subset
    ("topology.json", r'"names": \[[^\]]*\]', '"names": 0'),
    ("topology.json", r'"names": \[[^\]]*\]', '"names": false'),
    ("topology.json", r'"names": \[[^\]]*\]', '"names": ""'),
    ("topology.json", r'"eval_subset": null', '"eval_subset": 0'),
    ("topology.json", r'"eval_subset": null', '"eval_subset": {}'),
    ("topology.json", r'(?s)"bones": \[.*?\]\s*\]', '"bones": {}'),
    ("meta.json", r'"bundle-v1"', '"bundle-v2"'),
    ("pose.json", r'"track-v1"', '"track-v2"'),
    ("topology.json", r'"topology-v1"', '"topology-v2"'),
    ("detections.json", r'"kind": "detections"', '"kind": "pose"'),
    # three frames of one number each: the leading dimension matches, the rank does not
    ("camera.json", r'(?s)"params": \[.*?\]\s*\]', '"params": [1.0, 2.0, 3.0]'),
    ("meta.json", r'"mode": "3d"', '"mode": "4d"'),
], ids=["width-string", "meta-number", "pose-number", "joint-count-overflow",
        "frames-mismatch", "frames-huge", "units-list", "names-list", "names-zero",
        "names-false", "names-empty-string", "subset-zero", "subset-object", "bones-object",
        "meta-format", "track-format", "topology-format", "detections-as-pose",
        "camera-rank", "meta-mode"])
def test_malformed_scene_json_exit_3(tmp_path, capsys, name, pattern, replacement):
    gt = _synth(tmp_path, size=16)
    path = gt / name
    text, count = re.subn(pattern, replacement, path.read_text(), count=1)
    assert count == 1
    path.write_text(text)
    assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, key, replacement", [
    ("topology.json", '"eval_subset"', '"eval_subest"'),
    ("topology.json", '"names"', '"nmaes"'),
    ("meta.json", '"height"', '"hieght"'),
    ("detections.json", '"units"', '"unit": "px", "units"'),
    ("pose.json", '"units"', '"confidence": [], "units"'),
], ids=["topology-subset", "topology-names", "meta-height", "detections-extra",
        "pose-extra"])
def test_a_misspelled_key_in_a_scene_file_exit_3(tmp_path, capsys, name, key, replacement):
    # a reader refuses every key its writer does not write, naming it, so a
    # misspelled optional key is not read as a missing one
    gt = _synth(tmp_path, size=16)
    path = gt / name
    path.write_text(path.read_text().replace(key, replacement, 1))
    assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 3
    unknown = replacement.split('"')[1]
    assert re.fullmatch(f"error: [^\\n]*{name}: unknown field '{unknown}'\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("damage", ["not-utf8", "deep"])
@pytest.mark.parametrize("target", ["meta.json", "pose.json", "topology.json", "config",
                                    "synth-topology"])
def test_undecodable_json_exit_3(tmp_path, capsys, target, damage):
    # bytes that are not UTF-8, and nesting deeper than the parser recurses,
    # make a malformed file, which the error names
    gt = _synth(tmp_path, size=16)
    path = gt / target if target.endswith(".json") else tmp_path / "doc.json"
    path.write_bytes(b'{"format": "\xff"}' if damage == "not-utf8"
                     else b"[" * 100_000 + b"]" * 100_000)
    out = str(tmp_path / "out")
    argv = {"config": ["bootstrap", "--config", str(path), "--in", str(gt), "--out", out],
            "synth-topology": ["synth", "--topology", str(path), "--out", out]}
    assert main(argv.get(target, ["eval", "--pred", str(gt), "--gt", str(gt)])) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_a_scene_without_a_pose_replaces_one_with_a_pose(tmp_path, capsys):
    # writing a 2-D scene over a 3-D one removes the older pose and cameras,
    # so eval compares the 2-D joints of the scene just written
    out = _synth(tmp_path, name="out", seed=1, frames=4)
    b = _synth(tmp_path, name="b", seed=2, frames=4)
    b2d = tmp_path / "b2d"
    fileio.write_bundle(b2d, replace(fileio.read_bundle(b), mode="2d", pose=None,
                                     camera=None))
    assert main(["refine-flow", "--mode", "2d", "--epochs", "1", "--in", str(b2d),
                 "--out", str(out)]) == 0
    assert not (out / "pose.json").exists() and not (out / "camera.json").exists()
    capsys.readouterr()
    assert main(["eval", "--pred", str(out), "--gt", str(b)]) == 0
    assert capsys.readouterr().out.startswith("JOINT2D (px) all ")


def test_fewer_frames_replace_more_and_leave_other_files(tmp_path, capsys):
    # a scene or an averaged flow directory written over a longer one keeps
    # none of its surplus .flo files; files outside the scene stay
    out = _synth(tmp_path, name="out", seed=1, frames=6)
    assert main(["refine-flow", "--epochs", "1", "--in", str(out), "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    (out / "flows" / "notes.txt").write_text("kept")
    _synth(tmp_path, name="out", seed=2, frames=4)
    assert sorted(f.name for f in (out / "flows").iterdir()) == [
        "flow_000000.flo", "flow_000001.flo", "flow_000002.flo", "notes.txt"]
    assert (out / "report.json").read_bytes() == report
    capsys.readouterr()
    assert main(["eval", "--pred", str(out), "--gt", str(out)]) == 0
    assert "MPJPE (mm)  all     0.000000" in capsys.readouterr().out
    four = _synth(tmp_path, name="four", seed=3, frames=4)
    six = _synth(tmp_path, name="six", seed=4, frames=6)
    assert main(["avg", str(four / "flows"), str(four / "flows"),
                 "--out", str(six / "flows")]) == 0
    assert len(fileio.read_flow_dir(six / "flows")) == 3


def test_synth_onto_an_existing_file_exit_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["synth", "--out", str(taken), "--frames", "2", "--width", "16",
                 "--height", "16"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "kept"


def _bootstrap_with(tmp_path, block, field, json_value):
    """Run a short bootstrap whose config has ``block.field`` (the whole
    ``block`` if ``field`` is None) set to the raw JSON text ``json_value``;
    returns the exit code."""
    gt = _synth(tmp_path, size=16)
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["schedule"] = [{"kind": "flow", "epochs": 1}, {"kind": "pose", "epochs": 1},
                       {"kind": "flow", "epochs": 1}]
    if field is None:
        doc[block] = "@value@"
    else:
        doc[block][field] = "@value@"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace('"@value@"', json_value))
    return main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("block, field, json_value", [
    ("pose", "epochs", "1500"),    # the pose budget is each schedule stage's
    ("pose", "lr", '"abc"'),
    ("pose", "lr", "[1]"),
    ("pose", "lr", "-0.001"),
    ("pose", "lam_opt", "true"),
    ("pose", "lam_bone", "NaN"),
    ("flow", "stride", "1e400"),
    ("flow", "stride", "2.5"),
    ("flow", "sigma", "-1e400"),
    ("flow", "sigma", "false"),
    ("flow", "lr", '"abc"'),
    ("flow", "lr", "null"),
    ("flow", "lr", "{}"),
    ("flow", "lr", "-0.05"),
    ("flow", "radius", "1e400"),
    ("flow", "radius", "2.5"),
    ("schedule", None, "5"),
    ("schedule", None, '{"kind": "pose", "epochs": 1}'),
    ("pose", None, "[1]"),
    ("flow", None, '"abc"'),
])
def test_malformed_config_hyperparameters_exit_3(tmp_path, capsys, block, field, json_value):
    assert _bootstrap_with(tmp_path, block, field, json_value) == 3
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'cfg.json'}" in err
    if field is None:
        # a block of the wrong type is named, not Python's complaint about it
        assert f"{block} must be a JSON" in err


@pytest.mark.parametrize("block, field, json_value", [
    ("flow", "radius", "1" + "0" * 30),
    ("flow", "sigma", "1e30"),
    ("flow", "stride", "1e30"),
])
def test_huge_flow_settings_still_run(tmp_path, block, field, json_value):
    # an arm or a blur wider than the image reaches all of it and no more
    assert _bootstrap_with(tmp_path, block, field, json_value) == 0


@pytest.mark.parametrize("command", ["refine-pose", "refine-flow"])
def test_epoch_count_too_large_to_record_exit_3(tmp_path, capsys, command):
    gt = _synth(tmp_path, size=16)
    assert main([command, "--in", str(gt), "--out", str(tmp_path / "out"),
                 "--epochs", "1" + "0" * 30]) == 3
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("kind, json_value", [
    pytest.param("flow", "1" + "0" * 30, id="flow"),
    pytest.param("pose", "1" + "0" * 30, id="pose"),
    ("pose", "1e400"),
    ("pose", "-1e400"),
    ("pose", "2.5"),
])
def test_config_stage_too_large_to_record_exit_3(tmp_path, capsys, kind, json_value):
    gt = _synth(tmp_path, size=16)
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["schedule"] = [{"kind": kind, "epochs": "@value@"}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc).replace('"@value@"', json_value))
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(tmp_path / "out")]) == 3
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["meta-number", "no-topology", "no-flows", "empty-flows"])
@pytest.mark.parametrize("command", ["refine-pose", "bootstrap"])
def test_every_command_reads_the_whole_scene(tmp_path, capsys, command, damage):
    # refine-pose and bootstrap read a scene as eval does, meta.json,
    # topology.json and flows/ included: a malformed or missing member is exit 3
    gt = _synth(tmp_path, size=16)
    if damage == "meta-number":
        (gt / "meta.json").write_text("16")
    elif damage == "no-topology":
        (gt / "topology.json").unlink()
    else:
        for flo in (gt / "flows").iterdir():
            flo.unlink()
        if damage == "no-flows":
            (gt / "flows").rmdir()
    out = tmp_path / "out"
    assert main([command, "--in", str(gt), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _scene2d(tmp_path):
    scene = tmp_path / "scene2d"
    gt = generate_scene(seed=3, frames=3, width=16, height=16).scene
    fileio.write_bundle(scene, replace(gt, mode="2d", pose=None, camera=None))
    return scene


@pytest.mark.parametrize("command", ["refine-pose", "bootstrap"])
def test_mode_mismatch_names_the_missing_file(tmp_path, capsys, command):
    # a 3-D run of a 2-D scene reads the scene as 3-D, so the error names
    # the track it lacks
    scene = _scene2d(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--in", str(scene), "--out", str(out), "--mode", "3d"]) == 3
    assert "pose.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["perturb", "--in", "{scene2d}"],
    ["bootstrap", "--in", "{gt}", "--gt", "{scene2d}"],
    ["refine-pose", "--in", "{gt}", "--gt", "{scene2d}"],
])
def test_2d_scene_as_3d_ground_truth_names_the_missing_file(tmp_path, capsys, argv):
    # ground truth is read in the run's mode, not the one its meta.json records
    paths = {"scene2d": _scene2d(tmp_path), "gt": _synth(tmp_path, size=16)}
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 3
    assert "pose.json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_2d_bootstrap_takes_2d_ground_truth(tmp_path):
    scene = _scene2d(tmp_path)
    doc = fileio.config_to_dict(fileio.RunConfig(mode="2d"))
    doc["schedule"] = [{"kind": "flow", "epochs": 2}, {"kind": "pose", "epochs": 2}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bootstrap", "--config", str(cfg_path), "--mode", "2d", "--in", str(scene),
                 "--out", str(out), "--gt", str(scene)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(s["mpjpe"] is not None for s in report["stages"])


def _synth_joints(tmp_path, joints, eval_subset=None):
    """A 32-px, 3-frame scene on a chain of ``joints`` joints (17: the default
    topology), as written by ``synth``, and a pose-less 2-D copy of it."""
    out = tmp_path / f"j{joints}"
    argv = ["synth", "--out", str(out), "--frames", "3", "--width", "32", "--height", "32"]
    if joints != 17:
        path = tmp_path / f"topology{joints}.json"
        fileio.write_topology(path, SkeletonTopology(
            joints, tuple((j, j + 1) for j in range(joints - 1)), eval_subset=eval_subset))
        argv += ["--topology", str(path)]
    assert main(argv) == 0
    flat = tmp_path / f"j{joints}-2d"
    fileio.write_bundle(flat, replace(fileio.read_bundle(out), mode="2d", pose=None,
                                      camera=None))
    return out, flat


def test_eval_lines_and_mismatched_joint_counts(tmp_path, capsys):
    full, full2d = _synth_joints(tmp_path, 17)
    five, five2d = _synth_joints(tmp_path, 5, eval_subset=(1, 3))
    one, one2d = _synth_joints(tmp_path, 1)
    noisy = tmp_path / "noisy"
    assert main(["perturb", "--in", str(full), "--out", str(noisy), "--det-sigma", "2"]) == 0
    noisy2d = tmp_path / "noisy-2d"
    fileio.write_bundle(noisy2d, replace(fileio.read_bundle(noisy), mode="2d", pose=None,
                                         camera=None))
    capsys.readouterr()
    # with a pose on both sides: the subset line follows the topology's eval_subset
    assert main(["eval", "--pred", str(five), "--gt", str(five)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["MPJPE (mm)  all     0.000000", "MPJPE (mm)  subset  0.000000"]
    # a side without a pose compares the 2-D joints
    assert main(["eval", "--pred", str(noisy2d), "--gt", str(full)]) == 0
    a = fileio.read_bundle(noisy2d).detections.pixels
    b = fileio.read_bundle(full).detections.pixels
    want = float(np.linalg.norm(a - b, axis=-1).mean())
    assert want > 0.5
    assert capsys.readouterr().out.splitlines()[0] == f"JOINT2D (px) all    {want:.6f}"
    # different joint counts are bad input on every path that compares joints
    out = tmp_path / "out"
    for argv in (["eval", "--pred", str(one2d), "--gt", str(full)],
                 ["eval", "--pred", str(full2d), "--gt", str(five)],
                 ["eval", "--pred", str(five), "--gt", str(one)],
                 ["bootstrap", "--mode", "2d", "--in", str(full), "--gt", str(five),
                  "--out", str(out)],
                 ["bootstrap", "--mode", "2d", "--in", str(full), "--gt", str(one),
                  "--out", str(out)],
                 ["bootstrap", "--in", str(full), "--gt", str(five), "--out", str(out)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*tracks have different dimensions\n", captured.err)
        assert not out.exists()


def test_mismatched_scenes_exit_3(tmp_path, capsys):
    # eval compares scenes of one size, avg flow directories of one count
    a = _synth(tmp_path, name="a", frames=3, size=16)
    longer = _synth(tmp_path, name="longer", frames=4, size=16)
    wider = _synth(tmp_path, name="wider", frames=3, size=20)
    out = tmp_path / "out"
    differ = "prediction and ground truth dimensions differ"
    for argv, message in ((["eval", "--pred", a, "--gt", longer], differ),
                          (["eval", "--pred", wider, "--gt", a], differ),
                          (["avg", a / "flows", longer / "flows", "--out", out],
                           "flow directories hold different counts")):
        assert main([str(arg) for arg in argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_2d_run_of_a_3d_scene_writes_no_pose(tmp_path, capsys):
    # a 2-D run reads no pose or camera, so it writes none, and eval reports
    # the 2-D joints it refined, not the input's untouched pose
    gt = tmp_path / "gt"
    noisy = tmp_path / "noisy"
    out = tmp_path / "out2d"
    assert main(["synth", "--out", str(gt), "--seed", "5", "--frames", "4",
                 "--width", "48", "--height", "48"]) == 0
    assert main(["perturb", "--in", str(gt), "--out", str(noisy), "--pose-sigma", "0.02",
                 "--det-sigma", "0.5", "--seed", "9"]) == 0
    assert main(["bootstrap", "--mode", "2d", "--in", str(noisy), "--out", str(out),
                 "--gt", str(gt)]) == 0
    assert not (out / "pose.json").exists() and not (out / "camera.json").exists()
    refined = fileio.read_bundle(out)
    assert refined.mode == "2d" and refined.pose is None
    want = joint2d_error(refined.detections, fileio.read_bundle(gt).detections)
    capsys.readouterr()
    assert main(["eval", "--pred", str(out), "--gt", str(gt)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"JOINT2D (px) all    {want:.6f}"


def test_bootstrap_needs_in_and_out_exit_2(tmp_path):
    # a config names no scene: a left-over block of scene and output paths
    # does not stand in for --in or --out
    gt = _synth(tmp_path, size=16)
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["schedule"] = [{"kind": "pose", "epochs": 1}]
    doc["paths"] = {"detections": str(gt / "detections.json"), "flows": str(gt / "flows"),
                    "output": str(tmp_path / "cfg-out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bootstrap", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt)]) == 2
    assert not out.exists() and not (tmp_path / "cfg-out").exists()


def test_config_v1_exit_3(tmp_path, capsys):
    gt = _synth(tmp_path, size=16)
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["format"] = "config-v1"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(tmp_path / "out")]) == 3
    assert "'config-v1'" in capsys.readouterr().err


def test_config_v2_exit_3(tmp_path, capsys):
    # the format that held a run seed is refused by name, like config-v1
    gt = _synth(tmp_path, size=16)
    doc = {**fileio.config_to_dict(fileio.RunConfig()), "format": "config-v2", "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(tmp_path / "out")]) == 3
    assert "unsupported format 'config-v2'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bootstrap_has_no_seed_flag_exit_2(tmp_path, capsys):
    # a bootstrap draws no random number: --seed is not a bootstrap flag
    gt = _synth(tmp_path, size=16)
    assert main(["bootstrap", "--in", str(gt), "--out", str(tmp_path / "out"),
                 "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exit_4(tmp_path):
    gt = _synth(tmp_path)
    fp = __import__("flowpose")
    cfg = fileio.RunConfig(schedule=fp.CycleSchedule((fp.PoseStage(50),)),
                           pose_params=fp.PoseHyperParams(lr=50.0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(fileio._dump_json(fileio.config_to_dict(cfg)))
    assert main(["bootstrap", "--config", str(cfg_path), "--in", str(gt),
                 "--out", str(tmp_path / "out")]) == 4


def test_check_grads_command(tmp_path, capsys):
    assert main(["check-grads", "--scenes", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["check-grads", "--scenes", "2", "--threshold", "1e-12"]) == 4


# a value below its bound is named with the bound and the value
_BOUND_MESSAGES = {"synth --width 3": "width must be an integer >= 4, got 3\n",
                   "perturb --pose-sigma -1": "pose_sigma must be >= 0, got -1.0\n",
                   "check-grads --scenes 0": "scenes must be an integer >= 1, got 0\n",
                   "synth --height 1000000000000":
                   "height and width: cannot allocate a (1000000000000, 128, 2) array\n"}


@pytest.mark.parametrize("flags", [
    "synth --seed -1", "perturb --seed -1", "perturb --corrupt-rect 0 0 -5 -5",
    "check-grads --seed -1", "check-grads --scenes 0", "check-grads --scenes -2",
    "check-grads --step 0", "check-grads --threshold nan",
    # sizes past the 128 TiB address space: no machine can allocate them
    "synth --frames 1000000000000", "synth --height 1000000000000",
    "synth --width 1000000000000000000",
    "perturb --corrupt-flow nan 0", "perturb --pose-sigma nan",
    "synth --width 3", "perturb --pose-sigma -1",
])
def test_bad_flag_value_exit_3(tmp_path, capsys, flags):
    # a bad value is the caller's fault: no traceback, no exit 4, no silent no-op
    command, *rest = flags.split()
    out = tmp_path / "out"
    io = [] if command == "check-grads" else ["--out", str(out)]
    if command == "perturb":
        io += ["--in", str(_synth(tmp_path, frames=2, size=16))]
    capsys.readouterr()
    assert main([command, *io, *rest]) == 3
    assert capsys.readouterr().err.startswith("error: " + _BOUND_MESSAGES.get(flags, ""))
    assert not out.exists()


def test_a_flow_holding_nan_exit_3(tmp_path, capsys):
    gt = _synth(tmp_path, size=16)
    flo = gt / "flows" / "flow_000000.flo"
    blob = bytearray(flo.read_bytes())
    blob[12:16] = np.array([np.nan], "<f4").tobytes()
    flo.write_bytes(bytes(blob))
    out = tmp_path / "out"
    assert main(["refine-flow", "--in", str(gt), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {flo}: uv: non-finite value at index (0, 0, 0)\n")
    assert not out.exists()


def test_a_detection_beyond_the_raster_reach_exit_3(tmp_path, capsys):
    # the sketch of a 2-D flow stage draws the detections; float64 cannot
    # measure a bone to a pixel past 2**40 px, so such a joint is bad input
    gt = _synth(tmp_path, size=16)
    det, units = fileio.read_track(gt / "detections.json")
    pixels = det.pixels.copy()
    pixels[0, 0] = (1e17, 5.0)
    fileio.write_track(gt / "detections.json", type(det)(pixels, det.confidence), units)
    out = tmp_path / "out"
    assert main(["refine-flow", "--in", str(gt), "--out", str(out), "--mode", "2d"]) == 3
    assert capsys.readouterr().err == "error: joints2d: 1e+17 px is beyond 2**40 px\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_flow_float32_cannot_hold_exit_3(tmp_path, capsys):
    # .flo stores float32, so such a scene could be written but never read:
    # it is refused before any of its files is written
    big = tmp_path / "big"
    assert main(["synth", "--out", str(big), "--frames", "3", "--width", "16",
                 "--height", "16", "--background", "1e308", "1e308"]) == 3
    noisy = tmp_path / "noisy"
    assert main(["perturb", "--in", str(_synth(tmp_path, size=16)), "--out", str(noisy),
                 "--corrupt-flow", "1e308", "1e308", "--corrupt-rect", "0", "0", "4", "4"]) == 3
    assert not (big / "meta.json").exists() and not (noisy / "meta.json").exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: {d / 'flows' / 'flow_000000.flo'}: flow value beyond float32 range"
        for d in (big, noisy)]


def test_print_config(capsys):
    assert main(["bootstrap", "--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pose"]["lam_bone"] == 1e4
    assert doc["flow"]["radius"] == 15
    assert [s["epochs"] for s in doc["schedule"]] == [8, 1500, 8]


def test_end_to_end_improves_both_metrics(tmp_path, capsys):
    # synth -> perturb -> bootstrap -> eval on the frozen benchmark scene
    gt = tmp_path / "gt"
    noisy = tmp_path / "noisy"
    refined = tmp_path / "refined"
    assert main(["synth", "--out", str(gt), "--seed", "77", "--frames", "10",
                 "--width", "128", "--height", "128"]) == 0
    assert main(["perturb", "--in", str(gt), "--out", str(noisy),
                 "--pose-sigma", "0.02", "--camera-sigma", "0.5", "1.0", "1.0",
                 "--det-sigma", "0.5", "--corrupt-rect", "45", "53", "32", "32",
                 "--corrupt-flow", "-2.5", "1.5", "--seed", "78"]) == 0

    def metrics(pred):
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        lines = capsys.readouterr().out.splitlines()
        mpjpe_mm = float(lines[0].split()[-1])
        epe_joints = float([l for l in lines if "joints" in l][0].split()[-1])
        return mpjpe_mm, epe_joints

    m0, e0 = metrics(noisy)
    with pytest.warns(RuntimeWarning):
        assert main(["bootstrap", "--in", str(noisy), "--out", str(refined),
                     "--gt", str(gt)]) == 0
    m1, e1 = metrics(refined)
    assert m1 < m0 and e1 < e0


def test_cli_output_deterministic(tmp_path, capsys):
    gt = _synth(tmp_path, name="g1", seed=4)
    capsys.readouterr()
    assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--pred", str(gt), "--gt", str(gt)]) == 0
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# malformed inputs, one mutation at a time

_SCENE_FILES = ("meta.json", "topology.json", "pose.json", "camera.json", "detections.json")
# a type swap, or a huge or non-finite number
_SWAPS = ("abc", True, None, [], {}, [1], 10**30, -(10**30), float("inf"),
          float("-inf"), float("nan"), -3, 2.5)


@pytest.fixture(scope="module")
def valid_run(tmp_path_factory):
    """A valid 16² scene and a config of one-epoch stages for it."""
    root = tmp_path_factory.mktemp("valid")
    scene = _synth(root, size=16)
    doc = fileio.config_to_dict(fileio.RunConfig())
    doc["schedule"] = [{"kind": "flow", "epochs": 1}, {"kind": "pose", "epochs": 1},
                       {"kind": "flow", "epochs": 1}]
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return scene, cfg


def _json_paths(node, prefix=()):
    """Every position in a JSON document: the root, each key, each element."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutate_json(path, data):
    """Mutate one position of the JSON file ``path``; returns its key path."""
    box = [json.loads(path.read_text())]     # a holder, so the root can change too
    where = data.draw(st.sampled_from(list(_json_paths(box[0]))), label="where")
    holder, key = box, 0
    for step in where:
        holder, key = holder[key], step
    how = data.draw(st.sampled_from(["swap", "delete", "wrap", "unwrap"]), label="how")
    old = holder[key]
    if how == "swap":
        holder[key] = data.draw(st.sampled_from(_SWAPS), label="value")
    elif how == "delete":
        del holder[key]
    elif how == "wrap":
        holder[key] = [old]
    elif isinstance(old, (dict, list)) and old:     # a container becomes its first member
        holder[key] = next(iter(old.values())) if isinstance(old, dict) else old[0]
    path.write_text(json.dumps(box[0]) if box else "")
    return where


def _damage_bytes(path, data):
    """Truncate the file ``path`` at a drawn byte, or flip bits of that byte."""
    blob = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(blob))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_input_is_exit_0_or_3(valid_run, tmp_path_factory, data):
    # one JSON field of the scene or the config mutated, or one .flo
    # truncated or flipped; eval, refine-pose and bootstrap then either run
    # or reject the input, and never raise
    valid, valid_cfg = valid_run
    work = tmp_path_factory.mktemp("case")
    scene = work / "scene"
    shutil.copytree(valid, scene)
    cfg = work / "cfg.json"
    shutil.copyfile(valid_cfg, cfg)
    target = data.draw(st.sampled_from(_SCENE_FILES + ("cfg.json", "flows")), label="file")
    where = ()
    if target == "flows":
        _damage_bytes(data.draw(st.sampled_from(sorted((scene / "flows").glob("*.flo"))),
                                label="flo"), data)
    else:
        where = _mutate_json(cfg if target == "cfg.json" else scene / target, data)
    # a finite learning rate too large for the optimizer is a numerical
    # failure, exit 4, as test_numerical_failure_exit_4 pins
    allowed = (0, 3, 4) if target == "cfg.json" and where[-1:] == ("lr",) else (0, 3)
    for argv in (["eval", "--pred", str(scene), "--gt", str(valid)],
                 ["eval", "--pred", str(valid), "--gt", str(scene)],
                 ["refine-pose", "--in", str(scene), "--out", str(work / "pose"),
                  "--epochs", "1"],
                 ["bootstrap", "--config", str(cfg), "--in", str(scene),
                  "--out", str(work / "run")]):
        assert main(argv) in allowed, argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_damaged_file_exits_0_3_or_4(valid_run, tmp_path_factory, data):
    # one file of a scene, a config or a topology file truncated, a byte of
    # it flipped, or one of its JSON values replaced; every command that
    # reads the file runs (0), rejects it (3) or reports a numerical
    # failure (4), and never raises
    valid, valid_cfg = valid_run
    work = tmp_path_factory.mktemp("damage")
    scene, cfg, topology = work / "scene", work / "cfg.json", work / "topology.json"
    shutil.copytree(valid, scene)
    shutil.copyfile(valid_cfg, cfg)
    shutil.copyfile(valid / "topology.json", topology)
    files = [scene / name for name in _SCENE_FILES] + [cfg, topology]
    path = data.draw(st.sampled_from(files + sorted((scene / "flows").glob("*.flo"))),
                     label="file")
    if path.suffix == ".json" and data.draw(st.booleans(), label="json"):
        _mutate_json(path, data)
    else:
        _damage_bytes(path, data)
    runs = {cfg: [["bootstrap", "--config", cfg, "--in", valid]],
            topology: [["synth", "--topology", topology, "--frames", "2", "--width", "16",
                        "--height", "16"]]}
    for argv in runs.get(path, [["eval", "--pred", scene, "--gt", valid],
                                ["refine-pose", "--in", scene, "--epochs", "1"],
                                ["refine-pose", "--mode", "2d", "--in", scene, "--epochs", "1"],
                                ["refine-flow", "--in", scene, "--epochs", "1"],
                                ["bootstrap", "--config", valid_cfg, "--in", scene]]):
        if argv[0] != "eval":
            argv += ["--out", work / "out"]
        assert main([str(arg) for arg in argv]) in (0, 3, 4), argv


# ---------------------------------------------------------------------------
# bad flag values, one at a time

# each command's numeric flags, with the valid values the other flags keep:
# a 16² three-frame scene, one-epoch stages and one gradient-check scene
_NUMERIC_FLAGS = {
    "synth": {"--seed": ["0"], "--frames": ["3"], "--width": ["16"], "--height": ["16"],
              "--amplitude": ["1"], "--radius": ["15"], "--background": ["0", "0"]},
    "perturb": {"--seed": ["0"], "--pose-sigma": ["0"], "--camera-sigma": ["0", "0", "0"],
                "--det-sigma": ["0"], "--corrupt-rect": ["0", "0", "4", "4"],
                "--corrupt-flow": ["0", "0"]},
    "refine-flow": {"--epochs": ["1"]},
    "refine-pose": {"--epochs": ["1"]},
    "check-grads": {"--scenes": ["1"], "--seed": ["0"], "--step": ["1e-5"],
                    "--threshold": ["1e-4"]},
}
# negative, zero, non-finite or non-integral; never a large positive size,
# which a machine could really try to allocate, nor a positive fraction,
# which is a valid float setting (check-grads --step 2.5 is a failing check,
# exit 4)
_BAD_NUMBERS = ("-1", "-7", "0", "-0.5", "nan", "inf", "-inf", "-1e400")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_flag_value_is_exit_0_2_or_3(valid_run, tmp_path_factory, data):
    # one numeric flag of one command gets one bad value; the command runs,
    # rejects the value (exit 3) or fails to parse it (exit 2), and never
    # raises or reports a numerical failure
    scene, _ = valid_run
    command = data.draw(st.sampled_from(sorted(_NUMERIC_FLAGS)), label="command")
    flags = _NUMERIC_FLAGS[command]
    flag = data.draw(st.sampled_from(sorted(flags)), label="flag")
    values = list(flags[flag])
    values[data.draw(st.integers(0, len(values) - 1), label="at")] = data.draw(
        st.sampled_from(_BAD_NUMBERS), label="value")
    out = tmp_path_factory.mktemp("flag") / "out"
    io = {"synth": ["--out", str(out)],
          "check-grads": []}.get(command, ["--in", str(scene), "--out", str(out)])
    argv = [command, *io]
    for name, default in flags.items():
        given = values if name == flag else default
        # "--flag=-inf": a lone value that starts with "-" is not taken for a flag
        argv += [f"{name}={given[0]}"] if len(given) == 1 else [name, *given]
    assert main(argv) in (0, 2, 3), argv
