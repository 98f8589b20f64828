"""Exit codes, report determinism, and attention dump checks for the CLI."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgraph import cli, data
from stgraph.cli import main
from stgraph.graph import build_graph
from stgraph.passing import ModelConfig, run_inference
from stgraph.train import init_params, load_checkpoint, save_checkpoint


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def action_ds(tmp_path):
    out = str(tmp_path / "ds")
    manifest = data.synth_action_overfit(out, seed=0, clips=4, classes=2,
                                         keyframes=2, channels=6)
    return manifest


def train_once(manifest, out, extra=()):
    code = run_cli("train", "--data", manifest, "--out", out,
                   "--state-dim", "10", "--heads", "2", "--epochs", "4",
                   "--seed", "0", *extra)
    assert code == 0
    return os.path.join(out, "checkpoint.safetensors")


def test_train_eval_round_trip(action_ds, tmp_path, capsys):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    assert os.path.exists(ckpt)
    assert os.path.exists(str(tmp_path / "run" / "report.json"))
    code = run_cli("eval", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev"))
    assert code == 0
    report = json.load(open(str(tmp_path / "ev" / "report.json")))
    assert report["command"] == "eval"
    assert 0.0 <= report["map"] <= 1.0
    assert set(report["ap"]) == {"0", "1"}
    txt = open(str(tmp_path / "ev" / "report.txt")).read()
    assert "map = " in txt


def test_identical_runs_are_byte_identical(action_ds, tmp_path):
    train_once(action_ds, str(tmp_path / "a"))
    train_once(action_ds, str(tmp_path / "b"))
    for name in ("checkpoint.safetensors", "report.json", "report.txt"):
        a = open(str(tmp_path / "a" / name), "rb").read()
        b = open(str(tmp_path / "b" / name), "rb").read()
        assert a == b, name


def test_missing_manifest_exits_one(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "run"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_task_conflict_with_dataset_exits_one(action_ds, tmp_path, capsys):
    code = run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run"),
                   "--task", "scenegraph")
    assert code == 1
    assert "task" in capsys.readouterr().err


def test_checkpoint_dataset_mismatch_exits_one(action_ds, tmp_path, capsys):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    other = data.synth_action_overfit(str(tmp_path / "ds9"), seed=1, clips=2,
                                      classes=3, keyframes=1, channels=6)
    code = run_cli("eval", "--data", other, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev"))
    assert code == 1
    assert "action_classes" in capsys.readouterr().err


def _break_top_level(header):
    return [1, 2]


def _drop_config(header):
    del header["__metadata__"]["config"]
    return header


def _bad_config(header):
    config = json.loads(header["__metadata__"]["config"])
    config["tau_c"] = 2
    header["__metadata__"]["config"] = json.dumps(config)
    return header


def _bad_params_entry(header):
    header["readout.action.bias"] = [0.0, 0.0]
    return header


def _drop_params(header):
    return {"__metadata__": header["__metadata__"]}


def _rewrite_header(path, corrupt):
    """Replace the checkpoint's header with corrupt(header), its tensor bytes kept."""
    with open(path, "rb") as f:
        raw = f.read()
    n = int.from_bytes(raw[:8], "little")
    text = json.dumps(corrupt(json.loads(raw[8:8 + n]))).encode()
    with open(path, "wb") as f:
        f.write(len(text).to_bytes(8, "little") + text + raw[8 + n:])


@pytest.mark.parametrize("corrupt", [_break_top_level, _drop_config, _bad_config,
                                     _bad_params_entry, _drop_params])
def test_malformed_checkpoint_exits_one(action_ds, tmp_path, capsys, corrupt):
    config = ModelConfig(state_dim=4, heads=1, feature_channels=6, action_classes=2)
    path = str(tmp_path / "checkpoint.safetensors")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    _rewrite_header(path, corrupt)
    code = run_cli("eval", "--data", action_ds, "--checkpoint", path,
                   "--out", str(tmp_path / "ev"))
    assert code == 1
    assert f"error: {path}" in capsys.readouterr().err


def _clip_as_array(lines):
    lines[1] = "[1, 2]"
    return 2


def _string_action_classes(lines):
    header = json.loads(lines[0])
    header["action_classes"] = str(header["action_classes"])
    lines[0] = json.dumps(header)
    return 1


def _string_keyframe_id(lines):
    clip = json.loads(lines[1])
    clip["keyframes"][0]["keyframe_id"] = "x"
    lines[1] = json.dumps(clip)
    return 2


def _word_version(lines):
    header = json.loads(lines[0])
    header["version"] = "one"
    lines[0] = json.dumps(header)
    return 1


def _keyframe_as_number(lines):
    clip = json.loads(lines[1])
    clip["keyframes"][0] = 5
    lines[1] = json.dumps(clip)
    return 2


def _edit_first_keyframe(lines, edit):
    clip = json.loads(lines[1])
    edit(clip["keyframes"][0])
    lines[1] = json.dumps(clip)
    return 2


def _number_grid(lines):
    return _edit_first_keyframe(lines, lambda kf: kf.update(grid=5))


def _foreground_entry_as_number(lines):
    return _edit_first_keyframe(lines, lambda kf: kf["foreground"].__setitem__(0, 5))


def _box_of_strings(lines):
    def edit(kf):
        box = kf["foreground"][0]["box"]
        kf["foreground"][0]["box"] = [str(v) for v in box]
    return _edit_first_keyframe(lines, edit)


def _number_proposals(lines):
    return _edit_first_keyframe(lines, lambda kf: kf.update(proposals=3))


def _number_foreground(lines):
    return _edit_first_keyframe(lines, lambda kf: kf.update(foreground=5))


def _number_keyframes(lines):
    clip = json.loads(lines[1])
    clip["keyframes"] = 5
    lines[1] = json.dumps(clip)
    return 2


def _as_scenegraph(lines, relation):
    """Turn the action manifest into a scene-graph one whose first keyframe holds relation."""
    lines[0] = json.dumps({"record": "header", "version": 1, "task": "scenegraph",
                           "object_classes": 2, "relation_classes": 2})
    for n, line in enumerate(lines[1:], start=1):
        clip = json.loads(line)
        for kf in clip["keyframes"]:
            for entry in kf["foreground"]:
                del entry["labels"]
                entry["object_class"] = 0
        lines[n] = json.dumps(clip)
    return _edit_first_keyframe(lines, lambda kf: kf.update(relations=[relation]))


def _string_relation_index(lines):
    return _as_scenegraph(lines, ["a", 1, 2])


def _fractional_relation_index(lines):
    return _as_scenegraph(lines, [1, 0, 1.5])


def _edit_header(lines, **changes):
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header)
    return 1


def _boolean_version(lines):
    return _edit_header(lines, version=True)


def _float_version(lines):
    return _edit_header(lines, version=1.0)


def _boolean_labels(lines):
    return _edit_first_keyframe(
        lines, lambda kf: kf["foreground"][0].update(labels=[True, False]))


@pytest.mark.parametrize("corrupt", [_clip_as_array, _string_action_classes,
                                     _string_keyframe_id, _word_version,
                                     _keyframe_as_number, _number_grid,
                                     _foreground_entry_as_number, _box_of_strings,
                                     _number_proposals, _number_foreground,
                                     _number_keyframes, _string_relation_index,
                                     _fractional_relation_index, _boolean_version,
                                     _float_version, _boolean_labels])
def test_malformed_manifest_exits_one(action_ds, tmp_path, capsys, corrupt):
    with open(action_ds) as f:
        lines = f.read().splitlines()
    line = corrupt(lines)
    with open(action_ds, "w") as f:
        f.write("\n".join(lines) + "\n")
    code = run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run"),
                   "--state-dim", "4", "--heads", "1", "--epochs", "1")
    assert code == 1
    assert f"error: {action_ds}:{line}" in capsys.readouterr().err


def test_gradcheck_exit_codes(capsys):
    code = run_cli("gradcheck", "--state-dim", "5", "--heads", "1",
                   "--feature-channels", "4", "--action-classes", "2",
                   "--task", "action", "--seed", "1")
    assert code == 0
    out = capsys.readouterr().out
    assert "worst" in out
    # an impossible tolerance turns the same run into a failure
    code = run_cli("gradcheck", "--state-dim", "5", "--heads", "1",
                   "--feature-channels", "4", "--action-classes", "2",
                   "--task", "action", "--seed", "1", "--tolerance", "1e-18")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("--step", "0"), ("--step", "nan"), ("--tolerance", "nan"), ("--tolerance=-1",),
    # finite and positive, but the nudged forward pass overflows
    ("--step", "1e308"),
])
def test_gradcheck_rejects_bad_step_and_tolerance(capsys, argv):
    code = run_cli("gradcheck", "--state-dim", "5", "--heads", "1", *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("step" if argv[0] == "--step" else "tolerance") in err
    if argv == ("--step", "1e308"):
        assert err.startswith("error: input.foreground.weight[0] nudged by step 1e+308: ")


@pytest.mark.parametrize("epochs", ["nan", "inf", "-inf"])
def test_train_rejects_non_finite_epochs(action_ds, tmp_path, capsys, epochs):
    out = tmp_path / "run"
    code = run_cli("train", "--data", action_ds, "--out", str(out), f"--epochs={epochs}")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: total_epochs must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize("batch_size", ["0", "-2"])
def test_train_rejects_bad_batch_size_before_making_out(action_ds, tmp_path, capsys, batch_size):
    out = tmp_path / "run"
    code = run_cli("train", "--data", action_ds, "--out", str(out), "--epochs", "1",
                   f"--batch-size={batch_size}")
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: batch_size must be positive, got {batch_size}")
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_scenegraph_eval_rejects_bad_k_before_making_out(tmp_path, capsys, monkeypatch, k):
    monkeypatch.setattr(cli, "evaluate_scenegraph", lambda *a, **kw: pytest.fail("evaluated"))
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=0, clips=2, keyframes=1,
                                     objects=3, relations=2, channels=5)
    config = ModelConfig(state_dim=4, heads=1, task="scenegraph", feature_channels=5,
                         object_classes=3, relation_classes=2)
    ckpt = str(tmp_path / "checkpoint.safetensors")
    save_checkpoint(ckpt, init_params(config, seed=0), config, seed=0)
    out = tmp_path / "ev"
    code = run_cli("eval", "--data", manifest, "--checkpoint", ckpt, "--out", str(out),
                   "--k", "1", f"--k={k}")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: recall cutoff k must be positive, got {k}")
    assert not out.exists()


@pytest.mark.parametrize("iou", ["nan", "2", "-1", "0"])
def test_eval_rejects_iou_outside_unit_interval(action_ds, tmp_path, capsys, iou):
    config = ModelConfig(state_dim=4, heads=1, feature_channels=6, action_classes=2)
    ckpt = str(tmp_path / "checkpoint.safetensors")
    save_checkpoint(ckpt, init_params(config, seed=0), config, seed=0)
    out = tmp_path / "ev"
    code = run_cli("eval", "--data", action_ds, "--checkpoint", ckpt, "--out", str(out),
                   f"--iou={iou}")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: IoU threshold must be in (0, 1]")
    assert not out.exists()


def test_config_file_merging(action_ds, tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"state_dim": 6, "heads": 3}, f)
    out = str(tmp_path / "run")
    code = run_cli("train", "--data", action_ds, "--out", out,
                   "--config", cfg_path, "--heads", "1", "--epochs", "1")
    assert code == 0
    _, config, _ = load_checkpoint(os.path.join(out, "checkpoint.safetensors"))
    assert config.state_dim == 6   # from the file
    assert config.heads == 1       # flag wins


def test_config_file_rejects_unknown_fields(action_ds, tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"hidden_size": 6}, f)
    code = run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run"),
                   "--config", cfg_path, "--epochs", "1")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: unknown config fields: "
                                              f"['hidden_size']")


@pytest.mark.parametrize("settings", [
    {"state_dim": "16"}, {"heads": 2.5}, {"iterations": None}, {"ln_eps": "x"},
    {"ln_eps": True}, {"seed": "x"}, {"seed": 1.5}, {"seed": -1}, {"tau_c": True},
    {"tau_s": True}, {"message_fns": "nonlocal"},
], ids=lambda settings: json.dumps(settings))
def test_config_file_rejects_wrong_types(action_ds, tmp_path, capsys, settings):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(settings, f)
    code = run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run"),
                   "--config", cfg_path, "--epochs", "1")
    assert code == 1
    [name] = settings
    assert f"error: {cfg_path}: {name} must be" in capsys.readouterr().err


def test_config_errors_name_the_file_only_for_its_values(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"state_dim": "x", "tau_c": 2}, f)
    flops = ("flops", "--fg", "2", "--context", "3", "--keyframes", "1", "--config", cfg_path)
    # a flag's error is the flag's, whatever the file holds
    assert run_cli(*flops, "--heads", "0") == 1
    assert capsys.readouterr().err == "error: heads must be positive, got 0\n"
    # a flag overriding the file's bad value leaves the file's other one to blame
    assert run_cli(*flops, "--state-dim", "4") == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: tau_c must be odd")
    assert run_cli(*flops, "--state-dim", "4", "--tau-c", "3") == 0
    # bytes that are not UTF-8, and nesting deeper than the JSON decoder recurses
    for blob in (b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000):
        with open(cfg_path, "wb") as f:
            f.write(blob)
        assert run_cli(*flops) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: cannot read config file")


HUGE = "4000000000000000000000"


def test_huge_state_dim_from_config_file_names_the_file(action_ds, tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"state_dim": 100_000_000_000}, f)
    for argv in (("train", "--data", action_ds, "--out", str(tmp_path / "run")),
                 ("gradcheck",)):
        assert run_cli(*argv, "--config", cfg_path) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: state_dim, heads, ")
    # flops allocates nothing, so it takes any size
    assert run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "1",
                   "--config", cfg_path) == 0


def test_huge_state_dim_flag_fails_cleanly(action_ds, tmp_path, capsys):
    for argv in (("train", "--data", action_ds, "--out", str(tmp_path / "run")),
                 ("gradcheck",)):
        assert run_cli(*argv, "--state-dim", HUGE) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: state_dim, heads, ") and "more than 100000000" in err
    assert run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "1",
                   "--state-dim", HUGE) == 0


def test_unreadable_manifest_grid_and_checkpoint_bytes_fail_cleanly(action_ds, tmp_path,
                                                                     capsys):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    with open(ckpt, "rb") as f:
        raw = f.read()
    # a header length past the end, a JSON file that is not UTF-8, a body one byte short
    for blob in (b"[" * 100_000, b'{"format": "\xff"}', raw[:-1]):
        with open(ckpt, "wb") as f:
            f.write(blob)
        assert run_cli("eval", "--data", action_ds, "--checkpoint", ckpt,
                       "--out", str(tmp_path / "ev")) == 1
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")
    # a NaN or infinite shape field in a grid header, then a manifest byte that is not UTF-8
    with open(action_ds) as f:
        grid = os.path.join(os.path.dirname(action_ds),
                            json.loads(f.read().splitlines()[1])["keyframes"][0]["grid"])
    header = np.fromfile(grid, dtype="<f4")
    for field in (np.nan, np.inf):
        header[2] = field
        header.tofile(grid)
        assert run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run2")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {action_ds}:2: ") and f"{grid}: grid shape" in err
    with open(action_ds, "ab") as f:
        f.write(b"\xff\xfe\n")
    assert run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run2")) == 1
    assert capsys.readouterr().err.startswith(f"error: {action_ds}:2: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
CONFIG_FIELDS = st.sampled_from(sorted(ModelConfig.__dataclass_fields__)) | st.text(max_size=6)
FIELD_VALUES = (JSON_VALUES | st.integers(-2, 6)
                | st.sampled_from(["nonlocal", "gat", "action", "scenegraph", 1e-5])
                | st.lists(st.sampled_from(["nonlocal", "gat", "x"]), max_size=3))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(config=JSON_VALUES | st.dictionaries(CONFIG_FIELDS, FIELD_VALUES, max_size=5))
def test_random_config_files_work_or_name_the_file(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(config, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "2",
                           "--config", cfg_path)
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith(f"error: {cfg_path}: ")), err.getvalue()


def test_dump_attention_neighbor_metadata(tmp_path):
    # 3 keyframes of 4x6 cells plus one proposal each; tau_c=3 adds temporal rows
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=2, clips=2, classes=2,
                                         keyframes=3, channels=4, grid_hw=(4, 6))
    ckpt = train_once(manifest, str(tmp_path / "run"), extra=("--tau-c", "3"))
    att_path = str(tmp_path / "att.jsonl")
    assert run_cli("dump-attention", "--data", manifest, "--checkpoint", ckpt,
                   "--out", att_path) == 0

    # expected metadata from the manifest alone: ids run over boxes, then
    # row-major cells, then proposals, keyframe after keyframe
    with open(manifest) as f:
        clip = json.loads(f.read().splitlines()[1])
    expected, fg_ids, all_ids = {}, [], []
    for kf in clip["keyframes"]:
        assert "detections" not in kf  # evaluation would score detections instead
        grid_path = os.path.join(os.path.dirname(manifest), kf["grid"])
        h, w = (int(v) for v in np.fromfile(grid_path, dtype="<f4", count=5)[3:5])
        rows = ([("foreground", entry["box"], None) for entry in kf["foreground"]]
                + [("context_implicit", None, [i, j]) for i in range(h) for j in range(w)]
                + [("context_explicit", box, None) for box in kf["proposals"]])
        ids = list(range(len(expected), len(expected) + len(rows)))
        for nid, (kind, box, cell) in zip(ids, rows):
            expected[nid] = {"node": nid, "kind": kind, "keyframe_id": kf["keyframe_id"],
                             "box": box, "cell": cell}
        fg_ids.append(ids[:len(kf["foreground"])])
        all_ids.append(ids)
    position = {nid: pos for pos, ids in enumerate(fg_ids) for nid in ids}

    attention = [r for r in map(json.loads, open(att_path)) if r["record"] == "attention"]
    seen_phases, seen_kinds = set(), set()
    for r in attention:
        pos = position[r["node"]]
        if r["phase"] == "spatial":
            want = all_ids[pos]
        else:
            want = [nid for p in (pos - 1, pos + 1) if 0 <= p < len(fg_ids) for nid in fg_ids[p]]
        assert [nb["node"] for nb in r["neighbors"]] == want
        for nb in r["neighbors"]:
            assert nb == expected[nb["node"]]
            seen_kinds.add(nb["kind"])
        seen_phases.add(r["phase"])
    assert seen_phases == {"spatial", "temporal"}
    assert seen_kinds == {"foreground", "context_implicit", "context_explicit"}


def test_dump_attention_file_contents(action_ds, tmp_path):
    out = str(tmp_path / "run")
    ckpt = train_once(action_ds, out, extra=("--message-fn", "nonlocal",
                                             "--message-fn", "gat", "--tau-c", "3"))
    att_path = str(tmp_path / "att.jsonl")
    code = run_cli("dump-attention", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", att_path, "--clip", "clip001")
    assert code == 0
    records = [json.loads(line) for line in open(att_path)]
    attention = [r for r in records if r["record"] == "attention"]
    gates = [r for r in records if r["record"] == "gate"]
    assert attention and gates
    assert all(r["clip_id"] == "clip001" for r in records)

    # every weight row in the file is a distribution
    for r in attention + gates:
        w = np.array(r["weights"])
        assert abs(w.sum() - 1.0) <= 1e-6
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
    for r in attention:
        assert len(r["neighbors"]) == len(r["weights"])
        for nb in r["neighbors"]:
            assert nb["kind"] in ("foreground", "context_implicit", "context_explicit")
            assert (nb["box"] is None) != (nb["cell"] is None)

    # spatial rows per function: one per fg node, head, and iteration
    params, config, _ = load_checkpoint(ckpt)
    info, clip_records = data.load_dataset(action_ds)
    record = [c for c in clip_records if c.clip_id == "clip001"][0]
    clip = data.featurize_clip(record, info, mode=data.EVAL_MODE)
    n_fg = sum(len(f.fg_boxes) for f in clip.frames)
    for fn in config.message_fns:
        rows = [r for r in attention if r["phase"] == "spatial" and r["function"] == fn]
        assert len(rows) == n_fg * config.heads * config.iterations

    # file weights agree with an in-memory trace
    graph = build_graph(clip.frames, params, config)
    result = run_inference(graph, params, config, record_traces=True)
    assert len(result.attention) == len(attention)
    for file_row, mem_row in zip(attention, result.attention):
        assert file_row["node"] == mem_row.node_id
        assert np.allclose(np.array(file_row["weights"]), mem_row.weights, atol=1e-9)


def test_dump_attention_unknown_clip(action_ds, tmp_path, capsys):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    code = run_cli("dump-attention", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "att.jsonl"), "--clip", "missing")
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_flops_command_writes_json(tmp_path, capsys):
    out_path = str(tmp_path / "flops.json")
    code = run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "4",
                   "--state-dim", "4", "--heads", "1", "--feature-channels", "3",
                   "--action-classes", "2", "--tau-c", "3")
    assert code == 0
    printed = capsys.readouterr().out
    # the criterion 9 configuration: 240 + 704 + 640 + 0 + 64
    assert "total = 1648" in printed
    code = run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "4",
                   "--state-dim", "4", "--heads", "1", "--feature-channels", "3",
                   "--action-classes", "2", "--tau-c", "3", "--out", out_path)
    assert code == 0
    payload = json.load(open(out_path))
    assert payload["total"] == 1648


@pytest.mark.parametrize("command,out", [
    ("synth", "file"), ("train", "file"), ("eval", "file"),
    ("dump-attention", "missing/att.jsonl"), ("flops", "missing/flops.json"),
])
def test_unusable_output_path_exits_one(action_ds, tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.setattr(cli, "train_loop", lambda *args, **kwargs: pytest.fail("trained"))
    monkeypatch.setattr(cli, "run_inference", lambda *args, **kwargs: pytest.fail("inferred"))
    config = ModelConfig(state_dim=4, heads=1, feature_channels=6, action_classes=2)
    ckpt = str(tmp_path / "checkpoint.safetensors")
    save_checkpoint(ckpt, init_params(config, seed=0), config, seed=0)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / out)
    argv = {
        "synth": ["synth", "action-overfit"],
        "train": ["train", "--data", action_ds, "--epochs", "1", "--state-dim", "4"],
        "eval": ["eval", "--data", action_ds, "--checkpoint", ckpt],
        "dump-attention": ["dump-attention", "--data", action_ds, "--checkpoint", ckpt],
        "flops": ["flops", "--fg", "1", "--context", "1", "--keyframes", "1"],
    }[command]
    code = run_cli(*argv, "--out", out)
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: {out}")
    # no result (eval's mAP, flops' estimate) is printed before the failure
    assert printed.out == ""


def test_synth_prints_manifest_path(tmp_path, capsys):
    code = run_cli("synth", "temporal-pairs", "--out", str(tmp_path / "tp"),
                   "--clips", "2", "--keyframes", "3", "--channels", "4")
    assert code == 0
    path = capsys.readouterr().out.strip()
    assert os.path.exists(path)


@pytest.mark.parametrize("argv", [
    # no keyframe has a neighbor at +-tau_s: the label sampler used to loop forever
    ("temporal-pairs", "--keyframes", "1"),
    ("temporal-pairs", "--keyframes", "3", "--tau-s", "3"),
    ("temporal-pairs", "--keyframes", "3", "--tau-s", "2"),
    ("temporal-pairs", "--tau-s", "0"),
    ("temporal-pairs", "--split", "-1"),
    ("action-overfit", "--classes", "0"),
    ("action-overfit", "--seed", "-1"),
    ("action-overfit", "--clips", "0"),
    ("scenegraph", "--objects", "0"),
    ("scenegraph", "--relations", "0"),
    ("scenegraph", "--keyframes", "0"),
    ("scenegraph", "--channels", "0"),
])
def test_synth_rejects_bad_counts_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "ds"
    code = run_cli("synth", *argv, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be at least" in err
    assert not out.exists()


def test_scenegraph_eval_reports_recall(tmp_path):
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=0, clips=3,
                                     keyframes=1, objects=3, relations=2, channels=5)
    out = str(tmp_path / "run")
    code = run_cli("train", "--data", manifest, "--out", out,
                   "--state-dim", "8", "--epochs", "2", "--seed", "0")
    assert code == 0
    code = run_cli("eval", "--data", manifest, "--checkpoint",
                   os.path.join(out, "checkpoint.safetensors"),
                   "--out", str(tmp_path / "ev"), "--k", "1", "--k", "10",
                   "--mode", "predcls")
    assert code == 0
    report = json.load(open(str(tmp_path / "ev" / "report.json")))
    assert set(report["recall"]) == {"1", "10"}
    assert report["mode"] == "predcls"


def test_scenegraph_eval_flags_saturated_recall(tmp_path, capsys):
    # synth scenegraph keyframes hold at most 3 boxes: 3 pairs x 3 predicates
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=0)
    out = str(tmp_path / "run")
    assert run_cli("train", "--data", manifest, "--out", out, "--state-dim", "4",
                   "--heads", "1", "--epochs", "1") == 0
    code = run_cli("eval", "--data", manifest, "--checkpoint", os.path.join(out, "checkpoint.safetensors"),
                   "--out", str(tmp_path / "ev"), "--k", "1", "--k", "20", "--k", "50")
    assert code == 0
    report = json.load(open(str(tmp_path / "ev" / "report.json")))
    assert report["max_candidates"] == 9
    assert report["saturated_k"] == [20, 50]
    last = capsys.readouterr().out.splitlines()[-1]
    assert "R@20, R@50" in last and "9 candidates" in last and "R@1," not in last
