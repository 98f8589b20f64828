"""Exit codes, report determinism, and attention dump checks for the CLI."""

import json
import os

import numpy as np
import pytest

from stgraph import data
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
    return os.path.join(out, "checkpoint.json")


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
    for name in ("checkpoint.json", "report.json", "report.txt"):
        a = open(str(tmp_path / "a" / name), "rb").read()
        b = open(str(tmp_path / "b" / name), "rb").read()
        assert a == b, name


def test_eval_thread_count_does_not_change_bytes(action_ds, tmp_path, monkeypatch):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    monkeypatch.setenv("STGRAPH_THREADS", "1")
    assert run_cli("eval", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "e1")) == 0
    monkeypatch.setenv("STGRAPH_THREADS", "4")
    assert run_cli("eval", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "e4")) == 0
    a = open(str(tmp_path / "e1" / "report.json"), "rb").read()
    b = open(str(tmp_path / "e4" / "report.json"), "rb").read()
    assert a == b


def test_bad_thread_env_fails_cleanly(action_ds, tmp_path, monkeypatch, capsys):
    ckpt = train_once(action_ds, str(tmp_path / "run"))
    monkeypatch.setenv("STGRAPH_THREADS", "zero")
    code = run_cli("eval", "--data", action_ds, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "ev"))
    assert code == 1
    assert "STGRAPH_THREADS" in capsys.readouterr().err


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


def _break_top_level(payload):
    return [1, 2]


def _drop_config(payload):
    return {"format": payload["format"], "version": payload["version"]}


def _bad_config(payload):
    payload["config"]["tau_c"] = 2
    return payload


def _bad_params_entry(payload):
    payload["params"]["readout.action.bias"] = [0.0, 0.0]
    return payload


def _drop_params(payload):
    del payload["params"]
    return payload


@pytest.mark.parametrize("corrupt", [_break_top_level, _drop_config, _bad_config,
                                     _bad_params_entry, _drop_params])
def test_malformed_checkpoint_exits_one(action_ds, tmp_path, capsys, corrupt):
    config = ModelConfig(state_dim=4, heads=1, feature_channels=6, action_classes=2)
    path = str(tmp_path / "checkpoint.json")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    with open(path) as f:
        payload = corrupt(json.load(f))
    with open(path, "w") as f:
        json.dump(payload, f)
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


def test_config_file_merging(action_ds, tmp_path):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"state_dim": 6, "heads": 3}, f)
    out = str(tmp_path / "run")
    code = run_cli("train", "--data", action_ds, "--out", out,
                   "--config", cfg_path, "--heads", "1", "--epochs", "1")
    assert code == 0
    _, config, _ = load_checkpoint(os.path.join(out, "checkpoint.json"))
    assert config.state_dim == 6   # from the file
    assert config.heads == 1       # flag wins


def test_config_file_rejects_unknown_fields(action_ds, tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"hidden_size": 6}, f)
    code = run_cli("train", "--data", action_ds, "--out", str(tmp_path / "run"),
                   "--config", cfg_path, "--epochs", "1")
    assert code == 1
    assert "hidden_size" in capsys.readouterr().err


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
    assert f"error: {name} must be" in capsys.readouterr().err


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
    assert "total = 2288" in printed
    code = run_cli("flops", "--fg", "2", "--context", "3", "--keyframes", "4",
                   "--state-dim", "4", "--heads", "1", "--feature-channels", "3",
                   "--action-classes", "2", "--tau-c", "3", "--out", out_path)
    assert code == 0
    payload = json.load(open(out_path))
    assert payload["total"] == 2288


def test_synth_prints_manifest_path(tmp_path, capsys):
    code = run_cli("synth", "temporal-pairs", "--out", str(tmp_path / "tp"),
                   "--clips", "2", "--keyframes", "3", "--channels", "4")
    assert code == 0
    path = capsys.readouterr().out.strip()
    assert os.path.exists(path)


def test_scenegraph_eval_reports_recall(tmp_path):
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=0, clips=3,
                                     keyframes=1, objects=3, relations=2, channels=5)
    out = str(tmp_path / "run")
    code = run_cli("train", "--data", manifest, "--out", out,
                   "--state-dim", "8", "--epochs", "2", "--seed", "0")
    assert code == 0
    code = run_cli("eval", "--data", manifest, "--checkpoint",
                   os.path.join(out, "checkpoint.json"),
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
    code = run_cli("eval", "--data", manifest, "--checkpoint", os.path.join(out, "checkpoint.json"),
                   "--out", str(tmp_path / "ev"), "--k", "1", "--k", "20", "--k", "50")
    assert code == 0
    report = json.load(open(str(tmp_path / "ev" / "report.json")))
    assert report["max_candidates"] == 9
    assert report["saturated_k"] == [20, 50]
    last = capsys.readouterr().out.splitlines()[-1]
    assert "R@20, R@50" in last and "9 candidates" in last and "R@1," not in last
