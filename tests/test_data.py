"""Manifest, grid blob, featurization, and synthetic dataset tests."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgraph import data
from stgraph.data import (GRID_MAGIC, GRID_VERSION, DatasetInfo, load_dataset, one_hot, read_grid,
                          relation_target_matrix, save_dataset, write_grid)
from stgraph.errors import ValidationError
from stgraph.graph import Box
from stgraph.heads import pair_index

from json_fuzz import json_values, pick_path, set_at


def test_grid_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 3, 4, 5)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "a.grid")
    write_grid(path, values, keyframe_id=7)
    grid = read_grid(path)
    assert grid.keyframe_id == 7
    assert grid.shape == (2, 3, 4, 5)
    assert np.array_equal(grid.values.data, values)


@pytest.mark.parametrize("values,keyframe_id,match", [
    (np.zeros((1, 1, 1, 2)), 16777217, "exact in float32"),  # would read back as 16777216
    (np.full((1, 1, 1, 2), 1e39), 0, "within float32 range"),  # would be stored as inf
    (np.full((1, 1, 1, 2), np.nan), 0, "within float32 range"),
    (np.full((1, 1, 1, 2), 3e38), 0, "checksum"),  # each value fits, their sum does not
    (np.zeros((1, 1, 2)), 0, "4-d"),
])
def test_write_grid_refuses_what_read_grid_would(tmp_path, values, keyframe_id, match):
    path = tmp_path / "a.grid"
    with pytest.raises(ValidationError, match=f"^{path}: .*{match}"):
        write_grid(str(path), values, keyframe_id=keyframe_id)
    assert not path.exists()


def test_grid_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "a.grid")
    write_grid(path, np.zeros((1, 1, 1, 2)), keyframe_id=0)
    raw = bytearray(open(path, "rb").read())
    raw[0] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValidationError) as err:
        read_grid(path)
    assert "magic" in str(err.value)


def test_grid_rejects_corrupted_body(tmp_path):
    path = str(tmp_path / "a.grid")
    write_grid(path, np.ones((1, 2, 2, 2)), keyframe_id=0)
    raw = bytearray(open(path, "rb").read())
    raw[-4:] = np.float32(2.0).tobytes()  # swap the last value, header intact
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValidationError) as err:
        read_grid(path)
    assert "checksum" in str(err.value)


def test_grid_rejects_truncation(tmp_path):
    path = str(tmp_path / "a.grid")
    write_grid(path, np.ones((1, 2, 2, 2)), keyframe_id=0)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-4])
    with pytest.raises(ValidationError):
        read_grid(path)


def make_manifest(tmp_path, lines):
    os.makedirs(tmp_path / "grids", exist_ok=True)
    path = str(tmp_path / "manifest.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(json.dumps(obj) for obj in lines) + "\n")
    return path


HEADER = {"record": "header", "version": 1, "task": "action", "action_classes": 2}


def clip_obj(tmp_path, clip_id="c0", keyframe_id=0, box=(0.1, 0.1, 0.5, 0.5), labels=(1, 0)):
    os.makedirs(tmp_path / "grids", exist_ok=True)
    grid_rel = f"grids/{clip_id}_k{keyframe_id}.grid"
    write_grid(str(tmp_path / grid_rel), np.zeros((1, 2, 2, 3)), keyframe_id=keyframe_id)
    return {"record": "clip", "clip_id": clip_id, "keyframes": [{
        "keyframe_id": keyframe_id, "grid": grid_rel,
        "foreground": [{"box": list(box), "labels": list(labels)}]}]}


def test_manifest_error_cites_line_number(tmp_path):
    path = make_manifest(tmp_path, [HEADER, clip_obj(tmp_path),
                                    {"record": "clip", "clip_id": "c1", "keyframes": []}])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert f"{path}:3" in str(err.value)


def test_manifest_rejects_inverted_box(tmp_path):
    bad = clip_obj(tmp_path, box=(0.5, 0.1, 0.1, 0.5))
    path = make_manifest(tmp_path, [HEADER, bad])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    msg = str(err.value)
    assert f"{path}:2" in msg and "c0" in msg


def test_manifest_rejects_unsorted_keyframes(tmp_path):
    c = clip_obj(tmp_path)
    k2 = dict(c["keyframes"][0])
    write_grid(str(tmp_path / "grids/k5.grid"), np.zeros((1, 2, 2, 3)), keyframe_id=5)
    k2.update(keyframe_id=5, grid="grids/k5.grid")
    c["keyframes"] = [k2, c["keyframes"][0]]
    path = make_manifest(tmp_path, [HEADER, c])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "strictly increasing" in str(err.value)


def test_manifest_rejects_duplicate_clip_ids(tmp_path):
    path = make_manifest(tmp_path, [HEADER, clip_obj(tmp_path), clip_obj(tmp_path)])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "duplicate" in str(err.value)


def test_manifest_rejects_empty(tmp_path):
    path = make_manifest(tmp_path, [HEADER])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "no clips" in str(err.value)


def test_manifest_rejects_bad_json(tmp_path):
    path = str(tmp_path / "manifest.jsonl")
    with open(path, "w") as f:
        f.write(json.dumps(HEADER) + "\n{not json\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert f"{path}:2" in str(err.value) and "JSON" in str(err.value)


def test_manifest_rejects_wrong_label_count(tmp_path):
    bad = clip_obj(tmp_path, labels=(1, 0, 1))
    path = make_manifest(tmp_path, [HEADER, bad])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "labels" in str(err.value)


def test_manifest_rejects_mismatched_grid_ids(tmp_path):
    c = clip_obj(tmp_path)
    write_grid(str(tmp_path / "grids/odd.grid"), np.zeros((1, 2, 2, 3)), keyframe_id=9)
    c["keyframes"][0]["grid"] = "grids/odd.grid"
    path = make_manifest(tmp_path, [HEADER, c])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "keyframe 9" in str(err.value) or "says keyframe" in str(err.value)


def test_manifest_rejects_grid_shape_drift(tmp_path):
    c0 = clip_obj(tmp_path, clip_id="c0")
    c1 = clip_obj(tmp_path, clip_id="c1")
    write_grid(str(tmp_path / "grids/wide.grid"), np.zeros((1, 2, 3, 3)), keyframe_id=0)
    c1["keyframes"][0]["grid"] = "grids/wide.grid"
    path = make_manifest(tmp_path, [HEADER, c0, c1])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert "differs" in str(err.value)


def test_scenegraph_relations_validated(tmp_path):
    header = {"record": "header", "version": 1, "task": "scenegraph",
              "object_classes": 3, "relation_classes": 2}
    os.makedirs(tmp_path / "grids", exist_ok=True)
    write_grid(str(tmp_path / "grids/g.grid"), np.zeros((1, 2, 2, 3)), keyframe_id=0)
    def sg_clip(relations):
        return {"record": "clip", "clip_id": "c0", "keyframes": [{
            "keyframe_id": 0, "grid": "grids/g.grid",
            "foreground": [{"box": [0.1, 0.1, 0.4, 0.4], "object_class": 0},
                           {"box": [0.5, 0.5, 0.9, 0.9], "object_class": 2}],
            "relations": relations}]}
    os.makedirs(tmp_path / "grids", exist_ok=True)
    # subject must exceed object
    path = make_manifest(tmp_path, [header, sg_clip([[0, 1, 0]])])
    with pytest.raises(ValidationError):
        load_dataset(path)
    # predicate in range
    path = make_manifest(tmp_path, [header, sg_clip([[1, 0, 5]])])
    with pytest.raises(ValidationError):
        load_dataset(path)
    # the same triple twice would be counted twice by recall@K
    path = make_manifest(tmp_path, [header, sg_clip([[1, 0, 1], [1, 0, 0], [1, 0, 1]])])
    with pytest.raises(ValidationError, match=r"relation \[1, 0, 1\] listed twice$"):
        load_dataset(path)
    # a valid one loads
    path = make_manifest(tmp_path, [header, sg_clip([[1, 0, 1]])])
    info, clips = load_dataset(path)
    assert clips[0].keyframes[0].relations == [(1, 0, 1)]
    assert info.object_classes == 3


SG_HEADER = {"record": "header", "version": 1, "task": "scenegraph",
             "object_classes": 5, "relation_classes": 3}


def sg_keyframe_clip(tmp_path, boxes=16):
    """A scene-graph clip of one keyframe: boxes boxes, every pair related."""
    write_grid(str(tmp_path / "grids/sg.grid"), np.zeros((1, 4, 4, 3)), keyframe_id=0)
    foreground = [{"box": [0.05 * b, 0.02 * b, 0.05 * b + 0.2, 0.02 * b + 0.5],
                   "object_class": b % 5} for b in range(boxes)]
    relations = [[s, o, (s + o) % 3] for s, o in pair_index(boxes)]
    return {"record": "clip", "clip_id": "c0", "keyframes": [{
        "keyframe_id": 0, "grid": "grids/sg.grid", "foreground": foreground,
        "relations": relations}]}


@pytest.mark.parametrize("at,bad,message", [
    (119, [15, 15, 0],
     "relation [15, 15, 0]: need object index < subject index < 16 foreground boxes"),
    (57, [11, 1, 3], "relation [11, 1, 3]: predicate must be in [0, 3)"),
    (90, [13, 12, 1.0], "relation [13, 12, 1.0]: need [subject, object, predicate] integers"),
    (110, [14, 9, 2], "relation [14, 9, 2] listed twice"),  # entry 100 holds it first
])
def test_relation_error_names_the_bad_one_among_many(tmp_path, at, bad, message):
    os.makedirs(tmp_path / "grids", exist_ok=True)
    clip = sg_keyframe_clip(tmp_path)
    relations = clip["keyframes"][0]["relations"]
    assert len(relations) == 120
    relations[at] = bad
    path = make_manifest(tmp_path, [SG_HEADER, clip])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:2: clip c0: keyframe 0 {message}"


@pytest.mark.parametrize("at,field,value,message", [
    (15, "box", [0.5, 0.1, 0.4, 0.6],
     "foreground 15: degenerate box: need x1 < x2 and y1 < y2, got (0.5, 0.1, 0.4, 0.6)"),
    (9, "box", [0.1, 0.1, 0.4, "0.6"],
     "foreground 9: box must be [x1, y1, x2, y2] numbers, got [0.1, 0.1, 0.4, '0.6']"),
    (12, "box", [0.1, 0.1, 1.5, 0.6],
     "foreground 12: box coordinates must lie in [0, 1], got (0.1, 0.1, 1.5, 0.6)"),
    (4, "object_class", 5, "foreground 4: object_class must be an int in [0, 5)"),
    (7, "object_class", True, "foreground 7: object_class must be an int in [0, 5)"),
])
def test_foreground_error_names_the_bad_one_among_many(tmp_path, at, field, value, message):
    os.makedirs(tmp_path / "grids", exist_ok=True)
    clip = sg_keyframe_clip(tmp_path)
    clip["keyframes"][0]["foreground"][at][field] = value
    path = make_manifest(tmp_path, [SG_HEADER, clip])
    with pytest.raises(ValidationError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:2: clip c0: keyframe 0 {message}"


def test_many_relations_load_as_listed(tmp_path):
    os.makedirs(tmp_path / "grids", exist_ok=True)
    clip = sg_keyframe_clip(tmp_path)
    path = make_manifest(tmp_path, [SG_HEADER, clip])
    _, [record] = load_dataset(path)
    assert record.keyframes[0].relations == [tuple(r) for r in clip["keyframes"][0]["relations"]]


def test_relations_checked_at_once_as_one_by_one():
    # every pair related, plus one entry put in anywhere: a triple at or past a
    # bound, an entry of the wrong shape or type, or a repeat
    for task in ("action", "scenegraph"):
        info = DatasetInfo(task=task, object_classes=3, relation_classes=2)
        for nodes in range(1, 5):
            valid = [[s, o, (s * o) % 2] for s, o in pair_index(nodes)]
            extras = [[nodes, 0, 0], [nodes - 1, nodes - 1, 0], [1, -1, 0], [1, 0, 2], [1, 0, -1],
                      [1.0, 0, 0], [1, 0, True], [2 ** 70, 0, 0], [1, 0], [1, 0, 0, 0], None, 7,
                      *valid[:1]]
            for entries in [valid] + [valid[:at] + [extra] + valid[at:]
                                      for at in range(len(valid) + 1) for extra in extras]:
                try:
                    expected = data._relations_one_by_one(entries, nodes, info, "kf")
                except ValidationError:
                    expected = None  # refused at once, then named entry by entry
                assert data._relations_at_once(entries, nodes, info) == expected, entries


def test_dataset_save_load_round_trip(tmp_path):
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=3, clips=3,
                                         classes=2, keyframes=2, channels=4)
    info, clips = load_dataset(manifest)
    manifest2 = save_dataset(str(tmp_path / "copy"), info, clips)
    info2, clips2 = load_dataset(manifest2)
    assert info2.task == info.task and info2.action_classes == info.action_classes
    assert len(clips2) == len(clips)
    for a, b in zip(clips, clips2):
        assert a.clip_id == b.clip_id
        for ka, kb in zip(a.keyframes, b.keyframes):
            assert ka.keyframe_id == kb.keyframe_id
            assert np.array_equal(ka.action_labels, kb.action_labels)
            assert [x.as_list() for x in ka.fg_boxes] == [x.as_list() for x in kb.fg_boxes]
            # grids pass through float32 storage both times, so bytes match
            assert np.array_equal(ka.grid.values.data, kb.grid.values.data)


def test_one_hot_and_range_check():
    out = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValidationError):
        one_hot(np.array([3]), 3)


def test_relation_target_matrix_placement():
    # rows in heads.pair_index(3) order: (1, 0), (2, 0), (2, 1)
    out = relation_target_matrix(3, [(2, 0, 1), (1, 0, 0)], num_relations=2)
    assert np.array_equal(out, [[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValidationError):
        relation_target_matrix(3, [(0, 1, 0)], num_relations=2)
    # a predicate out of range, negative or too large, is refused like a bad pair
    for bad in [(1, 0, -1), (2, 1, 2)]:
        with pytest.raises(ValidationError,
                           match=re.escape(f"relation {bad} does not match any of 2 predicates")):
            relation_target_matrix(3, [(2, 0, 1), bad], num_relations=2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_relation_target_rows_follow_pair_index(n):
    pairs = pair_index(n)
    out = relation_target_matrix(n, [(s, o, (s + o) % 3) for s, o in pairs], num_relations=3)
    assert out.tolist() == [[float(r == (s + o) % 3) for r in range(3)] for s, o in pairs]
    for bad in [(n, 0, 0), (1, 1, 0), (1, -1, 0)]:
        with pytest.raises(ValidationError, match="does not match any node pair"):
            relation_target_matrix(n, [bad], num_relations=3)


def test_featurize_train_mode_appends_detections(tmp_path):
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=1, clips=1,
                                         classes=2, keyframes=1, channels=4)
    info, clips = load_dataset(manifest)
    kf = clips[0].keyframes[0]
    # a detection sitting right on a gt box inherits its labels
    kf.detections.append(kf.fg_boxes[0])
    feats = data.featurize_clip(clips[0], info, mode="train")
    n_gt = len(kf.fg_boxes)
    assert feats.frames[0].fg_feats.shape[0] == n_gt + 1
    assert np.array_equal(feats.action_labels[0][n_gt], kf.action_labels[0])
    # gt annotations are kept for metrics regardless
    assert len(feats.gt_boxes[0]) == n_gt
    # eval mode scores the detections alone
    ev = data.featurize_clip(clips[0], info, mode="eval")
    assert ev.frames[0].fg_feats.shape[0] == 1
    assert len(ev.gt_boxes[0]) == n_gt


def test_featurize_eval_without_detections_uses_gt(tmp_path):
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=1, clips=1,
                                         classes=2, keyframes=1, channels=4)
    info, clips = load_dataset(manifest)
    ev = data.featurize_clip(clips[0], info, mode="eval")
    assert ev.frames[0].fg_feats.shape[0] == len(clips[0].keyframes[0].fg_boxes)
    with pytest.raises(ValidationError):
        data.featurize_clip(clips[0], info, mode="predict")


def test_synth_temporal_pairs_structure(tmp_path):
    manifest = data.synth_temporal_pairs(str(tmp_path / "tp"), seed=5, split=0,
                                         clips=4, keyframes=5, channels=6, tau_s=2)
    info, clips = load_dataset(manifest)
    assert info.task == "action" and info.action_classes == 2
    for clip in clips:
        assert len(clip.keyframes) == 5
        for kf in clip.keyframes:
            assert len(kf.fg_boxes) == 1
            assert kf.action_labels.shape == (1, 2)
            assert kf.action_labels.sum() == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(keyframes=1), dict(keyframes=3, tau_s=2), dict(margin=1.0), dict(margin=float("nan")),
    dict(clips=0), dict(split=-1),
])
def test_synth_temporal_pairs_rejects_settings_it_cannot_sample(tmp_path, kwargs):
    # with no neighbor at +-tau_s, or a margin no code sum reaches, the
    # label sampler would redraw forever; the check runs before any draw
    out = tmp_path / "tp"
    with pytest.raises(ValidationError):
        data.synth_temporal_pairs(str(out), **kwargs)
    assert not out.exists()


def test_synth_temporal_pairs_splits_share_direction(tmp_path):
    # labels are recoverable from the codes at +-tau_s in both splits using
    # the direction recovered from split 0
    m0 = data.synth_temporal_pairs(str(tmp_path / "a"), seed=9, split=0, clips=6,
                                   keyframes=5, channels=6, tau_s=1)
    m1 = data.synth_temporal_pairs(str(tmp_path / "b"), seed=9, split=1, clips=6,
                                   keyframes=5, channels=6, tau_s=1)

    def codes_and_labels(manifest):
        info, clips = load_dataset(manifest)
        feats = [data.featurize_clip(c, info) for c in clips]
        rows, labels = [], []
        for f in feats:
            for pos in range(len(f.frames)):
                rows.append(f.frames[pos].fg_feats[0])
                labels.append(f.gt_action_labels[pos][0, 0])
        return np.array(rows), np.array(labels)

    x0, _ = codes_and_labels(m0)
    x1, _ = codes_and_labels(m1)
    # a node's own code cannot predict its own label (only the neighbors'
    # codes matter); instead verify both splits draw their codes from the
    # same 1-d subspace, so a direction learned on one transfers to the other
    u0 = np.linalg.svd(x0 - x0.mean(0))[2][0]
    u1 = np.linalg.svd(x1 - x1.mean(0))[2][0]
    assert abs(float(u0 @ u1)) > 0.99
    assert not np.array_equal(x0, x1)


def test_synth_scenegraph_canonical_pairs(tmp_path):
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=4, clips=3,
                                     keyframes=2, objects=4, relations=3, channels=5)
    info, clips = load_dataset(manifest)
    assert info.task == "scenegraph"
    saw_relation = False
    for clip in clips:
        for kf in clip.keyframes:
            n = len(kf.fg_boxes)
            assert kf.object_classes.shape == (n,)
            for s, o, r in kf.relations:
                saw_relation = True
                assert 0 <= o < s < n
                assert 0 <= r < info.relation_classes
    assert saw_relation


def test_synth_generators_are_deterministic(tmp_path):
    m1 = data.synth_action_overfit(str(tmp_path / "x"), seed=2, clips=2, channels=4)
    m2 = data.synth_action_overfit(str(tmp_path / "y"), seed=2, clips=2, channels=4)
    assert open(m1).read() == open(m2).read()
    g1 = sorted(os.listdir(os.path.join(str(tmp_path / "x"), "grids")))
    for name in g1:
        a = open(os.path.join(str(tmp_path / "x"), "grids", name), "rb").read()
        b = open(os.path.join(str(tmp_path / "y"), "grids", name), "rb").read()
        assert a == b


# -- fuzzed inputs: a mutated manifest line or grid blob either loads or
# fails with a ValidationError that names the file; nothing else escapes

FUZZ_VALUES = json_values(10 ** 400, -1, 0.5, True, "", "grids/missing.grid", "bad\x00path")


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A two-clip action dataset with proposals and detections, and its manifest lines."""
    out = str(tmp_path_factory.mktemp("fuzz"))
    manifest = data.synth_action_overfit(out, seed=0, clips=2, classes=2, keyframes=2,
                                         channels=3, grid_hw=(2, 2))
    with open(manifest, "rb") as f:
        lines = f.read().splitlines()
    clip = json.loads(lines[1])
    kf = clip["keyframes"][0]
    kf["proposals"] = [[0.2, 0.2, 0.6, 0.6]]
    kf["detections"] = [kf["foreground"][0]["box"]]
    lines[1] = json.dumps(clip).encode()
    return out, lines


def _load_everything(manifest: str) -> None:
    info, records = load_dataset(manifest)
    for record in records:
        for mode in (data.TRAIN_MODE, data.EVAL_MODE):
            data.featurize_clip(record, info, mode=mode)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(line=st.integers(0, 2), pick=st.integers(0, 10 ** 4),
       value=FUZZ_VALUES, junk=st.binary(min_size=1, max_size=3), at=st.integers(0, 10 ** 4),
       as_bytes=st.booleans())
def test_mutated_manifest_lines_load_or_name_the_file(fuzz_base, line, pick, value, junk, at,
                                                      as_bytes):
    out, lines = fuzz_base
    lines = list(lines)
    if as_bytes:
        # splice raw bytes (not UTF-8 more often than not) into the line
        at %= len(lines[line]) + 1
        lines[line] = lines[line][:at] + junk + lines[line][at:]
    else:
        obj = json.loads(lines[line])
        lines[line] = json.dumps(set_at(obj, pick_path(obj, pick), value)).encode()
    manifest = os.path.join(out, "mutated.jsonl")
    with open(manifest, "wb") as f:
        f.write(b"\n".join(lines) + b"\n")
    try:
        _load_everything(manifest)
    except ValidationError as err:
        assert str(err).startswith(f"{manifest}:"), str(err)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["truncate", "flip", "field"]), at=st.integers(0, 10 ** 4),
       bit=st.integers(0, 7),
       field=st.floats(width=32) | st.sampled_from([float("nan"), float("inf"), 2.0 ** 32]))
def test_damaged_grid_blobs_load_or_name_the_file(fuzz_base, kind, at, bit, field):
    out, lines = fuzz_base
    grid_rel = json.loads(lines[1])["keyframes"][0]["grid"]
    with open(os.path.join(out, grid_rel), "rb") as f:
        blob = bytearray(f.read())
    if kind == "truncate":
        blob = blob[:at % len(blob)]
    elif kind == "flip":
        blob[at % len(blob)] ^= 1 << bit
    else:
        # one header field after magic and version: t, h, w, c, keyframe id or checksum
        start = 4 * (2 + at % 6)
        blob[start:start + 4] = np.array([field], dtype="<f4").tobytes()
    path = os.path.join(out, "damaged.grid")
    with open(path, "wb") as f:
        f.write(bytes(blob))
    try:
        read_grid(path)
    except ValidationError as err:
        assert str(err).startswith(f"{path}: "), str(err)


@pytest.mark.parametrize("index,field", [(2, float("nan")), (2, float("inf")), (3, 2.5),
                                         (6, float("nan")), (6, float("inf")), (6, 0.5)])
def test_grid_header_needs_integer_shape_and_id(tmp_path, index, field):
    path = str(tmp_path / "a.grid")
    write_grid(path, np.zeros((1, 2, 2, 2)), keyframe_id=0)
    raw = np.fromfile(path, dtype="<f4")
    raw[index] = field
    raw.tofile(path)
    with pytest.raises(ValidationError, match=f"^{path}: grid shape and keyframe id"):
        read_grid(path)


def test_grid_size_is_checked_without_overflow(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64, which an empty body would match
    path = str(tmp_path / "a.grid")
    np.array([GRID_MAGIC, GRID_VERSION, 2.0 ** 32, 2.0 ** 32, 1, 1, 0, 0], dtype="<f4").tofile(path)
    with pytest.raises(ValidationError, match="header promises 18446744073709551616"):
        read_grid(path)


def test_manifest_rejects_non_utf8_and_deep_nesting(tmp_path):
    path = make_manifest(tmp_path, [HEADER, clip_obj(tmp_path)])
    for line in (b'{"record": "clip", "clip_id": "c\xff"}', b"[" * 100_000):
        with open(path, "wb") as f:
            f.write(json.dumps(HEADER).encode() + b"\n" + line + b"\n")
        with pytest.raises(ValidationError, match=f"^{path}:2: invalid JSON"):
            load_dataset(path)


def test_manifest_rejects_huge_box_coordinate_and_nul_grid_name(tmp_path):
    huge = clip_obj(tmp_path)
    huge["keyframes"][0]["foreground"][0]["box"][2] = 10 ** 400
    nul = clip_obj(tmp_path)
    nul["keyframes"][0]["grid"] = "grids/c0\x00_k0.grid"
    for clip in (huge, nul):
        path = make_manifest(tmp_path, [HEADER, clip])
        with pytest.raises(ValidationError, match=f"^{path}:2: clip c0"):
            load_dataset(path)
