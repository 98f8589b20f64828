"""Dataset manifests, grid blobs, featurization, and synthetic clips.

A dataset is a line-delimited JSON manifest next to a directory of grid
blobs.  The first line is a header record naming the task and class
counts; every following line is one clip.  Grid blobs are little-endian
float32: an 8-value header (magic, version, t, h, w, c, keyframe id,
checksum) followed by t*h*w*c values in C order, and nothing after them.

Clips in a manifest:

    {"record": "clip", "clip_id": "c0", "keyframes": [
        {"keyframe_id": 0, "grid": "grids/c0_k0.grid",
         "foreground": [{"box": [x1, y1, x2, y2], "labels": [0, 1]}],
         "proposals": [[x1, y1, x2, y2]],
         "detections": [[x1, y1, x2, y2]]}]}

Scene-graph keyframes carry {"box": ..., "object_class": k} per
foreground entry plus "relations": [[subject, object, predicate], ...]
with subject index > object index.
"""

import json
import math
import operator
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import numgrad as ng
from .errors import ValidationError
from .graph import Box, FeatureGrid, KeyframeFeatures, featurize_keyframe
from .heads import pair_index, pair_row
from .metrics import detection_training_samples
from .numgrad import Tensor

GRID_MAGIC = 314159.0
GRID_VERSION = 1.0
MANIFEST_VERSION = 1

TRAIN_MODE = "train"
EVAL_MODE = "eval"


def write_grid(path: str, values: np.ndarray, keyframe_id: int) -> None:
    """Store a (t, h, w, c) grid as a little-endian float32 blob, refusing one read_grid would."""
    wide = np.asarray(values, dtype=np.float64)
    if wide.ndim != 4:
        raise ValidationError(f"{path}: grid values must be 4-d (t, h, w, c), got {wide.shape}")
    if not np.all(np.abs(wide) <= np.finfo(np.float32).max):  # False for NaN too
        raise ValidationError(f"{path}: grid values must be finite and within float32 range")
    for v in (*wide.shape, keyframe_id):  # np.float32 of an int above 2**127 overflows
        if not (abs(v) <= 2 ** 127 and int(np.float32(v)) == v):
            raise ValidationError(f"{path}: grid header value {v} is not exact in float32")
    arr = wide.astype("<f4")
    checksum = arr.astype(np.float64).sum()
    if not abs(checksum) <= np.finfo(np.float32).max:
        raise ValidationError(f"{path}: grid checksum {checksum!r} is beyond float32 range")
    header = np.array(
        [GRID_MAGIC, GRID_VERSION, *arr.shape, float(keyframe_id), checksum], dtype="<f4")
    with open(path, "wb") as f:
        f.write(header.tobytes())
        f.write(arr.tobytes())


def _check_grids(raw: np.ndarray, nbytes: int, paths: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Check grid blobs of nbytes bytes each, row j of raw holding the whole values of paths[j].

    Returns each row's (t, h, w, c, keyframe id) and its payload, both as
    float64.  Each check runs over every row at once, in this order:
    header length, magic, version, whole-number fields, shape, size, stray
    bytes, finiteness, checksum.  The first that fails raises a
    ValidationError naming the first row failing it.  A float64 row sum of
    float32 values is finite exactly when they all are, so the checksum's
    sums also check finiteness.
    """
    if raw.shape[1] < 8:
        raise ValidationError(f"{paths[0]}: truncated grid header")

    def refuse(bad: np.ndarray, message) -> None:
        if bad.any():
            at = int(bad.argmax())
            raise ValidationError(f"{paths[at]}: {message(raw[at])}")

    def shape(row) -> tuple[int, ...]:
        return tuple(int(v) for v in row[2:6].tolist())

    refuse(raw[:, 0] != np.float32(GRID_MAGIC), lambda row: f"bad grid magic {row[0]!r}")
    refuse(raw[:, 1] != np.float32(GRID_VERSION),
           lambda row: f"unsupported grid version {row[1]!r}")
    fields = raw[:, 2:7].astype(np.float64)
    refuse(~(np.isfinite(fields) & (np.trunc(fields) == fields)).all(axis=1),
           lambda row: f"grid shape and keyframe id must be integers, got {row[2:7].tolist()}")
    refuse((fields[:, :4] < 1).any(axis=1), lambda row: f"invalid grid shape {shape(row)}")
    size = raw.shape[1] - 8
    # exact: a float64 product of whole numbers is not rounded below 2**53, nor rounded
    # down to below it from above
    refuse(fields[:, :4].prod(axis=1) != size,
           lambda row: f"grid holds {size} values, header promises {math.prod(shape(row))}")
    if nbytes % 4:
        raise ValidationError(f"{paths[0]}: grid has {nbytes % 4} stray bytes after its values")
    values = raw[:, 8:].astype(np.float64)
    sums = values.sum(axis=1)  # bit for bit each row's own values.sum()
    refuse(~np.isfinite(sums), lambda row: "grid contains non-finite values")
    with np.errstate(over="ignore"):  # a sum beyond float32 range matches no checksum
        refuse(sums.astype(np.float32) != raw[:, 7], lambda row: "grid checksum mismatch")
    return fields, values


def _grid(values: np.ndarray, fields: list[float]) -> FeatureGrid:
    """A read-only FeatureGrid over one checked row of _check_grids."""
    t, h, w, c, kid = (int(v) for v in fields)
    # checked finite, so the Tensor skips its own scan
    return FeatureGrid(values=ng._wrap(values.reshape(t, h, w, c)), keyframe_id=kid)


def read_grid(path: str) -> FeatureGrid:
    """Load one grid blob, checked as _check_grids checks a row."""
    with open(path, "rb") as f:
        blob = f.read()
    raw = np.frombuffer(blob, dtype="<f4", count=len(blob) // 4).reshape(1, -1)
    fields, values = _check_grids(raw, len(blob), [path])
    return _grid(values[0], fields[0].tolist())


def _read_grids(paths: list[str]) -> tuple[list[FeatureGrid], np.ndarray]:
    """read_grid of every path, with one buffer and one _check_grids per blob length.

    Each file is read straight into its own row of its length's buffer,
    with no bytes object per file.  Returns the grids in the order of paths,
    each a read-only view of its row of the payloads, and their rows of
    (t, h, w, c, keyframe id).
    """
    sizes = np.array(list(map(os.path.getsize, paths)), dtype=np.int64)
    lengths, group = np.unique(sizes, return_inverse=True)
    grids: list = [None] * len(paths)
    fields = np.empty((len(paths), 5))
    for g, nbytes in enumerate(lengths.tolist()):
        members = np.flatnonzero(group == g).tolist()
        raw = np.empty((len(members), nbytes // 4), dtype="<f4")
        got = 0
        for row, i in zip(raw, members):
            fd = os.open(paths[i], os.O_RDONLY)
            try:
                got += os.readv(fd, [row])
            finally:
                os.close(fd)
        if got != raw.nbytes:
            raise ValidationError(f"{paths[members[0]]}: a grid file changed while read")
        checked, values = _check_grids(raw, nbytes, [paths[i] for i in members])
        fields[members] = checked
        for i, row, f in zip(members, values, checked.tolist()):
            grids[i] = _grid(row, f)
    return grids, fields


@dataclass
class DatasetInfo:
    task: str
    action_classes: int | None = None
    object_classes: int | None = None
    relation_classes: int | None = None
    grid_shape: tuple[int, int, int] | None = None  # shared (h, w, c)


@dataclass
class KeyframeRecord:
    keyframe_id: int
    grid: FeatureGrid
    fg_boxes: list[Box]
    action_labels: np.ndarray | None = None    # (n, C)
    object_classes: np.ndarray | None = None   # (n,)
    relations: list[tuple[int, int, int]] = field(default_factory=list)
    proposals: list[Box] = field(default_factory=list)
    detections: list[Box] = field(default_factory=list)


@dataclass
class ClipRecord:
    clip_id: str
    keyframes: list[KeyframeRecord]


# the types json.loads gives JSON integers and numbers (a bool's type is
# bool, not int)
_JSON_INTEGERS = frozenset((int,))
_JSON_NUMBERS = frozenset((int, float))


def _box_from(coords, where: str) -> Box:
    if (not isinstance(coords, (list, tuple)) or len(coords) != 4
            or not _JSON_NUMBERS.issuperset(map(type, coords))):
        raise ValidationError(f"{where}: box must be [x1, y1, x2, y2] numbers, got {coords!r}")
    try:
        return Box(*(float(v) for v in coords))
    except (ValidationError, OverflowError) as err:  # float() of a huge JSON integer
        raise ValidationError(f"{where}: {err}") from None


def _is_int(value) -> bool:
    """True for a JSON integer (booleans excluded)."""
    return type(value) is int


def _is_count(value) -> bool:
    """True for a positive JSON integer (booleans excluded)."""
    return _is_int(value) and value >= 1


def _list_field(obj: dict, key: str, where: str) -> list:
    """obj[key] when it is a JSON array, [] when it is absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key} must be a list, got {value!r}")
    return value


def _relations_at_once(entries: list, nodes: int, info: DatasetInfo):
    """(subject, object, predicate) tuples of relation entries, None if any is bad or repeats."""
    if not entries:
        return []
    if (info.task != "scenegraph" or not {list}.issuperset(map(type, entries))
            or not {3}.issuperset(map(len, entries))
            or not _JSON_INTEGERS.issuperset(map(type, chain.from_iterable(entries)))):
        return None
    subjects, objects, predicates = zip(*entries)
    if (min(objects) < 0 or max(subjects) >= nodes or not all(map(operator.lt, objects, subjects))
            or min(predicates) < 0 or max(predicates) >= info.relation_classes):
        return None
    relations = list(map(tuple, entries))
    return relations if len(set(relations)) == len(relations) else None


def _relations_one_by_one(entries: list, nodes: int, info: DatasetInfo, here: str):
    """_relations_at_once entry by entry, raising for the first bad entry."""
    relations, seen = [], set()
    for entry in entries:
        spot = f"{here} relation {entry!r}"
        if info.task != "scenegraph":
            raise ValidationError(f"{spot}: relations only belong to scene-graph datasets")
        if (not isinstance(entry, list) or len(entry) != 3
                or not _JSON_INTEGERS.issuperset(map(type, entry))):
            raise ValidationError(f"{spot}: need [subject, object, predicate] integers")
        s, o, r = entry
        if not (0 <= o < s < nodes):
            raise ValidationError(
                f"{spot}: need object index < subject index < {nodes} foreground boxes")
        if not 0 <= r < info.relation_classes:
            raise ValidationError(f"{spot}: predicate must be in [0, {info.relation_classes})")
        if (s, o, r) in seen:
            raise ValidationError(f"{spot} listed twice")
        seen.add((s, o, r))
        relations.append((s, o, r))
    return relations


def _read_keyframe_grid(path: str, kid: int, where: str) -> FeatureGrid:
    """read_grid of one keyframe's grid, whose header must give the manifest's keyframe id."""
    try:
        grid = read_grid(path)
    except (OSError, ValidationError) as err:
        raise ValidationError(f"{where}: {err}") from None
    if grid.keyframe_id != kid:
        raise ValidationError(
            f"{where}: grid header says keyframe {grid.keyframe_id}, manifest says {kid}")
    return grid


def _parse_keyframe(obj, info: DatasetInfo, base_dir: str, where: str, read) -> KeyframeRecord:
    """One keyframe's record, its grid read(path, keyframe id, where).

    Its relations are checked all at once, and only when that finds a
    fault entry by entry, so that the error names the first bad one.
    """
    if not isinstance(obj, dict) or "keyframe_id" not in obj or "grid" not in obj:
        raise ValidationError(f"{where}: keyframe needs 'keyframe_id' and 'grid'")
    kid = obj["keyframe_id"]
    if not _is_int(kid):
        raise ValidationError(f"{where}: keyframe_id must be an integer, got {kid!r}")
    if not isinstance(obj["grid"], str) or "\0" in obj["grid"]:
        raise ValidationError(f"{where}: grid must be a file name, got {obj['grid']!r}")
    grid = read(os.path.join(base_dir, obj["grid"]), kid, where)
    here = f"{where}: keyframe {kid}"
    fg_entries = _list_field(obj, "foreground", here)
    if not fg_entries:
        raise ValidationError(f"{here} has no foreground boxes")
    boxes, action_labels, object_classes = [], [], []
    for e, entry in enumerate(fg_entries):
        spot = f"{here} foreground {e}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{spot}: must be an object, got {entry!r}")
        boxes.append(_box_from(entry.get("box"), spot))
        if info.task == "action":
            labels = entry.get("labels")
            if not isinstance(labels, list) or len(labels) != info.action_classes:
                raise ValidationError(f"{spot}: need {info.action_classes} labels")
            if any(not _is_int(v) or v not in (0, 1) for v in labels):
                raise ValidationError(f"{spot}: labels must be 0 or 1")
            action_labels.append([float(v) for v in labels])
        else:
            cls = entry.get("object_class")
            if not _is_int(cls) or not 0 <= cls < info.object_classes:
                raise ValidationError(
                    f"{spot}: object_class must be an int in [0, {info.object_classes})")
            object_classes.append(cls)
    rel_entries = _list_field(obj, "relations", here)
    relations = _relations_at_once(rel_entries, len(boxes), info)
    if relations is None:
        relations = _relations_one_by_one(rel_entries, len(boxes), info, here)
    proposals = [_box_from(b, f"{here} proposal {i}")
                 for i, b in enumerate(_list_field(obj, "proposals", here))]
    detections = [_box_from(b, f"{here} detection {i}")
                  for i, b in enumerate(_list_field(obj, "detections", here))]
    return KeyframeRecord(
        keyframe_id=kid,
        grid=grid,
        fg_boxes=boxes,
        action_labels=np.array(action_labels) if info.task == "action" else None,
        object_classes=np.array(object_classes, dtype=int) if info.task == "scenegraph" else None,
        relations=relations,
        proposals=proposals,
        detections=detections,
    )


def load_dataset(manifest_path: str) -> tuple[DatasetInfo, list[ClipRecord]]:
    """Parse a manifest and load every referenced grid.

    One walk over the lines checks every record, and the grids are then
    read and checked as one array per blob length, their keyframe ids
    against the manifest's and their (h, w, c) against the first's.  Only
    when that finds a fault does a second walk read them keyframe by
    keyframe, so that the error names the first fault in manifest order.
    Errors carry the manifest path and line number of the offending record.
    """
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "rb") as f:
            lines = f.read().splitlines()
    except OSError as err:
        raise ValidationError(f"cannot read manifest: {err}") from None
    try:
        paths = []
        info, clips = _walk(manifest_path, lines, base_dir,
                            lambda path, kid, where: paths.append(path))
        grids, fields = _read_grids(paths)
        keyframes = [kf for clip in clips for kf in clip.keyframes]
        if (fields[:, 4].tolist() != [kf.keyframe_id for kf in keyframes]
                or (fields[:, 1:4] != fields[0, 1:4]).any()):
            raise ValidationError(f"{manifest_path}: grid keyframe ids or (h, w, c) differ")
    except (OSError, ValidationError):
        return _walk(manifest_path, lines, base_dir, _read_keyframe_grid)
    for kf, grid in zip(keyframes, grids):
        kf.grid = grid
    info.grid_shape = grids[0].shape[1:]
    return info, clips


def _walk(manifest_path: str, lines: list[bytes], base_dir: str,
          read) -> tuple[DatasetInfo, list[ClipRecord]]:
    """The manifest's records, each checked in turn, keyframe grids from read(path, id, where).

    A read that returns a grid has its (h, w, c) checked against the
    first's here; one that returns None leaves grid and grid_shape None.
    """
    info: DatasetInfo | None = None
    clips: list[ClipRecord] = []
    seen_ids: set[str] = set()
    grid_shape: tuple[int, int, int] | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{manifest_path}:{lineno}"
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as err:
            # ValueError covers bad UTF-8 and bad JSON alike
            raise ValidationError(f"{where}: invalid JSON: {err}") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: record must be a JSON object")
        kind = obj.get("record")
        if info is None:
            if kind != "header":
                raise ValidationError(f"{where}: first record must be the header")
            task = obj.get("task")
            if task not in ("action", "scenegraph"):
                raise ValidationError(f"{where}: unknown task {task!r}")
            if not _is_int(obj.get("version")) or obj["version"] != MANIFEST_VERSION:
                raise ValidationError(f"{where}: unsupported manifest version {obj.get('version')!r}")
            info = DatasetInfo(
                task=task,
                action_classes=obj.get("action_classes") if task == "action" else None,
                object_classes=obj.get("object_classes") if task == "scenegraph" else None,
                relation_classes=obj.get("relation_classes") if task == "scenegraph" else None,
            )
            if task == "action" and not _is_count(info.action_classes):
                raise ValidationError(f"{where}: header needs a positive action_classes")
            if task == "scenegraph" and not (
                    _is_count(info.object_classes) and _is_count(info.relation_classes)):
                raise ValidationError(f"{where}: header needs object_classes and relation_classes")
            continue
        if kind != "clip":
            raise ValidationError(f"{where}: unknown record kind {kind!r}")
        clip_id = obj.get("clip_id")
        if not isinstance(clip_id, str) or not clip_id:
            raise ValidationError(f"{where}: clip needs a string clip_id")
        if clip_id in seen_ids:
            raise ValidationError(f"{where}: duplicate clip_id {clip_id!r}")
        seen_ids.add(clip_id)
        kf_objs = obj.get("keyframes")
        if not isinstance(kf_objs, list) or not kf_objs:
            raise ValidationError(f"{where}: clip {clip_id} needs a nonempty list of keyframes")
        keyframes = []
        last_id = None
        for kf_obj in kf_objs:
            kf = _parse_keyframe(kf_obj, info, base_dir, f"{where}: clip {clip_id}", read)
            if last_id is not None and kf.keyframe_id <= last_id:
                raise ValidationError(
                    f"{where}: clip {clip_id}: keyframe ids must be strictly increasing "
                    f"({last_id} then {kf.keyframe_id})")
            last_id = kf.keyframe_id
            if kf.grid is not None:
                t, h, w, c = kf.grid.shape
                if grid_shape is None:
                    grid_shape = (h, w, c)
                elif grid_shape != (h, w, c):
                    raise ValidationError(f"{where}: clip {clip_id}: grid (h, w, c) {(h, w, c)} "
                                          f"differs from {grid_shape}")
            keyframes.append(kf)
        clips.append(ClipRecord(clip_id=clip_id, keyframes=keyframes))
    if info is None:
        raise ValidationError(f"{manifest_path}: empty manifest")
    if not clips:
        raise ValidationError(f"{manifest_path}: no clips")
    info.grid_shape = grid_shape
    return info, clips


def save_dataset(out_dir: str, info: DatasetInfo, clips: list[ClipRecord]) -> str:
    """Write manifest.jsonl plus one grid blob per keyframe; returns the manifest path."""
    grids_dir = os.path.join(out_dir, "grids")
    os.makedirs(grids_dir, exist_ok=True)
    header: dict = {"record": "header", "version": MANIFEST_VERSION, "task": info.task}
    if info.task == "action":
        header["action_classes"] = info.action_classes
    else:
        header["object_classes"] = info.object_classes
        header["relation_classes"] = info.relation_classes
    lines = [json.dumps(header, sort_keys=True)]
    for clip in clips:
        kf_objs = []
        for kf in clip.keyframes:
            rel_path = os.path.join("grids", f"{clip.clip_id}_k{kf.keyframe_id}.grid")
            write_grid(os.path.join(out_dir, rel_path), kf.grid.values.data, kf.keyframe_id)
            entry: dict = {"keyframe_id": kf.keyframe_id, "grid": rel_path}
            fg = []
            for i, box in enumerate(kf.fg_boxes):
                item: dict = {"box": box.as_list()}
                if info.task == "action":
                    item["labels"] = [int(v) for v in kf.action_labels[i]]
                else:
                    item["object_class"] = int(kf.object_classes[i])
                fg.append(item)
            entry["foreground"] = fg
            if kf.relations:
                entry["relations"] = [[s, o, r] for s, o, r in kf.relations]
            if kf.proposals:
                entry["proposals"] = [b.as_list() for b in kf.proposals]
            if kf.detections:
                entry["detections"] = [b.as_list() for b in kf.detections]
            kf_objs.append(entry)
        lines.append(json.dumps({"record": "clip", "clip_id": clip.clip_id, "keyframes": kf_objs},
                                sort_keys=True))
    manifest = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    return manifest


def one_hot(classes: np.ndarray, num_classes: int) -> np.ndarray:
    classes = np.asarray(classes, dtype=int)
    if classes.size and (classes.min() < 0 or classes.max() >= num_classes):
        raise ValidationError(f"class ids out of range [0, {num_classes})")
    out = np.zeros((classes.size, num_classes))
    out[np.arange(classes.size), classes] = 1.0
    return out


def relation_target_matrix(n: int, relations, num_relations: int) -> np.ndarray:
    """Multi-hot targets from (s, o, r) triples over n nodes, one row per heads.pair_index pair.

    Pair (s, o), s > o, sits at row heads.pair_row(s, o).
    """
    out = np.zeros((n * (n - 1) // 2, num_relations))
    for s, o, r in relations:
        if not (0 <= o < s < n and 0 <= r < num_relations):
            what = f"any of {num_relations} predicates" if 0 <= o < s < n else "any node pair"
            raise ValidationError(f"relation ({s}, {o}, {r}) does not match {what}")
        out[pair_row(s, o), r] = 1.0
    return out


@dataclass
class ClipFeatures:
    """Featurized clip ready for graph building.

    frames holds the boxes the model scores (training may append labeled
    detections; evaluation scores detections when present).  gt_* keeps
    the raw annotations for metrics.  The scene-graph targets are built
    from object_classes and relations on first use and kept, read-only,
    per class count, so a training run builds each keyframe's once; they
    are not built here, where every clip would pay for them before its
    first step, nor rebuilt if those fields change afterwards.
    """

    clip_id: str
    frames: list[KeyframeFeatures]
    action_labels: list[np.ndarray] | None = None
    object_classes: list[np.ndarray] | None = None
    relations: list[list[tuple[int, int, int]]] | None = None
    gt_boxes: list[list[Box]] = field(default_factory=list)
    gt_action_labels: list[np.ndarray] | None = None
    keyframe_ids: list[int] = field(default_factory=list)
    _targets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def one_hots(self, num_classes: int) -> list[np.ndarray]:
        """one_hot of every keyframe's object classes, in keyframe order."""
        key = ("objects", num_classes)
        if key not in self._targets:
            self._targets[key] = [_read_only(one_hot(c, num_classes))
                                  for c in self.object_classes]
        return self._targets[key]

    def relation_targets(self, local: int, num_relations: int) -> np.ndarray:
        """relation_target_matrix of keyframe local's relations over its boxes."""
        built = self._targets.setdefault(("relations", num_relations), {})
        if local not in built:
            built[local] = _read_only(relation_target_matrix(
                self.frames[local].fg_feats.shape[0], self.relations[local], num_relations))
        return built[local]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def featurize_clip(clip: ClipRecord, info: DatasetInfo, mode: str = TRAIN_MODE) -> ClipFeatures:
    """Pool features for every keyframe of a clip.

    Training mode on the action task augments the ground truth boxes with
    labeled detections; evaluation mode scores the detections alone when
    any are present, the annotated boxes otherwise.
    """
    if mode not in (TRAIN_MODE, EVAL_MODE):
        raise ValidationError(f"unknown featurize mode {mode!r}")
    frames: list[KeyframeFeatures] = []
    action_labels: list[np.ndarray] = []
    object_classes: list[np.ndarray] = []
    relations: list[list[tuple[int, int, int]]] = []
    gt_boxes: list[list[Box]] = []
    gt_action: list[np.ndarray] = []
    keyframe_ids: list[int] = []
    for kf in clip.keyframes:
        boxes = kf.fg_boxes
        if info.task == "action":
            labels = kf.action_labels
            if kf.detections:
                if mode == TRAIN_MODE:
                    boxes, labels = detection_training_samples(
                        kf.detections, kf.fg_boxes, kf.action_labels)
                else:
                    boxes, labels = kf.detections, None
            action_labels.append(labels)
            gt_action.append(kf.action_labels)
        else:
            object_classes.append(kf.object_classes)
            relations.append(list(kf.relations))
        frames.append(featurize_keyframe(kf.grid, boxes, kf.proposals))
        gt_boxes.append(list(kf.fg_boxes))
        keyframe_ids.append(kf.keyframe_id)
    return ClipFeatures(
        clip_id=clip.clip_id,
        frames=frames,
        action_labels=action_labels if info.task == "action" else None,
        object_classes=object_classes if info.task == "scenegraph" else None,
        relations=relations if info.task == "scenegraph" else None,
        gt_boxes=gt_boxes,
        gt_action_labels=gt_action if info.task == "action" else None,
        keyframe_ids=keyframe_ids,
    )


# ---------------------------------------------------------------------------
# synthetic datasets


def _check_at_least(**bounds: tuple[int, int]) -> None:
    """Raise ValidationError for the first name=(value, minimum) whose value is below it."""
    for name, (value, minimum) in bounds.items():
        if value < minimum:
            raise ValidationError(f"{name} must be at least {minimum}, got {value}")


def _cell_box(i0: int, j0: int, i1: int, j1: int, h: int, w: int) -> Box:
    """Box spanning grid cells [i0, i1) x [j0, j1), snapped to cell edges."""
    return Box(j0 / w, i0 / h, j1 / w, i1 / h)


def synth_action_overfit(out_dir: str, seed: int = 0, clips: int = 24, classes: int = 3,
                         keyframes: int = 2, channels: int = 8, grid_hw: tuple[int, int] = (4, 4)) -> str:
    """Separable multi-label action clips: class signatures mixed into box cells."""
    _check_at_least(seed=(seed, 0), clips=(clips, 1), classes=(classes, 1),
                    keyframes=(keyframes, 1), channels=(channels, 1))
    rng = np.random.default_rng(seed)
    h, w = grid_hw
    signatures = rng.normal(0.0, 1.0, size=(classes, channels)) * 2.0
    out: list[ClipRecord] = []
    for ci in range(clips):
        kfs = []
        for k in range(keyframes):
            grid = rng.normal(0.0, 0.1, size=(2, h, w, channels))
            boxes, labels = [], []
            for half in range(2):
                lab = (rng.uniform(size=classes) < 0.5).astype(float)
                if lab.sum() == 0:
                    lab[int(rng.integers(classes))] = 1.0
                i0 = half * (h // 2)
                j0 = int(rng.integers(0, w - 1))
                box = _cell_box(i0, j0, i0 + h // 2, j0 + 2, h, w)
                mix = (lab[:, None] * signatures).sum(axis=0)
                grid[:, i0:i0 + h // 2, j0:j0 + 2, :] += mix
                boxes.append(box)
                labels.append(lab)
            kfs.append(KeyframeRecord(
                keyframe_id=k,
                grid=FeatureGrid(values=Tensor(grid), keyframe_id=k),
                fg_boxes=boxes,
                action_labels=np.array(labels),
                proposals=[_cell_box(0, 0, h, w, h, w)],
            ))
        out.append(ClipRecord(clip_id=f"clip{ci:03d}", keyframes=kfs))
    info = DatasetInfo(task="action", action_classes=classes)
    return save_dataset(out_dir, info, out)


def synth_temporal_pairs(out_dir: str, seed: int = 0, split: int = 0, clips: int = 48,
                         keyframes: int = 5, channels: int = 8, tau_s: int = 1,
                         margin: float = 0.3) -> str:
    """Clips whose labels depend only on the neighbors at offsets +-tau_s.

    Each keyframe carries a scalar code in a fixed feature direction inside
    the top-left cell; the label is the sign of the sum of the codes at the
    keyframes tau_s away.  A model without temporal edges sees nothing that
    predicts the label; one with them can read it off directly.

    The code direction depends only on the seed; the clips depend on the
    seed and the split, so split 0 and split 1 are train and held-out
    samples of the same generative family.
    """
    _check_at_least(seed=(seed, 0), split=(split, 0), clips=(clips, 1), channels=(channels, 1),
                    tau_s=(tau_s, 1))
    # with no neighbor at +-tau_s, or such a margin, the sampler below would redraw forever
    if keyframes < 2 * tau_s:
        raise ValidationError(f"keyframes must be at least 2 * tau_s = {2 * tau_s}, got {keyframes}")
    if not 0 <= margin < 1:
        raise ValidationError(f"margin must be in [0, 1), got {margin}")
    rng = np.random.default_rng([seed, 11, split])
    h = w = 2
    dir_rng = np.random.default_rng([seed, 7])
    direction = dir_rng.normal(0.0, 1.0, size=channels)
    direction /= np.sqrt((direction ** 2).sum())
    out: list[ClipRecord] = []
    for ci in range(clips):
        while True:
            codes = rng.uniform(-1.0, 1.0, size=keyframes)
            sums = []
            for k in range(keyframes):
                s = 0.0
                for other in (k - tau_s, k + tau_s):
                    if 0 <= other < keyframes:
                        s += codes[other]
                sums.append(s)
            if min(abs(s) for s in sums) >= margin:
                break
        kfs = []
        for k in range(keyframes):
            grid = rng.normal(0.0, 0.05, size=(1, h, w, channels))
            grid[0, 0, 0, :] += codes[k] * direction * 2.0
            label = [1.0, 0.0] if sums[k] > 0 else [0.0, 1.0]
            kfs.append(KeyframeRecord(
                keyframe_id=k,
                grid=FeatureGrid(values=Tensor(grid), keyframe_id=k),
                fg_boxes=[_cell_box(0, 0, 1, 1, h, w)],
                action_labels=np.array([label]),
            ))
        out.append(ClipRecord(clip_id=f"clip{ci:03d}", keyframes=kfs))
    info = DatasetInfo(task="action", action_classes=2)
    return save_dataset(out_dir, info, out)


def synth_scenegraph(out_dir: str, seed: int = 0, clips: int = 12, keyframes: int = 2,
                     objects: int = 4, relations: int = 3, channels: int = 8) -> str:
    """Scene-graph clips with class signatures and a class-derived relation rule."""
    _check_at_least(seed=(seed, 0), clips=(clips, 1), keyframes=(keyframes, 1),
                    objects=(objects, 1), relations=(relations, 1), channels=(channels, 1))
    rng = np.random.default_rng(seed)
    h = w = 3
    signatures = rng.normal(0.0, 1.0, size=(objects, channels)) * 2.0
    out: list[ClipRecord] = []
    for ci in range(clips):
        kfs = []
        for k in range(keyframes):
            grid = rng.normal(0.0, 0.1, size=(1, h, w, channels))
            n = int(rng.integers(2, 4))
            cols = rng.permutation(w)[:n]
            boxes, classes = [], []
            for b in range(n):
                cls = int(rng.integers(objects))
                j = int(cols[b])
                grid[:, 0:h, j:j + 1, :] += signatures[cls]
                boxes.append(_cell_box(0, j, h, j + 1, h, w))
                classes.append(cls)
            rels = []
            for (i, j) in pair_index(n):
                r = (classes[i] + classes[j]) % relations
                rels.append((i, j, int(r)))
            kfs.append(KeyframeRecord(
                keyframe_id=k,
                grid=FeatureGrid(values=Tensor(grid), keyframe_id=k),
                fg_boxes=boxes,
                object_classes=np.array(classes, dtype=int),
                relations=rels,
            ))
        out.append(ClipRecord(clip_id=f"clip{ci:03d}", keyframes=kfs))
    info = DatasetInfo(task="scenegraph", object_classes=objects, relation_classes=relations)
    return save_dataset(out_dir, info, out)
