"""Dataset manifests, grid blobs, featurization, and synthetic clips.

A dataset is a line-delimited JSON manifest next to a directory of grid
blobs.  The first line is a header record naming the task and class
counts; every following line is one clip.  Grid blobs are little-endian
float32: an 8-value header (magic, version, t, h, w, c, keyframe id,
checksum) followed by t*h*w*c values in C order.

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
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .graph import Box, FeatureGrid, KeyframeFeatures, featurize_keyframe
from .heads import pair_index
from .metrics import detection_training_samples
from .numgrad import Tensor

GRID_MAGIC = 314159.0
GRID_VERSION = 1.0
MANIFEST_VERSION = 1

TRAIN_MODE = "train"
EVAL_MODE = "eval"


def write_grid(path: str, values: np.ndarray, keyframe_id: int) -> None:
    """Store a (t, h, w, c) feature grid as a little-endian float32 blob."""
    arr = np.asarray(values, dtype="<f4")
    if arr.ndim != 4:
        raise ValidationError(f"grid values must be 4-d (t, h, w, c), got {arr.shape}")
    checksum = np.float32(arr.astype(np.float64).sum())
    header = np.array(
        [GRID_MAGIC, GRID_VERSION, *arr.shape, float(keyframe_id), checksum], dtype="<f4")
    with open(path, "wb") as f:
        f.write(header.tobytes())
        f.write(arr.tobytes())


def read_grid(path: str) -> FeatureGrid:
    """Load a grid blob, verifying magic, version, shape, and checksum."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size < 8:
        raise ValidationError(f"{path}: truncated grid header")
    magic, version, t, h, w, c, keyframe_id, checksum = raw[:8]
    if magic != np.float32(GRID_MAGIC):
        raise ValidationError(f"{path}: bad grid magic {magic!r}")
    if version != np.float32(GRID_VERSION):
        raise ValidationError(f"{path}: unsupported grid version {version!r}")
    shape = tuple(int(v) for v in (t, h, w, c))
    if any(v < 1 for v in shape):
        raise ValidationError(f"{path}: invalid grid shape {shape}")
    body = raw[8:]
    if body.size != int(np.prod(shape)):
        raise ValidationError(
            f"{path}: grid holds {body.size} values, header promises {int(np.prod(shape))}")
    if not np.all(np.isfinite(body)):
        raise ValidationError(f"{path}: grid contains non-finite values")
    if np.float32(body.astype(np.float64).sum()) != checksum:
        raise ValidationError(f"{path}: grid checksum mismatch")
    values = body.astype(np.float64).reshape(shape)
    return FeatureGrid(values=Tensor(values), keyframe_id=int(keyframe_id))


@dataclass
class DatasetInfo:
    task: str
    action_classes: int | None = None
    object_classes: int | None = None
    relation_classes: int | None = None
    grid_shape: tuple[int, int, int] | None = None  # shared (h, w, c)
    version: int = MANIFEST_VERSION


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


def _box_from(coords, where: str) -> Box:
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValidationError(f"{where}: box must be [x1, y1, x2, y2], got {coords!r}")
    try:
        return Box(*(float(v) for v in coords))
    except ValidationError as err:
        raise ValidationError(f"{where}: {err}") from None


def _is_count(value) -> bool:
    """True for a positive JSON integer (booleans excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _parse_keyframe(obj, info: DatasetInfo, base_dir: str, where: str) -> KeyframeRecord:
    if not isinstance(obj, dict) or "keyframe_id" not in obj or "grid" not in obj:
        raise ValidationError(f"{where}: keyframe needs 'keyframe_id' and 'grid'")
    kid = obj["keyframe_id"]
    if isinstance(kid, bool) or not isinstance(kid, int):
        raise ValidationError(f"{where}: keyframe_id must be an integer, got {kid!r}")
    grid_path = os.path.join(base_dir, obj["grid"])
    try:
        grid = read_grid(grid_path)
    except (OSError, ValidationError) as err:
        raise ValidationError(f"{where}: {err}") from None
    if grid.keyframe_id != kid:
        raise ValidationError(
            f"{where}: grid header says keyframe {grid.keyframe_id}, manifest says {kid}")
    fg_entries = obj.get("foreground", [])
    if not fg_entries:
        raise ValidationError(f"{where}: keyframe {kid} has no foreground boxes")
    boxes, action_labels, object_classes = [], [], []
    for e, entry in enumerate(fg_entries):
        spot = f"{where}: keyframe {kid} foreground {e}"
        boxes.append(_box_from(entry.get("box"), spot))
        if info.task == "action":
            labels = entry.get("labels")
            if not isinstance(labels, list) or len(labels) != info.action_classes:
                raise ValidationError(f"{spot}: need {info.action_classes} labels")
            if any(v not in (0, 1) for v in labels):
                raise ValidationError(f"{spot}: labels must be 0 or 1")
            action_labels.append([float(v) for v in labels])
        else:
            cls = entry.get("object_class")
            if not isinstance(cls, int) or not 0 <= cls < info.object_classes:
                raise ValidationError(
                    f"{spot}: object_class must be an int in [0, {info.object_classes})")
            object_classes.append(cls)
    relations = []
    for entry in obj.get("relations", []):
        spot = f"{where}: keyframe {kid} relation {entry!r}"
        if info.task != "scenegraph":
            raise ValidationError(f"{spot}: relations only belong to scene-graph datasets")
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValidationError(f"{spot}: need [subject, object, predicate]")
        s, o, r = (int(v) for v in entry)
        if not (0 <= o < s < len(boxes)):
            raise ValidationError(
                f"{spot}: need object index < subject index < {len(boxes)} foreground boxes")
        if not 0 <= r < info.relation_classes:
            raise ValidationError(f"{spot}: predicate must be in [0, {info.relation_classes})")
        relations.append((s, o, r))
    proposals = [_box_from(b, f"{where}: keyframe {kid} proposal {i}")
                 for i, b in enumerate(obj.get("proposals", []))]
    detections = [_box_from(b, f"{where}: keyframe {kid} detection {i}")
                  for i, b in enumerate(obj.get("detections", []))]
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

    Errors carry the manifest path and line number of the offending record.
    """
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        raise ValidationError(f"cannot read manifest: {err}") from None

    info: DatasetInfo | None = None
    clips: list[ClipRecord] = []
    seen_ids: set[str] = set()
    grid_shape: tuple[int, int, int] | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{manifest_path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
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
            if obj.get("version") != MANIFEST_VERSION:
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
        if not kf_objs:
            raise ValidationError(f"{where}: clip {clip_id} has no keyframes")
        keyframes = []
        last_id = None
        for kf_obj in kf_objs:
            kf = _parse_keyframe(kf_obj, info, base_dir, f"{where}: clip {clip_id}")
            if last_id is not None and kf.keyframe_id <= last_id:
                raise ValidationError(
                    f"{where}: clip {clip_id}: keyframe ids must be strictly increasing "
                    f"({last_id} then {kf.keyframe_id})")
            last_id = kf.keyframe_id
            t, h, w, c = kf.grid.shape
            if grid_shape is None:
                grid_shape = (h, w, c)
            elif grid_shape != (h, w, c):
                raise ValidationError(
                    f"{where}: clip {clip_id}: grid (h, w, c) {(h, w, c)} differs from {grid_shape}")
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


def relation_target_matrix(pairs: list[tuple[int, int]], relations, num_relations: int) -> np.ndarray:
    """Multi-hot (num pairs, num relations) targets from (s, o, r) triples."""
    row_of = {pair: row for row, pair in enumerate(pairs)}
    out = np.zeros((len(pairs), num_relations))
    for s, o, r in relations:
        row = row_of.get((s, o))
        if row is None:
            raise ValidationError(f"relation ({s}, {o}, {r}) does not match any node pair")
        out[row, r] = 1.0
    return out


@dataclass
class ClipFeatures:
    """Featurized clip ready for graph building.

    frames holds the boxes the model scores (training may append labeled
    detections; evaluation scores detections when present).  gt_* keeps
    the raw annotations for metrics.
    """

    clip_id: str
    frames: list[KeyframeFeatures]
    action_labels: list[np.ndarray] | None = None
    object_classes: list[np.ndarray] | None = None
    relations: list[list[tuple[int, int, int]]] | None = None
    gt_boxes: list[list[Box]] = field(default_factory=list)
    gt_action_labels: list[np.ndarray] | None = None
    keyframe_ids: list[int] = field(default_factory=list)


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


def _cell_box(i0: int, j0: int, i1: int, j1: int, h: int, w: int) -> Box:
    """Box spanning grid cells [i0, i1) x [j0, j1), snapped to cell edges."""
    return Box(j0 / w, i0 / h, j1 / w, i1 / h)


def synth_action_overfit(out_dir: str, seed: int = 0, clips: int = 24, classes: int = 3,
                         keyframes: int = 2, channels: int = 8, grid_hw: tuple[int, int] = (4, 4)) -> str:
    """Separable multi-label action clips: class signatures mixed into box cells."""
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
