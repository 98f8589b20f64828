"""The keyframe-by-keyframe manifest loader, as an oracle for data.load_dataset.

read_grid, _parse_keyframe and load_dataset as they were before grids
were read and checked as one array: each keyframe's grid is read and
checked as the walk over the manifest meets it, so the first fault raised
is the first in manifest order.  The record helpers they call, which did
not change, come from the library.
"""

import json
import math
import os

import numpy as np

from stgraph import numgrad as ng
from stgraph.data import (GRID_MAGIC, GRID_VERSION, MANIFEST_VERSION, ClipRecord, DatasetInfo,
                          KeyframeRecord, _box_from, _is_count, _is_int, _list_field,
                          _relations_at_once, _relations_one_by_one)
from stgraph.errors import ValidationError
from stgraph.graph import FeatureGrid


def read_grid(path: str) -> FeatureGrid:
    """Load a grid blob, verifying magic, version, shape, and checksum."""
    with open(path, "rb") as f:
        blob = f.read()
    raw = np.frombuffer(blob, dtype="<f4", count=len(blob) // 4)  # as np.fromfile, drop a partial value
    if raw.size < 8:
        raise ValidationError(f"{path}: truncated grid header")
    magic, version, checksum = raw[0], raw[1], raw[7]
    if magic != np.float32(GRID_MAGIC):
        raise ValidationError(f"{path}: bad grid magic {magic!r}")
    if version != np.float32(GRID_VERSION):
        raise ValidationError(f"{path}: unsupported grid version {version!r}")
    fields = raw[2:7].tolist()  # t, h, w, c and keyframe id as Python floats
    if not all(v.is_integer() for v in fields):  # False for NaN and infinities too
        raise ValidationError(f"{path}: grid shape and keyframe id must be integers, got {fields}")
    shape = tuple(int(v) for v in fields[:4])
    if any(v < 1 for v in shape):
        raise ValidationError(f"{path}: invalid grid shape {shape}")
    body = raw[8:]
    if body.size != math.prod(shape):
        raise ValidationError(
            f"{path}: grid holds {body.size} values, header promises {math.prod(shape)}")
    values = body.astype(np.float64)
    if not np.isfinite(values).all():
        raise ValidationError(f"{path}: grid contains non-finite values")
    if np.float32(values.sum()) != checksum:
        raise ValidationError(f"{path}: grid checksum mismatch")
    # checked finite just above, so the Tensor skips its own scan
    return FeatureGrid(values=ng._wrap(values.reshape(shape)), keyframe_id=int(fields[4]))


def _parse_keyframe(obj, info: DatasetInfo, base_dir: str, where: str) -> KeyframeRecord:
    """One keyframe's record.

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
    try:
        grid = read_grid(os.path.join(base_dir, obj["grid"]))
    except (OSError, ValidationError) as err:
        raise ValidationError(f"{where}: {err}") from None
    if grid.keyframe_id != kid:
        raise ValidationError(
            f"{where}: grid header says keyframe {grid.keyframe_id}, manifest says {kid}")
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

    Errors carry the manifest path and line number of the offending record.
    """
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    try:
        with open(manifest_path, "rb") as f:
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
