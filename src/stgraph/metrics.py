"""Evaluation: box overlap, label assignment, frame AP, and triplet recall.

Frame AP follows the standard detection protocol: per class, detections
are sorted by descending score (input order breaks ties), matched
greedily to unmatched ground truth of the same keyframe at IoU >= 0.5,
and the precision/recall curve is integrated with all-point
interpolation.  The mean runs over classes with at least one ground
truth box.

Triplet recall ranks all (subject, object, predicate) candidates of a
keyframe by the product of their three probabilities and reports the
fraction of ground-truth triplets found in the top K.  The candidates
are enumerated in heads.pair_index order, (1,0), (2,0), (2,1), ..., and
within a pair by predicate.  One stable sort of a keyframe's scores
serves every K: tied scores keep that enumeration order, so the reports
are byte-identical to those of a loop that sorts scored tuples per K.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .graph import Box
from .heads import SceneGraphPrediction
from .numgrad import sigmoid_values

MODE_SGCLS = "sgcls"
MODE_PREDCLS = "predcls"


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when they do not overlap."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


def assign_labels(pred_boxes, gt_boxes, gt_labels: np.ndarray, threshold: float = 0.75) -> np.ndarray:
    """Transfer labels from the best-overlapping ground truth box.

    A predicted box takes the label vector of the ground truth it overlaps
    most, provided that IoU reaches the threshold; otherwise it becomes an
    all-negative sample.  Returns an array of shape (n_pred, C).
    """
    gt_labels = np.asarray(gt_labels, dtype=np.float64)
    if gt_labels.ndim != 2:
        raise ValidationError(f"ground truth labels must be (n, C), got shape {gt_labels.shape}")
    if len(gt_boxes) != gt_labels.shape[0]:
        raise ValidationError(
            f"{len(gt_boxes)} ground truth boxes but {gt_labels.shape[0]} label rows")
    out = np.zeros((len(pred_boxes), gt_labels.shape[1]))
    for p, box in enumerate(pred_boxes):
        best, best_iou = -1, 0.0
        for g, gt in enumerate(gt_boxes):
            ov = iou(box, gt)
            if ov > best_iou:
                best, best_iou = g, ov
        if best >= 0 and best_iou >= threshold:
            out[p] = gt_labels[best]
    return out


def detection_training_samples(pred_boxes, gt_boxes, gt_labels, threshold: float = 0.75):
    """Training boxes for one keyframe: ground truth plus labeled detections.

    Ground truth boxes keep their own labels and are always included;
    detected boxes get labels via assign_labels.
    """
    gt_labels = np.asarray(gt_labels, dtype=np.float64)
    assigned = assign_labels(pred_boxes, gt_boxes, gt_labels, threshold)
    boxes = list(gt_boxes) + list(pred_boxes)
    labels = np.concatenate([gt_labels, assigned], axis=0) if len(pred_boxes) else gt_labels
    return boxes, labels


@dataclass(frozen=True)
class Detection:
    clip_id: str
    keyframe_id: int
    box: Box
    class_id: int
    score: float


@dataclass(frozen=True)
class GroundTruthBox:
    clip_id: str
    keyframe_id: int
    box: Box
    class_id: int


def _average_precision(tp_flags: list[bool], num_gt: int) -> float:
    """All-point interpolated AP from ordered true-positive flags."""
    if num_gt == 0:
        return 0.0
    tp = np.cumsum([1.0 if f else 0.0 for f in tp_flags])
    fp = np.cumsum([0.0 if f else 1.0 for f in tp_flags])
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(1, len(mrec)):
        if mrec[i] != mrec[i - 1]:
            ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return float(ap)


def check_iou_threshold(threshold: float) -> None:
    if not 0 < threshold <= 1:
        raise ConfigError(f"IoU threshold must be in (0, 1], got {threshold}")


def check_recall_cutoffs(ks) -> None:
    for k in ks:
        if k < 1:
            raise ConfigError(f"recall cutoff k must be positive, got {k}")


def frame_ap(detections: list[Detection], ground_truth: list[GroundTruthBox],
             iou_threshold: float = 0.5) -> tuple[dict[int, float], float]:
    """Per-class average precision and its mean over annotated classes.

    Classes without any ground truth are excluded from the mean; an empty
    ground truth list leaves the metric undefined and raises.
    """
    check_iou_threshold(iou_threshold)
    if not ground_truth:
        raise ValidationError("frame AP is undefined without ground truth boxes")
    classes = sorted({g.class_id for g in ground_truth})
    per_class: dict[int, float] = {}
    for cls in classes:
        gts = [g for g in ground_truth if g.class_id == cls]
        num_gt = len(gts)
        by_frame: dict[tuple, list] = {}
        for g in gts:
            by_frame.setdefault((g.clip_id, g.keyframe_id), []).append([g.box, False])
        dets = sorted((d for d in detections if d.class_id == cls),
                      key=lambda d: -d.score)
        flags: list[bool] = []
        for d in dets:
            slots = by_frame.get((d.clip_id, d.keyframe_id), [])
            best, best_iou = -1, 0.0
            for s, (box, _) in enumerate(slots):
                ov = iou(d.box, box)
                if ov > best_iou:
                    best, best_iou = s, ov
            if best >= 0 and best_iou >= iou_threshold and not slots[best][1]:
                slots[best][1] = True
                flags.append(True)
            else:
                flags.append(False)
        per_class[cls] = _average_precision(flags, num_gt)
    mean = float(np.mean([per_class[c] for c in classes]))
    return per_class, mean


@dataclass(frozen=True)
class Triplet:
    """One subject-predicate-object statement about a keyframe."""

    subject_index: int
    object_index: int
    subject_class: int
    object_class: int
    predicate_class: int


def triplet_score(subject_prob: float, predicate_prob: float, object_prob: float) -> float:
    """Confidence of a candidate triplet: the product of its three parts."""
    return subject_prob * predicate_prob * object_prob


def triplet_recall(object_logits: np.ndarray, relation_logits: np.ndarray | None,
                   gt: np.ndarray, ks, mode: str, gt_object_classes=None) -> dict[int, float]:
    """Fraction of one keyframe's ground-truth triplets in the top-k candidates, per k.

    object_logits is (n, classes) and relation_logits (pairs, predicates),
    its rows in heads.pair_index(n) order, or None for a single node.  gt
    is an int (m, 5) array of (subject, object, subject class, object
    class, predicate) rows.  sgcls scores subjects and objects with their
    own predicted class and probability; predcls pins both to the
    ground-truth classes with probability one, ranking by predicate
    confidence alone.  A row that names no candidate (subject not above
    object, a node or predicate out of range) is a miss, and a keyframe
    without ground truth counts as fully recalled.
    """
    check_recall_cutoffs(ks)
    if mode not in (MODE_SGCLS, MODE_PREDCLS):
        raise ConfigError(f"unknown recall mode {mode!r}")
    gt = np.asarray(gt, dtype=np.int64)
    if not gt.size:
        return {k: 1.0 for k in ks}
    if gt.ndim != 2 or gt.shape[1] != 5:
        raise ShapeError(f"ground-truth triplets must be (m, 5), got shape {gt.shape}")
    n = object_logits.shape[0]
    if mode == MODE_PREDCLS:
        if gt_object_classes is None or len(gt_object_classes) != n:
            raise ValidationError("predcls mode needs one ground-truth class per node")
        node_class = np.asarray(gt_object_classes).astype(np.int64)
        node_prob = np.ones(n)
    else:
        e = np.exp(object_logits - object_logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        node_class = probs.argmax(axis=1)
        node_prob = probs[np.arange(n), node_class]
    if relation_logits is None:
        return {k: 0.0 for k in ks}
    # heads.pair_index order: subject i comes i times, with objects 0 .. i-1
    subjects = np.repeat(np.arange(n), np.arange(n))
    objects = np.arange(len(subjects)) - subjects * (subjects - 1) // 2
    if relation_logits.shape[0] != len(subjects):
        raise ShapeError(f"{n} nodes need {len(subjects)} relation rows, "
                         f"got {relation_logits.shape[0]}")
    predicates = relation_logits.shape[1]
    # (p_s * p_r) * p_o, the multiplication order of triplet_score
    rel_probs = sigmoid_values(relation_logits)
    scores = (node_prob[subjects, None] * rel_probs) * node_prob[objects, None]
    order = np.argsort(-scores.ravel(), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    s, o, _, _, r = gt.T
    named = (0 <= o) & (o < s) & (s < n) & (0 <= r) & (r < predicates)
    s, o, s_class, o_class, r = gt[named].T
    found = rank[(s * (s - 1) // 2 + o) * predicates + r]
    found = found[(node_class[s] == s_class) & (node_class[o] == o_class)]
    return {k: int(np.count_nonzero(found < k)) / len(gt) for k in ks}


def recall_at_k(prediction: SceneGraphPrediction, gt_triplets: list[Triplet], k: int,
                mode: str, gt_object_classes=None) -> float:
    """triplet_recall at one k of a prediction whose pairs are heads.pair_index's."""
    gt = np.array([(t.subject_index, t.object_index, t.subject_class, t.object_class,
                    t.predicate_class) for t in gt_triplets], dtype=np.int64)
    relations = None if prediction.relation_logits is None else prediction.relation_logits.data
    return triplet_recall(prediction.object_logits.data, relations, gt, (k,), mode,
                          gt_object_classes)[k]
