"""Evaluation: box overlap, label assignment, frame AP, and triplet recall.

Frame AP follows the standard detection protocol on arrays, one row per
scored (box, class) and one per ground-truth (box, class).  Per class,
detections rank by descending score in one stable sort, so tied scores
keep input order.  Each detection looks only at its best slot, the
first ground truth of its frame and class with the highest IoU; it is a
true positive when that IoU reaches the threshold and no higher-ranked
detection claimed the slot first.  A detection whose best slot is taken
is a false positive and does not fall back to its second-best slot.
The precision/recall curve is integrated with all-point interpolation,
and the mean runs over classes with at least one ground truth box.

Triplet recall ranks all (subject, object, predicate) candidates of a
keyframe by the product of their three probabilities and reports the
fraction of ground-truth triplets found in the top K.  The candidates
are enumerated in heads.pair_index order, (1,0), (2,0), (2,1), ..., and
within a pair by predicate, and tied scores keep that enumeration order,
as in a stable sort, so the reports are byte-identical to those of a
loop that sorts scored tuples per K.  No sort runs: whether a candidate
ranks in the top K is read off its keyframe's K-th largest score, which
one np.partition finds for every K, and, for a candidate that ties with
it, a count of the tied candidates enumerated before it (see
ranks_below).  Recall scores a block of keyframes with n nodes each at
once, along the rows of its (B, pairs * predicates) scores; a single
keyframe is a block of one.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .graph import Box
from .heads import SceneGraphPrediction, pair_arrays
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


def box_array(boxes) -> np.ndarray:
    """(n, 4) float array of the boxes' x1, y1, x2, y2, from one flat list."""
    return np.array([c for b in boxes for c in (b.x1, b.y1, b.x2, b.y2)],
                    dtype=np.float64).reshape(-1, 4)


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


def _average_precision(tp: np.ndarray, num_gt: int) -> float:
    """All-point interpolated AP from true-positive flags in rank order.

    The precision envelope and the sum over recall steps run in the
    order of a loop over the curve, so the result has that loop's bits.
    """
    hits = np.cumsum(tp, dtype=np.float64)
    recall = np.concatenate([[0.0], hits / num_gt, [1.0]])
    precision = np.concatenate([[0.0], hits / np.arange(1, tp.size + 1), [0.0]])
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    step = recall[1:] != recall[:-1]
    terms = (recall[1:] - recall[:-1])[step] * envelope[1:][step]
    return float(np.cumsum(terms)[-1])


def check_iou_threshold(threshold: float) -> None:
    if not 0 < threshold <= 1:
        raise ConfigError(f"IoU threshold must be in (0, 1], got {threshold}")


def check_recall_cutoffs(ks) -> None:
    """At least one cutoff, each an integer of 1 or more, and not a bool.

    Recall counts the ground truth ranked below k, so 2.5 would report
    top-3 recall under the key 2.5 and True top-1 recall under True.
    """
    if not len(ks):
        raise ConfigError("recall needs at least one cutoff k")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ConfigError(f"recall cutoff k must be an integer, got {k!r}")
        if k < 1:
            raise ConfigError(f"recall cutoff k must be positive, got {k}")


def frame_ap_arrays(det_frame, det_boxes, det_classes, det_scores, gt_frame, gt_boxes,
                    gt_classes, iou_threshold: float = 0.5) -> tuple[dict[int, float], float]:
    """Per-class average precision and its mean over annotated classes, from arrays.

    Each detection row is one scored (box, class): an int frame id, a box
    (x1, y1, x2, y2) in an (n, 4) array, a class id and a score.  Each
    ground-truth row is one (frame, box, class).  Rows with equal frame
    ids belong to one frame.  Classes without any ground truth are
    excluded; no ground truth at all, or a non-finite score, raises.
    """
    check_iou_threshold(iou_threshold)
    gt_classes = np.asarray(gt_classes, dtype=np.int64)
    if not gt_classes.size:
        raise ValidationError("frame AP is undefined without ground truth boxes")
    scores = np.asarray(det_scores, dtype=np.float64)
    det_boxes = np.asarray(det_boxes, dtype=np.float64)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64)
    if (det_boxes.shape != (scores.size, 4) or len(det_frame) != scores.size
            or len(det_classes) != scores.size):
        raise ShapeError(f"{scores.size} detection scores need as many frames, classes "
                         f"and (x1, y1, x2, y2) boxes")
    if gt_boxes.shape != (gt_classes.size, 4) or len(gt_frame) != gt_classes.size:
        raise ShapeError(f"{gt_classes.size} ground truth classes need as many frames "
                         f"and (x1, y1, x2, y2) boxes")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValidationError(f"detection {bad[0]} has non-finite score {float(scores[bad[0]])}")
    classes, gt_class = np.unique(gt_classes, return_inverse=True)
    det_classes = np.asarray(det_classes, dtype=np.int64)
    det_class = np.minimum(np.searchsorted(classes, det_classes), classes.size - 1)
    # detections of a class without ground truth score nothing
    keep = np.flatnonzero(classes[det_class] == det_classes)
    det_class, scores, det_boxes = det_class[keep], scores[keep], det_boxes[keep]
    # the slots of a (frame, class), in ground-truth order
    gt_key = np.asarray(gt_frame, dtype=np.int64) * classes.size + gt_class
    det_key = np.asarray(det_frame, dtype=np.int64)[keep] * classes.size + det_class
    slot_order = np.argsort(gt_key, kind="stable")
    begin = np.searchsorted(gt_key[slot_order], det_key, side="left")
    counts = np.searchsorted(gt_key[slot_order], det_key, side="right") - begin
    starts = np.cumsum(counts) - counts
    pair_det = np.repeat(np.arange(det_key.size), counts)
    pair_gt = slot_order[np.repeat(begin - starts, counts) + np.arange(pair_det.size)]
    # metrics.iou's operations, detection box first
    a, b = det_boxes[pair_det].T, gt_boxes[pair_gt].T
    ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    # two negative extents make a positive product, so divide only where they overlap
    overlap = np.divide(inter, union, out=np.zeros(inter.size), where=(ix > 0.0) & (iy > 0.0))
    # each detection's best slot is the first at its highest IoU; it is a
    # hit when that IoU reaches the threshold, above 0
    best = np.zeros(det_key.size)
    best[counts > 0] = np.maximum.reduceat(overlap, starts[counts > 0])
    at_best = np.flatnonzero((overlap == best[pair_det]) & (best[pair_det] >= iou_threshold))
    at_best = at_best[np.diff(pair_det[at_best], prepend=-1) != 0]
    # a hit is a true positive when no hit ranked above it claims its slot
    order = np.argsort(-scores, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    hit, slot = pair_det[at_best], pair_gt[at_best]
    first_claim = np.full(gt_key.size, order.size)
    np.minimum.at(first_claim, slot, rank[hit])
    tp = np.zeros(det_key.size, dtype=bool)
    tp[hit] = first_claim[slot] == rank[hit]
    by_class = order[np.argsort(det_class[order], kind="stable")]
    bounds = np.searchsorted(det_class[by_class], np.arange(classes.size + 1))
    num_gt = np.bincount(gt_class, minlength=classes.size)
    per_class = {int(cls): _average_precision(tp[by_class[bounds[c]:bounds[c + 1]]],
                                              int(num_gt[c]))
                 for c, cls in enumerate(classes)}
    return per_class, float(np.mean(list(per_class.values())))


def frame_ap(detections: list[Detection], ground_truth: list[GroundTruthBox],
             iou_threshold: float = 0.5) -> tuple[dict[int, float], float]:
    """frame_ap_arrays of Detection and GroundTruthBox lists.

    Boxes with the same (clip_id, keyframe_id) belong to one frame, and a
    non-finite score raises naming the detection's index in the list.
    """
    frames: dict[tuple[str, int], int] = {}

    def columns(items):
        return ([frames.setdefault((x.clip_id, x.keyframe_id), len(frames)) for x in items],
                box_array(x.box for x in items), [x.class_id for x in items])

    det_frame, det_boxes, det_classes = columns(detections)
    gt_frame, gt_boxes, gt_classes = columns(ground_truth)
    return frame_ap_arrays(det_frame, det_boxes, det_classes, [d.score for d in detections],
                           gt_frame, gt_boxes, gt_classes, iou_threshold)


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


def ranks_below(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                ks) -> dict[int, np.ndarray]:
    """For each k, whether each scores[rows[i], cols[i]] ranks below k in its row.

    A row ranks by descending score, ties in column order, as its stable
    sort would: an entry's rank is the count of entries above it plus the
    count of equal entries before it.  So with t the row's k-th largest
    score, an entry above t ranks below k, one under t does not, and one
    equal to t does when fewer than k - (entries above t) entries equal
    to t come before it.  One np.partition finds t for every k below the
    row length; every entry ranks below a larger k.
    """
    size = scores.shape[-1]
    kth = sorted({size - k for k in ks if k < size})
    part = np.partition(scores, kth, axis=-1) if kth else None
    mine = scores[rows, cols]
    below = {}
    for k in ks:
        if k >= size:
            below[k] = np.ones(len(rows), dtype=bool)
            continue
        top = part[rows, size - k]
        won = mine > top
        tied = np.flatnonzero(mine == top)
        if tied.size:
            row, level = scores[rows[tied]], top[tied, None]
            before = ((row == level) & (np.arange(size) < cols[tied, None])).sum(axis=-1)
            won[tied] = before < k - (row > level).sum(axis=-1)
        below[k] = won
    return below


def triplet_recall_block(object_logits: np.ndarray, relation_logits: np.ndarray | None,
                         gt: np.ndarray, counts, ks, mode: str,
                         gt_object_classes=None) -> list[dict[int, float]]:
    """triplet_recall of each keyframe of a block: B keyframes with n nodes each.

    object_logits is (B, n, classes) and relation_logits (B, pairs,
    predicates) or None for single nodes; gt holds the keyframes' (m, 5)
    ground-truth rows one after the other, counts[b] of them for keyframe
    b, and gt_object_classes is (B, n) for predcls.  Returns one dict per
    keyframe, in block order.
    """
    check_recall_cutoffs(ks)
    if mode not in (MODE_SGCLS, MODE_PREDCLS):
        raise ConfigError(f"unknown recall mode {mode!r}")
    gt = np.asarray(gt, dtype=np.int64)
    blocks, n = object_logits.shape[:2]
    if not gt.size:
        return [dict.fromkeys(ks, 1.0) for _ in range(blocks)]
    if gt.ndim != 2 or gt.shape[1] != 5:
        raise ShapeError(f"ground-truth triplets must be (m, 5), got shape {gt.shape}")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (blocks,) or counts.sum() != len(gt):
        raise ShapeError(f"{blocks} keyframes need one count each, summing to {len(gt)} rows")
    if mode == MODE_PREDCLS:
        if (gt_object_classes is None or len(gt_object_classes) != blocks
                or any(len(c) != n for c in gt_object_classes)):
            raise ValidationError("predcls mode needs one ground-truth class per node")
        node_class = np.asarray(gt_object_classes).astype(np.int64)
        node_prob = np.ones((blocks, n))
    else:
        e = np.exp(object_logits - object_logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        node_class = probs.argmax(axis=-1)
        node_prob = probs.max(axis=-1)
    if relation_logits is None:
        return [dict.fromkeys(ks, 0.0 if m else 1.0) for m in counts.tolist()]
    subjects, objects = pair_arrays(n)
    if relation_logits.shape[:2] != (blocks, len(subjects)):
        raise ShapeError(f"{blocks} keyframes of {n} nodes need {len(subjects)} relation "
                         f"rows each, got {relation_logits.shape[:2]}")
    predicates = relation_logits.shape[2]
    # (p_s * p_r) * p_o, the multiplication order of triplet_score
    rel_probs = sigmoid_values(relation_logits)
    scores = (node_prob[:, subjects, None] * rel_probs) * node_prob[:, objects, None]
    frame = np.repeat(np.arange(blocks), counts)
    s, o, _, _, r = gt.T
    named = (0 <= o) & (o < s) & (s < n) & (0 <= r) & (r < predicates)
    frame, (s, o, s_class, o_class, r) = frame[named], gt[named].T
    hit = (node_class[frame, s] == s_class) & (node_class[frame, o] == o_class)
    frame, found = frame[hit], ((s * (s - 1) // 2 + o) * predicates + r)[hit]
    below = ranks_below(scores.reshape(blocks, -1), frame, found, ks)
    hits = {k: np.bincount(frame[below[k]], minlength=blocks).tolist() for k in ks}
    # a keyframe without ground truth counts as fully recalled
    return [{k: hits[k][b] / m for k in ks} if m else dict.fromkeys(ks, 1.0)
            for b, m in enumerate(counts.tolist())]


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
    without ground truth counts as fully recalled.  This is
    triplet_recall_block of a block of one.
    """
    gt = np.asarray(gt, dtype=np.int64)
    return triplet_recall_block(
        object_logits[None], None if relation_logits is None else relation_logits[None], gt,
        gt.shape[:1], ks, mode,
        None if gt_object_classes is None else [gt_object_classes])[0]


def recall_at_k(prediction: SceneGraphPrediction, gt_triplets: list[Triplet], k: int,
                mode: str, gt_object_classes=None) -> float:
    """triplet_recall at one k of a prediction whose pairs are heads.pair_index's."""
    gt = np.array([(t.subject_index, t.object_index, t.subject_class, t.object_class,
                    t.predicate_class) for t in gt_triplets], dtype=np.int64)
    relations = None if prediction.relation_logits is None else prediction.relation_logits.data
    return triplet_recall(prediction.object_logits.data, relations, gt, (k,), mode,
                          gt_object_classes)[k]
