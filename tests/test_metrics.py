import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stgraph import metrics as mt
from stgraph.errors import ConfigError, ShapeError, ValidationError
from stgraph.graph import Box
from stgraph.heads import SceneGraphPrediction, pair_index
from stgraph.numgrad import Tensor, sigmoid_values

from reference_eval import reference_frame_ap, reference_iou, reference_recall


def _iou(a: Box, b: Box) -> float:
    return float(mt.paired_iou(mt.box_array([a]), mt.box_array([b]))[0])


def test_iou_frozen_example():
    unit = Box(0.0, 0.0, 1.0, 1.0)
    left = Box(0.0, 0.0, 0.5, 1.0)
    assert _iou(unit, left) == 0.5
    assert _iou(left, unit) == 0.5


def test_iou_disjoint_and_identical():
    a = Box(0.0, 0.0, 0.3, 0.3)
    b = Box(0.5, 0.5, 0.9, 0.9)
    assert _iou(a, b) == 0.0
    assert _iou(a, a) == 1.0


def test_iou_partial_overlap_hand_value():
    a = Box(0.0, 0.0, 0.5, 0.5)     # area 0.25
    b = Box(0.25, 0.25, 0.75, 0.75)  # area 0.25, intersection 0.0625
    want = 0.0625 / (0.25 + 0.25 - 0.0625)
    assert abs(_iou(a, b) - want) <= 1e-15


def test_assign_labels_threshold_and_best_match():
    gt = [Box(0.0, 0.0, 0.5, 1.0), Box(0.5, 0.0, 1.0, 1.0)]
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    preds = [
        Box(0.0, 0.0, 0.5, 1.0),      # exact: IoU 1.0 with gt0
        Box(0.45, 0.0, 1.0, 1.0),     # IoU with gt1 = 0.5/0.55 > 0.75
        Box(0.25, 0.0, 0.75, 1.0),    # IoU 0.5 with both: below threshold
    ]
    assert mt.LABEL_IOU == 0.75
    out = mt.assign_labels(preds, gt, labels)
    assert out.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def _grid_box(rng) -> Box:
    # corners on a 1/4 grid, so boxes touch, coincide and tie often
    x1, x2 = sorted(rng.choice(5, size=2, replace=False) / 4)
    y1, y2 = sorted(rng.choice(5, size=2, replace=False) / 4)
    return Box(float(x1), float(y1), float(x2), float(y2))


def _loop_labels(preds, gt, labels, threshold):
    # assign_labels as a loop over the oracle's IoU: the first best ground truth
    out = np.zeros((len(preds), labels.shape[1]))
    for p, box in enumerate(preds):
        best, best_iou = -1, 0.0
        for g, other in enumerate(gt):
            ov = reference_iou(box, other)
            if ov > best_iou:
                best, best_iou = g, ov
        if best >= 0 and best_iou >= threshold:
            out[p] = labels[best]
    return out


@pytest.mark.parametrize("threshold", [0.0, mt.LABEL_IOU, 1.0])
def test_paired_iou_and_assign_labels_match_the_reference_loop(monkeypatch, threshold):
    monkeypatch.setattr(mt, "LABEL_IOU", threshold)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        preds = [_grid_box(rng) for _ in range(int(rng.integers(0, 5)))]
        gt = [_grid_box(rng) for _ in range(int(rng.integers(0, 5)))]
        # repeated ground truths tie for the best overlap
        gt += gt[:int(rng.integers(0, len(gt) + 1))]
        labels = rng.integers(0, 2, size=(len(gt), 3)).astype(np.float64)
        pairs = [(a, b) for a in preds for b in gt]
        got = mt.paired_iou(mt.box_array(a for a, _ in pairs), mt.box_array(b for _, b in pairs))
        assert got.tobytes() == np.array([reference_iou(a, b) for a, b in pairs]).tobytes()
        want = _loop_labels(preds, gt, labels, threshold)
        assert mt.assign_labels(preds, gt, labels).tobytes() == want.tobytes()


def test_assign_labels_no_ground_truth_gives_negatives():
    out = mt.assign_labels([Box(0.0, 0.0, 1.0, 1.0)], [], np.zeros((0, 3)))
    assert out.tolist() == [[0.0, 0.0, 0.0]]


def test_assign_labels_count_mismatch():
    with pytest.raises(ValidationError):
        mt.assign_labels([], [Box(0.0, 0.0, 1.0, 1.0)], np.zeros((2, 3)))


def test_detection_training_samples_keep_ground_truth():
    gt = [Box(0.0, 0.0, 0.5, 1.0)]
    labels = np.array([[0.0, 1.0]])
    preds = [Box(0.0, 0.0, 0.52, 1.0), Box(0.6, 0.6, 0.9, 0.9)]
    boxes, out = mt.detection_training_samples(preds, gt, labels)
    assert boxes == gt + preds
    assert out.shape == (3, 2)
    assert out[0].tolist() == [0.0, 1.0]   # gt keeps its labels
    assert out[1].tolist() == [0.0, 1.0]   # near-exact detection inherits
    assert out[2].tolist() == [0.0, 0.0]   # far detection is all negative


def _det(frame, box, score, cls=0, clip="c"):
    return mt.Detection(clip, frame, box, cls, score)


def _gt(frame, box, cls=0, clip="c"):
    return mt.GroundTruthBox(clip, frame, box, cls)


BOX_A = Box(0.0, 0.0, 0.5, 0.5)
BOX_B = Box(0.5, 0.5, 1.0, 1.0)
BOX_FAR = Box(0.05, 0.55, 0.45, 0.95)


def test_frame_ap_derived_enumeration():
    # one class, two gt in different frames, three detections:
    # 0.9 hits gt0, 0.6 misses, 0.3 hits gt1.
    # flags: TP FP TP -> precision 1, 1/2, 2/3 at recall 1/2, 1/2, 1
    # all-point envelope integrates to 0.5*1 + 0.5*(2/3) = 5/6
    gts = [_gt(0, BOX_A), _gt(1, BOX_B)]
    dets = [
        _det(0, BOX_A, 0.9),
        _det(0, BOX_FAR, 0.6),
        _det(1, BOX_B, 0.3),
    ]
    per_class, mean = mt.frame_ap(dets, gts)
    assert abs(per_class[0] - 5.0 / 6.0) <= 1e-12
    assert abs(mean - 5.0 / 6.0) <= 1e-12


def test_frame_ap_greedy_counts_duplicates_as_false_positives():
    gts = [_gt(0, BOX_A), _gt(0, BOX_B)]
    dets = [
        _det(0, BOX_A, 0.9),
        _det(0, BOX_A, 0.8),   # duplicate on an already matched gt
        _det(0, BOX_B, 0.7),
    ]
    _, mean = mt.frame_ap(dets, gts)
    assert abs(mean - 5.0 / 6.0) <= 1e-12


def test_frame_ap_perfect_detections():
    gts = [_gt(0, BOX_A), _gt(1, BOX_B)]
    dets = [_det(0, BOX_A, 0.8), _det(1, BOX_B, 0.6)]
    per_class, mean = mt.frame_ap(dets, gts)
    assert mean == 1.0


def test_frame_ap_requires_ground_truth():
    with pytest.raises(ValidationError):
        mt.frame_ap([_det(0, BOX_A, 0.5)], [])


@pytest.mark.parametrize("threshold", [float("nan"), 2.0, -1.0, 0.0, float("inf")])
def test_frame_ap_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        mt.frame_ap([_det(0, BOX_A, 0.5)], [_gt(0, BOX_A)], iou_threshold=threshold)
    assert mt.frame_ap([_det(0, BOX_A, 0.5)], [_gt(0, BOX_A)], iou_threshold=1.0)[1] == 1.0


def test_frame_ap_ignores_classes_without_ground_truth():
    gts = [_gt(0, BOX_A, cls=0)]
    dets = [_det(0, BOX_A, 0.9, cls=0), _det(0, BOX_B, 0.8, cls=7)]
    per_class, mean = mt.frame_ap(dets, gts)
    assert set(per_class) == {0}
    assert mean == 1.0


def test_frame_ap_class_with_no_detections_scores_zero():
    gts = [_gt(0, BOX_A, cls=0), _gt(0, BOX_B, cls=1)]
    dets = [_det(0, BOX_A, 0.9, cls=0)]
    per_class, mean = mt.frame_ap(dets, gts)
    assert per_class[0] == 1.0
    assert per_class[1] == 0.0
    assert abs(mean - 0.5) <= 1e-15


def test_frame_ap_invariant_to_monotone_score_transforms():
    rng = np.random.default_rng(0)
    gts, dets = [], []
    for f in range(6):
        gts.append(_gt(f, BOX_A, cls=f % 2))
        for _ in range(3):
            box = BOX_A if rng.uniform() < 0.5 else BOX_B
            dets.append(_det(f, box, float(rng.uniform()), cls=int(rng.integers(2))))
    _, base = mt.frame_ap(dets, gts)
    for transform in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan, lambda s: s ** 3):
        moved = [mt.Detection(d.clip_id, d.keyframe_id, d.box, d.class_id,
                              float(transform(d.score))) for d in dets]
        _, m = mt.frame_ap(moved, gts)
        assert m == base


def _agrees_with_loops(dets, gts, threshold=0.5):
    got = mt.frame_ap(dets, gts, iou_threshold=threshold)
    assert repr(got) == repr(reference_frame_ap(dets, gts, threshold))
    return got


BOX_A_SLIM = Box(0.0, 0.0, 0.5, 0.45)  # IoU 0.9 with BOX_A


@pytest.mark.parametrize("first, second, want", [
    (BOX_FAR, BOX_A, 0.5),   # tied scores: the miss ranks first
    (BOX_A, BOX_FAR, 1.0),   # and here the hit
])
@pytest.mark.parametrize("score", [0.7, 0.0])
def test_frame_ap_tied_scores_keep_input_order(first, second, want, score):
    gts = [_gt(0, BOX_A)]
    per_class, _ = _agrees_with_loops([_det(0, first, score), _det(0, second, score)], gts)
    assert per_class == {0: want}


def test_frame_ap_taken_best_slot_is_a_false_positive():
    # the 0.8 detection's best slot is BOX_A, taken by the 0.9 one; its
    # second-best, BOX_A_SLIM at IoU 0.9, does not rescue it
    gts = [_gt(0, BOX_A), _gt(0, BOX_A_SLIM)]
    per_class, _ = _agrees_with_loops([_det(0, BOX_A, 0.9), _det(0, BOX_A, 0.8)], gts)
    assert per_class == {0: 0.5}
    # a detection whose best slot is the free one takes it
    _, mean = _agrees_with_loops([_det(0, BOX_A, 0.9), _det(0, BOX_A_SLIM, 0.8)], gts)
    assert mean == 1.0


def test_frame_ap_first_slot_wins_equal_overlaps():
    # both ground truths overlap the detection by 0.5; the first is its slot
    left, right = Box(0.0, 0.0, 0.5, 1.0), Box(0.5, 0.0, 1.0, 1.0)
    whole = Box(0.0, 0.0, 1.0, 1.0)
    dets = [_det(0, whole, 0.9), _det(0, left, 0.8), _det(0, right, 0.7)]
    per_class, _ = _agrees_with_loops(dets, [_gt(0, left), _gt(0, right)])
    # TP, FP (left was taken), TP
    assert abs(per_class[0] - (0.5 + 0.5 * 2 / 3)) <= 1e-15


@pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")])
def test_frame_ap_rejects_non_finite_scores(score):
    dets = [_det(0, BOX_A, 0.5), _det(1, BOX_B, 0.4), _det(0, BOX_B, score)]
    with pytest.raises(ValidationError, match="detection 2 has non-finite score"):
        mt.frame_ap(dets, [_gt(0, BOX_A)])


# coordinates on a coarse grid: boxes repeat, touch, nest and miss
_coord_pairs = st.sampled_from([(i / 8, (i + w) / 8) for i in range(8) for w in range(1, 5)
                                if i + w <= 8])
grid_boxes = st.tuples(_coord_pairs, _coord_pairs).map(
    lambda xy: Box(xy[0][0], xy[1][0], xy[0][1], xy[1][1]))


def _nudged(box, side, step):
    """box with one far side moved by step, or box itself where that leaves the unit square."""
    x2, y2 = box.x2 + step * (side == 0), box.y2 + step * (side == 1)
    if not (box.x1 < x2 <= 1.0 and box.y1 < y2 <= 1.0):
        return box
    return Box(box.x1, box.y1, x2, y2)


@st.composite
def scored_frames(draw):
    """Ground truth and detections over a few frames of two clips.

    Ground truth takes classes 0-2 and detections 0-3, so some classes
    have no detections and some no ground truth, and some frames hold no
    ground truth.  Half the boxes copy an earlier ground truth's frame,
    class and box, the box possibly nudged by 1/8, so ground truths
    overlap, several detections claim one box, and a claimed best box
    can have a free second best.  Scores come from a few values, 0.0 and
    -0.0 among them, so ties are common.
    """
    frame = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2))
    nudge = st.tuples(st.integers(0, 1), st.sampled_from([-0.125, 0.0, 0.125]))

    def box_of(items, classes):
        if items and draw(st.booleans()):
            g = items[draw(st.integers(0, len(items) - 1))]
            return (g.clip_id, g.keyframe_id), _nudged(g.box, *draw(nudge)), g.class_id
        return draw(frame), draw(grid_boxes), draw(st.integers(0, classes - 1))

    gts = []
    for _ in range(draw(st.integers(1, 8))):
        f, box, cls = box_of(gts, 3)
        gts.append(mt.GroundTruthBox(*f, box, cls))
    score = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.9]) | st.floats(-2.0, 2.0)
    dets = [mt.Detection(*f, box, cls, draw(score))
            for f, box, cls in (box_of(gts, 4) for _ in range(draw(st.integers(0, 16))))]
    threshold = draw(st.sampled_from([0.5, 1.0, 1e-4, 0.3, 0.75]))
    return dets, gts, threshold


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=scored_frames())
def test_frame_ap_equals_loop_reference(case):
    dets, gts, threshold = case
    per_class, mean = _agrees_with_loops(dets, gts, threshold)
    assert all(type(c) is int for c in per_class)
    assert all(type(v) is float for v in per_class.values()) and type(mean) is float


def test_frame_ap_arrays_take_frame_ids():
    boxes = np.array([BOX_A.as_list(), BOX_FAR.as_list(), BOX_B.as_list()])
    per_class, mean = mt.frame_ap_arrays([0, 0, 1], boxes, [0, 0, 0], [0.9, 0.6, 0.3],
                                         [0, 1], boxes[[0, 2]], [0, 0])
    assert abs(mean - 5.0 / 6.0) <= 1e-12 and list(per_class) == [0]
    with pytest.raises(ShapeError, match="3 detection scores"):
        mt.frame_ap_arrays([0, 0], boxes, [0, 0, 0], [0.9, 0.6, 0.3], [0], boxes[:1], [0])
    with pytest.raises(ShapeError, match="2 ground truth classes"):
        mt.frame_ap_arrays([0], boxes[:1], [0], [0.9], [0, 1], boxes[:1], [0, 0])


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def make_prediction(rng, n=2, n_obj=4, n_rel=3):
    obj = rng.uniform(-2, 2, size=(n, n_obj))
    pairs = pair_index(n)
    rel = rng.uniform(-2, 2, size=(len(pairs), n_rel)) if pairs else None
    return SceneGraphPrediction(Tensor(obj), pairs,
                                Tensor(rel) if rel is not None else None)


def test_recall_validation_errors():
    rng = np.random.default_rng(1)
    pred = make_prediction(rng)
    with pytest.raises(ConfigError):
        mt.recall_at_k(pred, [], 0, mt.MODE_SGCLS)
    with pytest.raises(ConfigError):
        mt.recall_at_k(pred, [], 5, "sgdet")
    with pytest.raises(ValidationError):
        mt.recall_at_k(pred, [mt.Triplet(1, 0, 0, 0, 0)], 5, mt.MODE_PREDCLS)


def test_recall_zero_ground_truth_is_one():
    pred = make_prediction(np.random.default_rng(2))
    assert mt.recall_at_k(pred, [], 3, mt.MODE_SGCLS) == 1.0


def test_recall_two_nodes_matches_brute_force():
    # derived case: 2 nodes, 3 relations, k=1
    rng = np.random.default_rng(3)
    for trial in range(20):
        pred = make_prediction(rng, n=2, n_obj=4, n_rel=3)
        probs = _softmax_rows(pred.object_logits.data)
        cls = probs.argmax(axis=1)
        rel_probs = sigmoid_values(pred.relation_logits.data)
        # all candidates for the single pair (1, 0), scored by hand
        scored = [
            (probs[1, cls[1]] * rel_probs[0, r] * probs[0, cls[0]], r)
            for r in range(3)
        ]
        best_rel = max(scored, key=lambda t: t[0])[1]
        gt = [mt.Triplet(1, 0, int(cls[1]), int(cls[0]), int(best_rel))]
        assert mt.recall_at_k(pred, gt, 1, mt.MODE_SGCLS) == 1.0
        wrong = [mt.Triplet(1, 0, int(cls[1]), int(cls[0]), int((best_rel + 1) % 3))]
        assert mt.recall_at_k(pred, wrong, 1, mt.MODE_SGCLS) == 0.0
        # with k covering every candidate, class-consistent triplets are found
        assert mt.recall_at_k(pred, gt + wrong, 3, mt.MODE_SGCLS) == 1.0


def test_recall_predcls_uses_ground_truth_classes():
    rng = np.random.default_rng(4)
    pred = make_prediction(rng, n=2, n_obj=4, n_rel=2)
    rel_probs = sigmoid_values(pred.relation_logits.data)
    best_rel = int(rel_probs[0].argmax())
    # classes that the model would never predict still match in predcls
    gt = [mt.Triplet(1, 0, 3, 3, best_rel)]
    got = mt.recall_at_k(pred, gt, 1, mt.MODE_PREDCLS, gt_object_classes=[3, 3])
    assert got == 1.0
    assert mt.recall_at_k(pred, gt, 1, mt.MODE_SGCLS) in (0.0, 1.0)  # depends on argmax


def test_recall_non_decreasing_in_k():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        pred = make_prediction(rng, n=n, n_obj=3, n_rel=4)
        probs = _softmax_rows(pred.object_logits.data)
        cls = probs.argmax(axis=1)
        pairs = pair_index(n)
        gt = []
        for (i, j) in pairs[: int(rng.integers(1, len(pairs) + 1))]:
            gt.append(mt.Triplet(i, j, int(cls[i]), int(cls[j]), int(rng.integers(4))))
        prev = 0.0
        for k in range(1, len(pairs) * 4 + 2):
            r = mt.recall_at_k(pred, gt, k, mt.MODE_SGCLS)
            assert r >= prev - 1e-15
            prev = r
        assert prev == 1.0  # k above the candidate count finds everything


@st.composite
def scored_keyframes(draw):
    """One keyframe's logits, classes, ground truth, cutoffs and mode.

    Logits on a coarse grid make tied scores common.  Ground truth rows
    mostly name a node pair and predicate of the keyframe, but may take
    node indices from -2 to n + 1 and predicates from -1 to the predicate
    count, so some name no candidate; half of them carry the classes the
    mode scores, so some are hits, and rows repeat.
    """
    n = draw(st.integers(1, 6))
    classes, predicates = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from([mt.MODE_SGCLS, mt.MODE_PREDCLS]))
    def matrix(rows, cols):
        return draw(arrays(np.int64, (rows, cols), elements=st.integers(-6, 6))) / 3

    object_logits = matrix(n, classes)
    pairs = n * (n - 1) // 2
    relation_logits = matrix(pairs, predicates) if pairs else None
    gt_classes = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    scored_class = gt_classes if mode == mt.MODE_PREDCLS else list(object_logits.argmax(axis=1))
    candidate = (st.tuples(st.sampled_from(pair_index(n)), st.integers(0, predicates - 1))
                 .map(lambda c: (*c[0], c[1])) if pairs else st.nothing())
    node = st.integers(-2, n + 1)
    stray = st.tuples(node, node, st.integers(-1, predicates))
    gt = []
    for (s, o, r), own in draw(st.lists(st.tuples(candidate | stray, st.booleans()),
                                        min_size=1, max_size=8)):
        if own and 0 <= s < n and 0 <= o < n:
            cs, co = int(scored_class[s]), int(scored_class[o])
        else:
            cs, co = draw(st.integers(-1, classes)), draw(st.integers(-1, classes))
        gt.append((s, o, cs, co, r))
    gt += gt[:draw(st.integers(0, len(gt)))]
    ks = draw(st.lists(st.integers(1, pairs * predicates + 3), min_size=1, max_size=4))
    return object_logits, relation_logits, gt, ks, mode, gt_classes


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=scored_keyframes())
def test_triplet_recall_equals_loop_reference(case):
    object_logits, relation_logits, gt, ks, mode, gt_classes = case
    want = {k: reference_recall(object_logits, relation_logits, gt, k, mode, gt_classes)
            for k in ks}
    gt_array = np.array(gt, dtype=np.int64).reshape(-1, 5)
    assert mt.triplet_recall(object_logits, relation_logits, gt_array, ks, mode,
                             gt_object_classes=gt_classes) == want
    pred = SceneGraphPrediction(Tensor(object_logits), pair_index(len(object_logits)),
                                None if relation_logits is None else Tensor(relation_logits))
    triplets = [mt.Triplet(*t) for t in gt]
    for k in ks:
        assert mt.recall_at_k(pred, triplets, k, mode, gt_object_classes=gt_classes) == want[k]


def test_triplet_recall_validates_before_scoring():
    obj = np.zeros((3, 2))
    rel = np.zeros((3, 2))
    gt = np.array([[1, 0, 0, 0, 0]])
    with pytest.raises(ConfigError, match="cutoff"):
        mt.triplet_recall(obj, rel, np.zeros((0, 5), dtype=int), (5, 0), mt.MODE_SGCLS)
    with pytest.raises(ConfigError, match="mode"):
        mt.triplet_recall(obj, rel, gt, (5,), "sgdet")
    with pytest.raises(ShapeError):
        mt.triplet_recall(obj, rel, np.array([[1, 0, 0]]), (5,), mt.MODE_SGCLS)
    with pytest.raises(ShapeError):
        mt.triplet_recall(obj, rel[:2], gt, (5,), mt.MODE_SGCLS)
    assert mt.triplet_recall(obj, rel, np.zeros((0, 5), dtype=int), (1, 5),
                             mt.MODE_PREDCLS) == {1: 1.0, 5: 1.0}
    # every score ties, so enumeration order decides: (1,0) r0, (1,0) r1, (2,0) r0, ...
    late = np.array([[2, 1, 0, 0, 1], [1, 0, 0, 0, 1]])
    assert mt.triplet_recall(obj, rel, late, (1, 2, 5, 6), mt.MODE_SGCLS) == {
        1: 0.0, 2: 0.5, 5: 0.5, 6: 1.0}


def test_triplet_recall_ranks_by_triplet_score_bits():
    # Pairs (1,0) and (2,1) score p1 p_r p0 and p0 p_r p1, equal in exact
    # arithmetic; (p1 p_r) p0 is one ulp above (p0 p_r) p1, while the
    # other association, p1 (p_r p0), would put (2,1) first.
    obj = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    rel = np.array([[8 / 3], [-3.0], [8 / 3]])
    probs = _softmax_rows(obj)[:, 0]
    p_r = sigmoid_values(np.array(8 / 3))
    assert (probs[1] * p_r) * probs[0] > (probs[0] * p_r) * probs[1]
    gt = np.array([[1, 0, 0, 0, 0]])
    assert mt.triplet_recall(obj, rel, gt, (1,), mt.MODE_SGCLS) == {1: 1.0}
    assert reference_recall(obj, rel, [(1, 0, 0, 0, 0)], 1, mt.MODE_SGCLS) == 1.0


def test_triplet_recall_matches_reference_on_tied_wide_keyframes():
    # 16 nodes give 360 candidates, enough that an unstable sort would
    # reorder ties; logits on a grid of five values tie many scores
    rng = np.random.default_rng(6)
    partial = 0
    for mode in (mt.MODE_SGCLS, mt.MODE_PREDCLS):
        for _ in range(10):
            obj = rng.integers(-2, 3, size=(16, 5)) / 2
            rel = rng.integers(-2, 3, size=(120, 3)) / 2
            classes = list(rng.integers(0, 5, size=16))
            scored = classes if mode == mt.MODE_PREDCLS else list(obj.argmax(axis=1))
            pairs = pair_index(16)
            gt = [(s, o, int(scored[s]), int(scored[o]), int(rng.integers(3)))
                  for s, o in (pairs[p] for p in rng.integers(0, 120, size=30))]
            ks = (1, 20, 50, 100, 200)
            want = {k: reference_recall(obj, rel, gt, k, mode, classes) for k in ks}
            partial += 0.0 < want[50] < 1.0
            assert mt.triplet_recall(obj, rel, np.array(gt), ks, mode,
                                     gt_object_classes=classes) == want
    assert partial >= 15


def keyframe_recall(object_logits, relation_logits, gt, ks, mode, gt_object_classes=None):
    """triplet_recall as it ran keyframe by keyframe, before recall took whole blocks."""
    gt = np.asarray(gt, dtype=np.int64)
    if not gt.size:
        return {k: 1.0 for k in ks}
    n = object_logits.shape[0]
    if mode == mt.MODE_PREDCLS:
        node_class = np.asarray(gt_object_classes).astype(np.int64)
        node_prob = np.ones(n)
    else:
        e = np.exp(object_logits - object_logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        node_class = probs.argmax(axis=1)
        node_prob = probs[np.arange(n), node_class]
    if relation_logits is None:
        return {k: 0.0 for k in ks}
    subjects, objects = np.array(pair_index(n), dtype=np.int64).reshape(-1, 2).T
    predicates = relation_logits.shape[1]
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


@st.composite
def scored_blocks(draw):
    """A block of 1 to 5 keyframes with n nodes each, scored as scored_keyframes scores one.

    Each keyframe has its own logits, classes and 0 to 6 ground-truth
    rows, so blocks are ragged and some keyframes have no ground truth.
    """
    n, blocks = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    classes, predicates = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mode = draw(st.sampled_from([mt.MODE_SGCLS, mt.MODE_PREDCLS]))
    pairs = n * (n - 1) // 2
    grid = st.integers(-4, 4)
    object_logits = draw(arrays(np.int64, (blocks, n, classes), elements=grid)) / 2
    relation_logits = (draw(arrays(np.int64, (blocks, pairs, predicates), elements=grid)) / 2
                       if pairs else None)
    gt_classes = draw(arrays(np.int64, (blocks, n), elements=st.integers(0, classes - 1)))
    scored_class = gt_classes if mode == mt.MODE_PREDCLS else object_logits.argmax(axis=-1)
    node, predicate = st.integers(-1, n), st.integers(-1, predicates)
    rows = []
    for b in range(blocks):
        rows.append([])
        for s, o, r, own in draw(st.lists(st.tuples(node, node, predicate, st.booleans()),
                                          max_size=6)):
            if own and 0 <= s < n and 0 <= o < n:
                cs, co = int(scored_class[b, s]), int(scored_class[b, o])
            else:
                cs, co = draw(st.integers(-1, classes)), draw(st.integers(-1, classes))
            rows[-1].append((s, o, cs, co, r))
    ks = draw(st.lists(st.integers(1, pairs * predicates + 2), min_size=1, max_size=4))
    return object_logits, relation_logits, rows, ks, mode, gt_classes


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=scored_blocks())
def test_block_recall_equals_a_loop_over_its_keyframes(case):
    object_logits, relation_logits, rows, ks, mode, gt_classes = case
    gt = np.array([row for frame in rows for row in frame], dtype=np.int64).reshape(-1, 5)
    got = mt.triplet_recall_block(object_logits, relation_logits, gt, [len(f) for f in rows],
                                  ks, mode, gt_object_classes=gt_classes)
    want = [keyframe_recall(object_logits[b], None if relation_logits is None
                            else relation_logits[b], np.array(frame, dtype=np.int64), ks, mode,
                            gt_classes[b]) for b, frame in enumerate(rows)]
    assert got == want
    assert repr(got) == repr(want)
    for recall, frame, b in zip(got, rows, range(len(rows))):
        assert all(type(v) is float for v in recall.values())
        assert recall == {k: reference_recall(object_logits[b], None if relation_logits is None
                                              else relation_logits[b], frame, k, mode,
                                              gt_classes[b]) for k in ks}


@st.composite
def ranked_rows(draw):
    """Score rows, entries to rank in them, and cutoffs with a repeat and one above the row length.

    Half the cases draw scores from three values, so most entries tie.
    """
    rows, size = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    values = (st.sampled_from([0.0, 0.25, 1.0]) if draw(st.booleans())
              else st.floats(0.0, 1.0, allow_nan=False))
    scores = draw(arrays(np.float64, (rows, size), elements=values))
    picks = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, size - 1)),
                          max_size=12))
    ks = draw(st.lists(st.integers(1, size), min_size=1, max_size=4))
    ks += [ks[0], size + draw(st.integers(1, 3))]
    return scores, np.array(picks, dtype=np.intp).reshape(-1, 2).T, ks


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=ranked_rows())
def test_ranks_below_agree_with_a_stable_sort(case):
    scores, (rows, cols), ks = case
    order = np.argsort(-scores, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(scores.shape[1]), axis=-1)
    below = mt.ranks_below(scores, rows, cols, ks)
    assert sorted(below) == sorted(set(ks))
    for k in ks:
        assert below[k].dtype == bool and below[k].tolist() == (rank[rows, cols] < k).tolist()


def test_block_recall_checks_its_counts_and_classes():
    obj, rel = np.zeros((2, 3, 2)), np.zeros((2, 3, 2))
    gt = np.array([[1, 0, 0, 0, 0], [2, 1, 0, 0, 1]])
    with pytest.raises(ShapeError, match="count"):
        mt.triplet_recall_block(obj, rel, gt, [1], (5,), mt.MODE_SGCLS)
    with pytest.raises(ShapeError, match="count"):
        mt.triplet_recall_block(obj, rel, gt, [1, 2], (5,), mt.MODE_SGCLS)
    with pytest.raises(ValidationError):
        mt.triplet_recall_block(obj, rel, gt, [1, 1], (5,), mt.MODE_PREDCLS, [[0, 0, 0]])
    with pytest.raises(ShapeError):
        mt.triplet_recall_block(obj, rel[:, :2], gt, [1, 1], (5,), mt.MODE_SGCLS)
    # every score ties, so each keyframe ranks by enumeration order
    assert mt.triplet_recall_block(obj, rel, gt, [0, 2], (1, 6), mt.MODE_SGCLS) == [
        {1: 1.0, 6: 1.0}, {1: 0.5, 6: 1.0}]
