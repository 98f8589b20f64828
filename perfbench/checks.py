"""Output checks that need no stored copy of any result.

Each check compares a program output with a value this file recomputes
on its own (a loop oracle, a readout, a training replay, a central
difference, a re-ranking) and returns ``(ok, detail)``.  Nothing here
imports the program's metric, readout, optimizer or autodiff code, so a
fault there cannot cancel out against itself.
"""

import math

import numpy as np

ORACLE_TOL = 1e-8
REPLAY_TOL = 1e-9
DIRECTIONAL_TOL = 1e-4
DIRECTIONAL_STEP = 1e-5
DIRECTIONAL_FLOOR = 1e-6
METRIC_TOL = 1e-12
IOU_THRESHOLD = 0.5


def arrays_agree(program: list[np.ndarray], reference: list[np.ndarray], what: str,
                 tol: float = ORACLE_TOL) -> tuple[bool, str]:
    """Program arrays (states or logits, in keyframe order) against the oracle's."""
    if len(program) != len(reference):
        return False, f"{len(program)} {what} arrays vs {len(reference)} in the oracle"
    worst = 0.0
    for got, want in zip(program, reference):
        if got.shape != want.shape:
            return False, f"{what} shape {got.shape} vs {want.shape} in the oracle"
        worst = max(worst, float(np.abs(got - want).max()))
    return worst <= tol, f"{what}: max |program - oracle| = {worst:.3e} (tol {tol:g})"


def oracle_inputs(frames, params: dict[str, np.ndarray]):
    """Initial states per keyframe, projected here from featurize output.

    Context rows are grid cells first, then proposals, as the model
    orders them.
    """
    fg0, ctx0 = [], []
    for f in frames:
        fg0.append(f.fg_feats @ params["input.foreground.weight"])
        parts = [f.ctx_feats @ params["input.context.weight"]]
        if f.prop_feats is not None:
            parts.append(f.prop_feats @ params["input.proposal.weight"])
        ctx0.append(np.vstack(parts))
    return fg0, ctx0


def oracle_readout(states: list[np.ndarray], params: dict[str, np.ndarray],
                   action: bool) -> list[np.ndarray]:
    """Logits from final states, laid out as ``bench.forward`` returns them.

    Action: states @ W + b per keyframe.  Scene graph: object logits
    states @ W_obj + b_obj, then, for two or more states, relation logits
    [h_i, h_j] @ W_rel + b_rel for the pairs i > j in the order (1,0),
    (2,0), (2,1), ...
    """
    out = []
    for h in states:
        if action:
            out.append(h @ params["readout.action.weight"] + params["readout.action.bias"])
            continue
        out.append(h @ params["readout.object.weight"] + params["readout.object.bias"])
        pairs = [(i, j) for i in range(h.shape[0]) for j in range(i)]
        if pairs:
            joined = np.array([np.concatenate([h[i], h[j]]) for i, j in pairs])
            out.append(joined @ params["readout.relation.weight"] + params["readout.relation.bias"])
    return out


# ---------------------------------------------------------------------------
# training


SGD_MOMENTUM = 0.9
SGD_WEIGHT_DECAY = 1e-7
SHUFFLE_STREAM = 9173


def learning_rate(epoch: float, schedule) -> float:
    """Linear warmup from warmup_start_lr to base_lr over warmup_epochs, then
    base_lr divided by decay_factor once for every decay epoch reached."""
    if epoch < schedule.warmup_epochs:
        frac = epoch / schedule.warmup_epochs
        return schedule.warmup_start_lr + (schedule.base_lr - schedule.warmup_start_lr) * frac
    reached = sum(1 for d in schedule.decay_epochs if epoch >= d)
    return schedule.base_lr / schedule.decay_factor ** reached


def replay_training(initial: dict[str, np.ndarray], batch_grads, clip_count: int,
                    batch_size: int, tau_c: int, schedule, seed: int) -> dict[str, np.ndarray]:
    """The parameters a training run should end with, from a loop written here.

    Every epoch visits the clips in a permutation drawn from
    ``default_rng([seed, SHUFFLE_STREAM])``, in batches of batch_size, or
    batch_size // tau_c (at least 1) when tau_c > 1.  Batch b of n in
    epoch e steps with the learning rate at e + b / n:
    v <- momentum v + (g + weight_decay p), p <- p - lr v.
    ``batch_grads(indices, params)`` gives the gradient of the summed
    loss of those clips at ``params``.
    """
    batch = max(1, batch_size // tau_c) if tau_c > 1 else batch_size
    steps = math.ceil(clip_count / batch)
    params = {n: a.copy() for n, a in initial.items()}
    velocity = {n: np.zeros_like(a) for n, a in initial.items()}
    rng = np.random.default_rng([seed, SHUFFLE_STREAM])
    for epoch in range(math.ceil(schedule.total_epochs)):
        order = rng.permutation(clip_count)
        for b in range(steps):
            lr = learning_rate(epoch + b / steps, schedule)
            grads = batch_grads(order[b * batch:(b + 1) * batch], params)
            for name, p in params.items():
                velocity[name] = SGD_MOMENTUM * velocity[name] + (grads[name]
                                                                  + SGD_WEIGHT_DECAY * p)
                params[name] = p - lr * velocity[name]
    return params


def params_close(program: dict[str, np.ndarray], reference: dict[str, np.ndarray],
                 tol: float = REPLAY_TOL) -> tuple[bool, str]:
    """Same names and shapes, and no entry further than tol from the reference."""
    if set(program) != set(reference):
        return False, f"names differ: {sorted(set(program) ^ set(reference))}"
    worst, where = 0.0, None
    for name, want in reference.items():
        got = program[name]
        if got.shape != want.shape:
            return False, f"{name!r} shape {got.shape} vs {want.shape} in the replay"
        gap = float(np.abs(got - want).max()) if want.size else 0.0
        if gap > worst:
            worst, where = gap, name
    return worst <= tol, f"max |program - replay| = {worst:.3e} at {where!r} (tol {tol:g})"


def random_direction(params: dict[str, np.ndarray], seed) -> dict[str, np.ndarray]:
    """A seeded direction of unit length over all parameters together."""
    rng = np.random.default_rng(seed)
    v = {name: rng.normal(size=p.shape) for name, p in sorted(params.items())}
    norm = np.sqrt(sum(float((x * x).sum()) for x in v.values()))
    return {name: x / norm for name, x in v.items()}


def directional_derivative_agrees(loss_at, params: dict[str, np.ndarray],
                                  grads: dict[str, np.ndarray], direction: dict[str, np.ndarray],
                                  step: float = DIRECTIONAL_STEP,
                                  tol: float = DIRECTIONAL_TOL) -> tuple[bool, str]:
    """<grad, v> against (L(p + h v) - L(p - h v)) / 2h.

    ``loss_at`` maps a name -> ndarray dict to the scalar loss.
    """
    analytic = sum(float((grads[n] * direction[n]).sum()) for n in params)
    hi = loss_at({n: p + step * direction[n] for n, p in params.items()})
    lo = loss_at({n: p - step * direction[n] for n, p in params.items()})
    numeric = (hi - lo) / (2.0 * step)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), DIRECTIONAL_FLOOR)
    return err <= tol, (f"<grad, v> = {analytic:.9e}, central difference = {numeric:.9e}, "
                        f"relative error {err:.2e} (tol {tol:g})")


def params_identical(saved: dict[str, np.ndarray], loaded: dict[str, np.ndarray]) -> tuple[bool, str]:
    """Same names, shapes, dtypes and bytes."""
    if set(saved) != set(loaded):
        return False, f"names differ: {sorted(set(saved) ^ set(loaded))}"
    for name, a in saved.items():
        b = loaded[name]
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return False, f"{name!r} changed in the round trip"
    return True, f"{len(saved)} tensors bit-identical"


# ---------------------------------------------------------------------------
# frame AP


def _iou(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def average_precision(hits: list[bool], num_gt: int) -> float:
    """Area under the precision envelope, summed at each true positive.

    ``hits`` lists the detections of one class in rank order.  Every true
    positive adds 1/num_gt of recall at the best precision reached at its
    rank or any later one.
    """
    if num_gt == 0:
        return 0.0
    hit = np.asarray(hits, dtype=bool)
    precision = np.cumsum(hit) / np.arange(1, hit.size + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(envelope[hit].sum() / num_gt)


def frame_map(detections, ground_truth, iou_threshold: float = IOU_THRESHOLD) -> tuple[dict, float]:
    """Per-class AP and their mean over classes that have ground truth.

    detections: (frame, box, class, score) tuples; ground_truth: (frame,
    box, class).  Boxes are (x1, y1, x2, y2).  Detections rank by
    descending score, input order first among equals; each is matched to
    the ground truth box it overlaps most in its frame, and counts as a
    hit if that overlap reaches the threshold and the box is still free.
    """
    classes = sorted({g[2] for g in ground_truth})
    per_class = {}
    for cls in classes:
        free: dict = {}
        for frame, box, c in ground_truth:
            if c == cls:
                free.setdefault(frame, []).append([box, True])
        mine = [d for d in detections if d[2] == cls]
        order = np.argsort([-d[3] for d in mine], kind="stable")
        hits = []
        for i in order:
            frame, box = mine[i][0], mine[i][1]
            slots = free.get(frame, [])
            overlaps = [_iou(box, g) for g, _ in slots]
            best = int(np.argmax(overlaps)) if overlaps else -1
            hit = best >= 0 and overlaps[best] >= iou_threshold and slots[best][1]
            if hit:
                slots[best][1] = False
            hits.append(hit)
        per_class[cls] = average_precision(hits, sum(len(v) for v in free.values()))
    return per_class, float(np.mean([per_class[c] for c in classes]))


def values_agree(reported: float, recomputed: float, what: str,
                 tol: float = METRIC_TOL) -> tuple[bool, str]:
    ok = abs(reported - recomputed) <= tol
    return ok, f"{what}: program {reported!r}, recomputed {recomputed!r}"


# ---------------------------------------------------------------------------
# triplet recall


def sigmoid(x: np.ndarray) -> np.ndarray:
    # the exp(-|x|) form, so scores match the program's to the last bit
    # and ranking ties break the same way
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sgcls_recall(object_logits: np.ndarray, relation_logits: np.ndarray | None,
                 gt_triplets, k: int) -> float:
    """Share of (subject, object, predicate, subject class, object class)
    ground truth found among the k best-scored candidates.

    Candidates are every ordered pair (i, j), i > j, in the order
    (1,0), (2,0), (2,1), ..., times every predicate; a candidate scores
    p(class_i) * p(predicate) * p(class_j) with each node's arg-max class.
    A keyframe without ground truth counts as fully recalled.
    """
    if not gt_triplets:
        return 1.0
    probs = softmax_rows(object_logits)
    cls = probs.argmax(axis=1)
    p_cls = probs[np.arange(len(cls)), cls]
    n = object_logits.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i)]
    if relation_logits is None or not pairs:
        return 0.0
    rel = sigmoid(relation_logits)
    scores, keys = [], []
    for row, (i, j) in enumerate(pairs):
        for r in range(rel.shape[1]):
            scores.append(p_cls[i] * rel[row, r] * p_cls[j])
            keys.append((i, j, r))
    top = {keys[c] for c in np.argsort(-np.asarray(scores), kind="stable")[:k]}
    hits = sum(1 for s, o, cs, co, r in gt_triplets
               if (s, o, r) in top and cls[s] == cs and cls[o] == co)
    return hits / len(gt_triplets)
