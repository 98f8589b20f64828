"""Scripted plain-numpy evaluation of the message passing stack, recall@K and frame AP.

Used as an independent oracle: no tape, no shared helpers, explicit
per-node loops, neighborhoods re-derived from first principles.  Takes
initial states as raw arrays plus a flat name -> ndarray weight dict.
"""

import numpy as np


def keyframe_states(graph, pos):
    """(foreground, context) state arrays of keyframe pos, as its block holds them."""
    k, j = graph.where[pos]
    block = graph.blocks[k]
    return block.fg_states.data[j], block.ctx_states.data[j]


def softmax_vec(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def layer_norm_vec(x, scale, shift, eps):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return scale * (x - mu) / np.sqrt(var + eps) + shift


def reference_inference(fg0, ctx0, weights, cfg):
    """Final foreground states per keyframe, plain loops throughout.

    fg0/ctx0: lists of (n_k, d) / (m_k, d) arrays, one per keyframe.
    cfg keys: state_dim, heads, iterations, message_fns, tau_c, tau_s, ln_eps.
    """
    d = cfg["state_dim"]
    tau_c, tau_s = cfg["tau_c"], cfg["tau_s"]
    eps = cfg.get("ln_eps", 1e-5)
    states = [np.array(a, dtype=float) for a in fg0]
    ctx = [np.array(a, dtype=float) for a in ctx0]
    num_k = len(states)
    half = tau_c // 2
    offsets = [t for t in range(-half, half + 1) if t != 0]
    phases = ["spatial"] + (["temporal"] if tau_c > 1 else [])

    for it in range(cfg["iterations"]):
        for phase in phases:
            snap = [s.copy() for s in states]
            new = [s.copy() for s in states]
            for k in range(num_k):
                if phase == "spatial":
                    kv = np.vstack([snap[k], ctx[k]]) if ctx[k].shape[0] else snap[k].copy()
                else:
                    nbr = [k + t * tau_s for t in offsets if 0 <= k + t * tau_s < num_k]
                    if not nbr:
                        continue
                    kv = np.vstack([snap[p] for p in nbr])
                for r in range(snap[k].shape[0]):
                    h_v = snap[k][r]
                    msgs = []
                    for fn in cfg["message_fns"]:
                        for hh in range(cfg["heads"]):
                            base = f"mp.iter{it}.{phase}.{fn}.head{hh}"
                            if fn == "nonlocal":
                                q = h_v @ weights[base + ".query"]
                                logits = np.array(
                                    [q @ (kv[j] @ weights[base + ".key"]) for j in range(len(kv))]
                                ) / np.sqrt(d)
                                att = softmax_vec(logits)
                                msg = np.zeros(d)
                                for j in range(len(kv)):
                                    msg = msg + att[j] * (kv[j] @ weights[base + ".value"])
                            else:
                                scores = np.array([
                                    max(0.0, float(np.concatenate([h_v, kv[j]]) @ weights[base + ".score"]))
                                    for j in range(len(kv))
                                ])
                                att = softmax_vec(scores)
                                agg = np.zeros(d)
                                for j in range(len(kv)):
                                    agg = agg + att[j] * kv[j]
                                msg = np.maximum(agg @ weights[base + ".transform"], 0.0)
                            msgs.append(msg)
                    if len(msgs) > 1:
                        gate = weights[f"mp.iter{it}.{phase}.gate"]
                        sc = np.array([max(0.0, float(np.concatenate([h_v, m]) @ gate)) for m in msgs])
                        wts = softmax_vec(sc)
                        combined = np.zeros(d)
                        for w, m in zip(wts, msgs):
                            combined = combined + w * m
                    else:
                        combined = msgs[0]
                    new[k][r] = layer_norm_vec(
                        h_v + combined,
                        weights[f"mp.iter{it}.{phase}.norm.scale"],
                        weights[f"mp.iter{it}.{phase}.norm.shift"],
                        eps,
                    )
            states = new
    return states


def reference_recall(object_logits, relation_logits, gt, k, mode, gt_object_classes=None):
    """Recall@k of one keyframe from a sort of scored candidate tuples.

    The oracle for metrics.triplet_recall.  gt lists (subject, object,
    subject class, object class, predicate) tuples; relation rows follow
    the pairs (1,0), (2,0), (2,1), ...  mode is "sgcls" (each node's own
    arg-max class and probability) or "predcls" (the given classes, with
    probability one).  A keyframe without ground truth scores 1.
    """
    if not gt:
        return 1.0
    n = object_logits.shape[0]
    if mode == "predcls":
        node_class = [int(c) for c in gt_object_classes]
        node_prob = [1.0] * n
    else:
        shifted = object_logits - object_logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        node_class = [int(np.argmax(probs[i])) for i in range(n)]
        node_prob = [float(probs[i, node_class[i]]) for i in range(n)]
    candidates = []  # (score, subject, object, subject class, object class, predicate)
    if relation_logits is not None:
        # the exp(-|x|) sigmoid, so scores and their ties are the program's bits
        e = np.exp(-np.abs(relation_logits))
        rel_probs = np.where(relation_logits >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        pairs = [(i, j) for i in range(n) for j in range(i)]
        for row, (i, j) in enumerate(pairs):
            for r in range(rel_probs.shape[1]):
                score = node_prob[i] * float(rel_probs[row, r]) * node_prob[j]
                candidates.append((score, i, j, node_class[i], node_class[j], r))
    candidates.sort(key=lambda c: -c[0])  # stable: enumeration order breaks ties
    top = {c[1:] for c in candidates[:k]}
    return sum(1 for t in gt if tuple(int(v) for v in t) in top) / len(gt)


def reference_iou(a, b):
    """Intersection over union of two boxes with x1, y1, x2, y2; 0 when apart."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)


def reference_average_precision(tp_flags, num_gt):
    """All-point interpolated AP from ordered true-positive flags."""
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


def reference_frame_ap(detections, ground_truth, iou_threshold=0.5):
    """(per-class AP, mean) from per-class loops over detection objects.

    The oracle for metrics.frame_ap.  Detections have clip_id,
    keyframe_id, box, class_id and score; ground truth the same without
    score.  Per class, detections sort by descending score (input order
    among equals), and each is matched to the first ground truth of its
    keyframe with the highest IoU; a hit needs IoU >= the threshold and
    that ground truth still unmatched.
    """
    classes = sorted({g.class_id for g in ground_truth})
    per_class = {}
    for cls in classes:
        gts = [g for g in ground_truth if g.class_id == cls]
        by_frame = {}
        for g in gts:
            by_frame.setdefault((g.clip_id, g.keyframe_id), []).append([g.box, False])
        dets = sorted((d for d in detections if d.class_id == cls), key=lambda d: -d.score)
        flags = []
        for d in dets:
            slots = by_frame.get((d.clip_id, d.keyframe_id), [])
            best, best_iou = -1, 0.0
            for s, (box, _) in enumerate(slots):
                ov = reference_iou(d.box, box)
                if ov > best_iou:
                    best, best_iou = s, ov
            if best >= 0 and best_iou >= iou_threshold and not slots[best][1]:
                slots[best][1] = True
                flags.append(True)
            else:
                flags.append(False)
        per_class[cls] = reference_average_precision(flags, len(gts))
    return per_class, float(np.mean([per_class[c] for c in classes]))
