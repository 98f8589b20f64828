"""Readout heads and the two task losses, on final foreground states.

Action detection: per-node multi-label logits.  Scene graphs: a softmax
class head per node plus a relation head over ordered node pairs (i, j)
with i > j, scored from the concatenated pair states, each state
projected once (pair_logits).

The task losses are defined here and nowhere else.  Action: a clip's
loss is the sigmoid cross entropy averaged over every (box, class) logit
of all its keyframes.  Scene graph: a keyframe's loss is lam times its
object softmax cross entropy averaged over nodes, plus its predicate
sigmoid cross entropy averaged over (pair, predicate) slots, which a
keyframe with a single node does not have; a clip's loss is the mean
over its keyframes.  Both losses read the stacked logits of a graph's
blocks and return the sum of the clips' losses, in clip order, as one
tape entry.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numgrad as ng
from .errors import ShapeError, ValidationError
from .numgrad import Tensor

# weight of the object term against the relation term of the scene-graph loss
OBJECT_WEIGHT = 0.5


def action_readout(states: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Linear logits per state row: states @ weight + bias.

    states is a matrix of rows (n, d) or a stack of B keyframes' rows
    (B, n, d).
    """
    with ng.checked("action readout"):
        logits = ng.add_rowvec(ng.matmul(states, weight), bias)
    ng.check_finite("action readout", logits)
    return logits


def pair_row(i, j):
    """The row of pair (i, j), i > j, in pair_index order: ints or integer arrays."""
    return i * (i - 1) // 2 + j


@lru_cache(maxsize=64)
def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of pair_index(n)'s pairs, in its order."""
    # subject i comes i times, with objects 0 .. i-1
    i = np.repeat(np.arange(n), np.arange(n))
    j = np.arange(i.size) - pair_row(i, 0)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_index(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) with i > j: (1,0), (2,0), (2,1), ..."""
    i, j = pair_arrays(n)
    return list(zip(i.tolist(), j.tolist()))


@lru_cache(maxsize=64)
def _pair_tuple(n: int) -> tuple[tuple[int, int], ...]:
    """pair_index(n) as one tuple, shared by every prediction with n nodes."""
    return tuple(pair_index(n))


@dataclass
class SceneGraphPrediction:
    """Logits for one keyframe: per-node classes and per-pair relations."""

    object_logits: Tensor            # (n, object_classes), or (B, n, ...) for a stack
    pairs: Sequence[tuple[int, int]]  # row order of relation_logits
    relation_logits: Tensor | None   # (len(pairs), relation_classes); None if n == 1


def pair_logits(states: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Relation logits of every pair_index pair, as one tape entry.

    states is (n, d), or a (B, n, d) stack, which gives a (B, pairs, R)
    stack.  Row (i, j) is [h_i || h_j] @ weight + bias, computed as
    (h @ weight[:d])[i] + (h @ weight[d:])[j] + bias: every state is
    projected once, and R-wide rows are picked instead of 2d-wide pair
    rows, so a keyframe costs 2 n d R multiply-accumulates.  The backward
    lays the (pairs, R) cotangent into the lower triangle of an (n, n, R)
    array, whose row sums are the subject projections' cotangent and
    whose column sums are the object projections'.  The weight and bias
    get one piece per slice of a stack.
    """
    h, w, b = states.data, weight.data, bias.data
    d = h.shape[-1]
    if h.ndim not in (2, 3) or w.ndim != 2 or w.shape[0] != 2 * d or b.shape != w.shape[1:]:
        raise ShapeError(f"pair_logits: states {h.shape}, weight {w.shape} and bias {b.shape} "
                         f"do not align")
    n = h.shape[-2]
    subjects, objects = pair_arrays(n)
    top, bottom = w[:d], w[d:]
    out = (h @ top)[..., subjects, :] + (h @ bottom)[..., objects, :] + b

    def backward(g):
        triangle = np.zeros(g.shape[:-2] + (n, n, g.shape[-1]))
        triangle[..., subjects, objects, :] = g
        dsubject, dobject = triangle.sum(axis=-2), triangle.sum(axis=-3)
        ht = h.swapaxes(-1, -2)
        dweight = np.concatenate([ht @ dsubject, ht @ dobject], axis=-2)
        return dsubject @ top.T + dobject @ bottom.T, dweight, g.sum(axis=-2)

    return ng._emit(out, (states, weight, bias), backward)


def sg_readout(states: Tensor, object_weight: Tensor, object_bias: Tensor,
               relation_weight: Tensor, relation_bias: Tensor) -> SceneGraphPrediction:
    """Object and relation logits for all foreground nodes of a keyframe.

    The relation input for pair (i, j) is the concatenation of the two
    final states, put through a single linear layer, which pair_logits
    computes projection first.  states is (n, d), or a (B, n, d) stack of
    keyframes with n nodes each, which gives stacked logits.
    """
    if states.ndim not in (2, 3) or states.shape[-2] < 1:
        raise ValidationError(f"sg_readout expects at least one state row, got {states.shape}")
    n = states.shape[-2]
    relation_logits = None
    with ng.checked("scene-graph readout"):
        object_logits = ng.add_rowvec(ng.matmul(states, object_weight), object_bias)
        if n > 1:
            relation_logits = pair_logits(states, relation_weight, relation_bias)
    ng.check_finite("scene-graph readout", object_logits)
    if relation_logits is not None:
        ng.check_finite("scene-graph readout", relation_logits)
    return SceneGraphPrediction(object_logits, _pair_tuple(n), relation_logits)


def _bce_terms(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-element binary cross entropy from logits, finite for saturated logits."""
    return np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _clip_slices(stacks: list[np.ndarray], clips: list[list[tuple[int, int]]]) -> None:
    """Check that clips cover every slice of the stacks exactly once."""
    seen = sorted(pair for clip in clips for pair in clip)
    if seen != [(k, j) for k, s in enumerate(stacks) for j in range(s.shape[0])]:
        raise ShapeError("clip losses: clips must cover every stacked keyframe once")


def action_loss(logits: list[Tensor], targets: list[np.ndarray],
                clips: list[list[tuple[int, int]]]) -> Tensor:
    """Sum over clips of each clip's action loss, as one tape entry.

    logits[k] is a (B, n, C) stack of keyframe logits and targets[k] its
    0/1 labels.  A clip lists the (stack, slice) pairs of its keyframes in
    order.  Its loss is the mean of max(x, 0) - x z + log(1 + exp(-|x|))
    over those slices' rows laid end to end, and the clip losses are added
    in clip order.  The gradient with respect to a logit is exactly
    (sigmoid(x) - z) / count, count being its clip's number of logits.
    """
    xs = [t.data for t in logits]
    if any(x.ndim != 3 or x.shape != z.shape for x, z in zip(xs, targets)):
        raise ShapeError("action_loss: logits must be (B, n, C) stacks shaped as their targets")
    _clip_slices(xs, clips)
    terms = [_bce_terms(x, z) for x, z in zip(xs, targets)]
    counts = [np.zeros(x.shape[0]) for x in xs]
    total = None
    for clip in clips:
        rows = np.concatenate([terms[k][j] for k, j in clip])
        total = rows.mean() if total is None else total + rows.mean()
        for k, j in clip:
            counts[k][j] = rows.size

    def backward(g):
        return tuple(float(g) * (ng.sigmoid_values(x) - z) / count[:, None, None]
                     for x, z, count in zip(xs, targets, counts))

    return ng._emit(total, tuple(logits), backward)


def sg_loss(object_logits: list[Tensor], object_targets: list[np.ndarray],
            relation_logits: list[Tensor | None], relation_targets: list[np.ndarray | None],
            clips: list[list[tuple[int, int]]], lam: float = OBJECT_WEIGHT) -> Tensor:
    """Sum over clips of each clip's scene-graph loss, as one tape entry.

    Stack k holds (B, n, classes) object logits with one-hot targets, and
    (B, pairs, predicates) relation logits with multi-hot targets, or None
    when its keyframes have a single node.  A clip lists the (stack, slice)
    pairs of its keyframes in order; its loss is the sum of theirs in that
    order divided by their count, and the clip losses are added in clip
    order.  The object gradient is lam (softmax(x) - y) / nodes and the
    relation gradient (sigmoid(r) - z) / slots, each over the keyframe's
    count in its clip.
    """
    xs = [t.data for t in object_logits]
    rels = [None if t is None else t.data for t in relation_logits]
    if any(x.ndim != 3 or x.shape != y.shape for x, y in zip(xs, object_targets)):
        raise ShapeError("sg_loss: object logits must be (B, n, C) stacks "
                         "shaped as their targets")
    if any((r is None) != (z is None) or (r is not None and (r.ndim != 3 or r.shape != z.shape))
           for r, z in zip(rels, relation_targets)):
        raise ShapeError("sg_loss: relation logits and targets must match")
    if any(not np.all((y == 0.0) | (y == 1.0)) or not np.all(y.sum(axis=-1) == 1.0)
           for y in object_targets):
        raise ValidationError("object targets must be one-hot rows of zeros with a single one")
    _clip_slices(xs, clips)
    logps = [_log_softmax(x) for x in xs]
    frame_losses = []
    for logp, y, r, z in zip(logps, object_targets, rels, relation_targets):
        loss = -(y * logp).sum(axis=-1).mean(axis=-1) * lam
        if r is not None:
            loss = loss + _bce_terms(r, z).mean(axis=(-2, -1))
        frame_losses.append(loss)
    weights = [np.zeros(x.shape[0]) for x in xs]
    total = None
    for clip in clips:
        acc = None
        for k, j in clip:
            acc = frame_losses[k][j] if acc is None else acc + frame_losses[k][j]
            weights[k][j] = 1.0 / len(clip)
        acc = acc * (1.0 / len(clip))
        total = acc if total is None else total + acc

    def backward(g):
        dobject, drelation = [], []
        for x, logp, y, r, z, w in zip(xs, logps, object_targets, rels, relation_targets,
                                       weights):
            per_frame = float(g) * w
            dobject.append((per_frame * lam)[:, None, None] * (np.exp(logp) - y) / x.shape[1])
            if r is not None:
                count = r.shape[1] * r.shape[2]
                drelation.append(per_frame[:, None, None] * (ng.sigmoid_values(r) - z) / count)
        return (*dobject, *drelation)

    inputs = (*object_logits, *(t for t in relation_logits if t is not None))
    return ng._emit(total, inputs, backward)
