"""Readout heads and losses on final foreground states.

Action detection: per-node multi-label logits with a mean binary cross
entropy over classes.  Scene graphs: a softmax class head per node plus
a relation head over ordered node pairs (i, j) with i > j, scored from
the concatenated pair states.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numgrad as ng
from .errors import ValidationError
from .numgrad import Tensor

# weight of the object term against the relation term of the scene-graph loss
OBJECT_WEIGHT = 0.5


def action_readout(states: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Linear logits per state row: states @ weight + bias.

    states is one state (d,), a matrix of rows (n, d) or a stack of B
    keyframes' rows (B, n, d).
    """
    with ng.checked("action readout"):
        logits = ng.matmul(states, weight)
        logits = ng.add(logits, bias) if logits.ndim == 1 else ng.add_rowvec(logits, bias)
    ng.check_finite("action readout", logits)
    return logits


def action_loss(logits: Tensor, labels: Tensor) -> Tensor:
    """Mean sigmoid cross entropy over every logit.

    Accepts one node (C,) or a batch (n, C); the gradient with respect to
    the logits is exactly (sigmoid(x) - y) / count.
    """
    return ng.bce_with_logits_mean(logits, labels)


def pair_index(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (i, j) with i > j: (1,0), (2,0), (2,1), ..."""
    return [(i, j) for i in range(1, n) for j in range(i)]


@dataclass
class SceneGraphPrediction:
    """Logits for one keyframe: per-node classes and per-pair relations."""

    object_logits: Tensor            # (n, object_classes), or (B, n, ...) for a stack
    pairs: list[tuple[int, int]]     # row order of relation_logits
    relation_logits: Tensor | None   # (len(pairs), relation_classes); None if n == 1


def sg_readout(states: Tensor, object_weight: Tensor, object_bias: Tensor,
               relation_weight: Tensor, relation_bias: Tensor) -> SceneGraphPrediction:
    """Object and relation logits for all foreground nodes of a keyframe.

    The relation input for pair (i, j) is the concatenation of the two
    final states, put through a single linear layer.  states is (n, d), or
    a (B, n, d) stack of keyframes with n nodes each, which gives stacked
    logits.
    """
    if states.ndim not in (2, 3) or states.shape[-2] < 1:
        raise ValidationError(f"sg_readout expects at least one state row, got {states.shape}")
    n, lead = states.shape[-2], states.shape[:-2]
    pairs = pair_index(n)
    relation_logits = None
    with ng.checked("scene-graph readout"):
        object_logits = ng.add_rowvec(ng.matmul(states, object_weight), object_bias)
        if pairs:
            # row r of slice b is row b * n + r of the stack
            first = np.arange(math.prod(lead)).reshape(lead + (1,)) * n
            heads_i = ng.gather_rows(states, first + [i for i, _ in pairs])
            heads_j = ng.gather_rows(states, first + [j for _, j in pairs])
            pair_states = ng.concat_cols([heads_i, heads_j])
            relation_logits = ng.add_rowvec(ng.matmul(pair_states, relation_weight), relation_bias)
    ng.check_finite("scene-graph readout", object_logits)
    if relation_logits is not None:
        ng.check_finite("scene-graph readout", relation_logits)
    return SceneGraphPrediction(object_logits, pairs, relation_logits)


def sg_loss(object_logits: Tensor, relation_logits: Tensor | None,
            object_onehot: Tensor, relation_targets: Tensor | None,
            lam: float = OBJECT_WEIGHT) -> Tensor:
    """Weighted scene-graph loss: lam * object loss + relation loss.

    The object term is softmax cross entropy averaged over nodes; the
    relation term is sigmoid cross entropy averaged over all pair/relation
    slots.  With a single node there are no pairs and the relation term
    vanishes.
    """
    ng.check_one_hot(object_onehot.data)
    if object_logits.shape != object_onehot.shape:
        raise ValidationError(
            f"object logits {object_logits.shape} and targets {object_onehot.shape} differ")
    obj = ng.softmax_xent_mean(object_logits, object_onehot)
    if relation_logits is None:
        return ng.scale(obj, lam)
    if relation_targets is None or relation_logits.shape != relation_targets.shape:
        raise ValidationError("relation logits and targets must have matching shapes")
    rel = ng.bce_with_logits_mean(relation_logits, relation_targets)
    return ng.add(ng.scale(obj, lam), rel)
