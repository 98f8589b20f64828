"""Standalone numgrad primitives that the library itself no longer calls.

The fused blocks in stgraph.numgrad and the relation head and clip losses
in stgraph.heads each replace a chain of these small primitives; the tests keep them to
check the fused blocks and losses against their chains bit for bit, and
to run the gradient checks of single operations.  Each records one tape
entry through numgrad's own recording path.  neighbors and gather wrap
plain (slices, stack) pairs and index arrays into the checked forms the
attention entries and gather_rows take.
"""

import numpy as np

from stgraph import numgrad as ng
from stgraph.errors import ShapeError
from stgraph.numgrad import Tensor


def neighbors(pairs) -> ng.Neighbors:
    """(slices, stack) pairs as the Neighbors the attention entries take, over a layout made here.

    The layout counts the pairs' slices, so pairs that list 0 ... B - 1
    once fit a (B, n, d) receiver stack; ng.KvLayout checks the pairs as
    graph.build_batch's layouts are checked.
    """
    slices, stacks = [s for s, _ in pairs], [t for _, t in pairs]
    return ng.Neighbors(ng.KvLayout(sum(map(len, slices)), slices,
                                    [t.data.shape[-2] for t in stacks]), stacks)


def gather(sources: list[Tensor], index, plan=None) -> ng.Gather:
    """An index of any shape into the rows of sources, laid end to end, as a checked Gather."""
    index = np.asarray(index)
    rows = sum(t.data.size // t.data.shape[-1] for t in sources)
    return ng.Gather(index.reshape(-1).tolist(), plan, rows, index.shape)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose input must have 2 dimensions, got shape {x.data.shape}")
    return ng._emit(x.data.T, (x,), lambda g: (g.T,))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return ng._emit(x.data * c, (x,), lambda g: (g * c,))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the derivative at exactly zero is zero."""
    mask = x.data > 0.0
    return ng._emit(ng._relu_values(x.data.copy()), (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    y = ng.sigmoid_values(x.data)
    return ng._emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction for stability."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects 1 or 2 dimensions, got shape {x.data.shape}")
    y = softmax_values(x.data)
    return ng._emit(y, (x,), lambda g: (ng._softmax_grad(y, g.copy()),))


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction, as the attention entries take it."""
    return ng._softmax_rows(x - x.max(axis=-1, keepdims=True))


def layer_norm(x: Tensor, scale_: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean and unit variance, then affine.

    y = scale * (x - mean) / sqrt(var + eps) + shift, with the population
    variance over the row.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a (rows, d) matrix, got shape {x.data.shape}")
    ng._need_affine(x, scale_, shift, "layer_norm")
    out, xhat, inv = ng._layer_norm_values(x.data, scale_.data, shift.data, eps)
    return ng._emit(out, (x, scale_, shift),
                    lambda g: ng._layer_norm_grads(g, xhat, inv, scale_.data))


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; works for vectors, matrices and stacks."""
    if not parts:
        raise ShapeError("concat_cols: empty input")
    lead = parts[0].data.shape[:-1]
    if len(lead) > 2 or any(p.data.shape[:-1] != lead for p in parts):
        raise ShapeError("concat_cols: parts must share every axis but the last, "
                         "and have at most 3")
    out = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.data.shape[-1] for p in parts]

    def backward(g):
        pieces, at = [], 0
        for n in sizes:
            pieces.append(g[..., at:at + n])
            at += n
        return tuple(pieces)

    return ng._emit(out, tuple(parts), backward)


def column(v: Tensor, start: int, stop: int) -> Tensor:
    """The slice v[start:stop] of a vector as a (stop - start, 1) column."""
    def backward(g):
        out = np.zeros(v.data.shape)
        out[start:stop] = g[:, 0]
        return (out,)

    return ng._emit(v.data[start:stop, None], (v,), backward)


def pick_column(x: Tensor, j: int) -> Tensor:
    """Column j of a matrix, as an (n, 1) matrix."""
    def backward(g):
        out = np.zeros(x.data.shape)
        out[:, j:j + 1] = g
        return (out,)

    return ng._emit(x.data[:, j:j + 1], (x,), backward)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a cotangent broadcast over the last two axes back to an operand's shape."""
    return g.sum(axis=tuple(axis for axis in (-2, -1) if shape[axis] == 1), keepdims=True)


def add_broadcast(a: Tensor, b: Tensor) -> Tensor:
    """a + b where either may have a length-1 axis that numpy broadcasts."""
    return ng._emit(a.data + b.data, (a, b),
                    lambda g: (_sum_to(g, a.data.shape), _sum_to(g, b.data.shape)))


def scale_rows(c: Tensor, m: Tensor) -> Tensor:
    """Row v of m times c[v, 0], for an (n, 1) column c."""
    return ng._emit(c.data * m.data, (c, m),
                    lambda g: ((g * m.data).sum(axis=-1, keepdims=True), c.data * g))


def sum_all(x: Tensor) -> Tensor:
    return ng._emit(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return ng._emit(x.data.mean(), (x,), lambda g: (np.full_like(x.data, float(g) / n),))


def bce_with_logits_mean(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross entropy over all elements, from raw logits.

    Uses max(x,0) - x*z + log(1 + exp(-|x|)) so saturated logits stay
    finite.  The gradient is exactly (sigmoid(x) - z) / count.
    """
    x, z = logits.data, targets.data
    if x.shape != z.shape:
        raise ShapeError(f"bce_with_logits_mean: shapes {x.shape} and {z.shape} differ")
    out = (np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))).mean()
    count = x.size

    def backward(g):
        return (float(g) * (ng.sigmoid_values(x) - z) / count, None)

    return ng._emit(out, (logits, targets), backward)


def softmax_xent_mean(logits: Tensor, onehot: Tensor) -> Tensor:
    """Mean softmax cross entropy over rows against one-hot targets.

    The gradient is exactly (softmax(x) - y) / rows.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_xent_mean logits must have 2 dimensions, "
                         f"got shape {logits.data.shape}")
    x, y = logits.data, onehot.data
    if x.shape != y.shape:
        raise ShapeError(f"softmax_xent_mean: shapes {x.shape} and {y.shape} differ")
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = -(y * logp).sum(axis=1).mean()
    n = x.shape[0]
    p = np.exp(logp)

    def backward(g):
        return (float(g) * (p - y) / n, None)

    return ng._emit(out, (logits, onehot), backward)


def where_relu(x: np.ndarray):
    """numgrad's relu as np.where wrote it: (x where x > 0, else 0.0; the mask)."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


def additive_attention_reference(receivers: Tensor, neighbors, transform, score):
    """numgrad.additive_attention with its scores summed in broadcasting's layout.

    The earlier form of the block, kept to pin the current one byte for
    byte: the (b, H, n, 1) + (b, H, 1, s) sum comes out in (b, n, s, H)
    memory order, its reshape to the (b, H n, s) stack copies, and relu is
    where_relu.  Takes and returns what the block does.
    """
    groups = ng._kv_groups(receivers, neighbors, "additive_attention")
    rd = receivers.data
    ws, scores = ng._head_arrays("additive_attention", transform, score)
    d, heads, n = rd.shape[-1], len(ws), rd.shape[-2]
    a1, a2 = ng._score_columns(scores, 0, d), ng._score_columns(scores, d, 2 * d)
    own = rd @ a1
    pre = np.empty(rd.shape[:-1] + (heads * ws[0].shape[1],))
    pre_heads = ng._blocks(pre, heads, -1)
    parts = []
    for slices, t in groups:
        nd = t.data
        raw = own[slices].swapaxes(-1, -2)[..., None] + (nd @ a2).swapaxes(-1, -2)[..., None, :]
        raw, raw_mask = where_relu(raw.reshape(len(nd), heads * n, nd.shape[1]))
        attention = softmax_values(raw)
        pooled = ng._blocks(attention @ nd, heads, -2)
        for o, p, w in zip(pre_heads, pooled, ws):
            o[slices] = p @ w
        parts.append((slices, nd, raw_mask, attention, pooled))
    out, out_mask = where_relu(pre)

    def backward(g):
        gm = g * out_mask
        g_heads = [ng._blocks(gm[part[0]], heads, -1) for part in parts]
        for h in range(heads):
            yield ng._by_slice(len(rd), [(part[0], part[4][h].swapaxes(-1, -2) @ gh[h])
                                         for part, gh in zip(parts, g_heads)])
        draw_own = np.empty_like(own)
        dscore_other = np.empty(rd.shape[:-2] + a2.shape)
        for (slices, nd, raw_mask, attention, _), gh in zip(parts, g_heads):
            dpooled = ng._row_stack([(x, w.T) for x, w in zip(gh, ws)])
            draw = ng._softmax_grad(attention, dpooled @ nd.swapaxes(-1, -2)) * raw_mask
            draw = draw.reshape(len(nd), heads, n, nd.shape[1])
            dother = draw.sum(axis=-2).swapaxes(-1, -2)
            draw_own[slices] = draw.sum(axis=-1).swapaxes(-1, -2)
            dscore_other[slices] = nd.swapaxes(-1, -2) @ dother
            yield attention.swapaxes(-1, -2) @ dpooled + dother @ a2.T
        yield draw_own @ a1.T
        dscore = np.concatenate([rd.swapaxes(-1, -2) @ draw_own, dscore_other], axis=-2) + 0.0
        for h in range(heads):
            yield dscore[..., h]

    nbrs = tuple(t for _, t in groups)
    out = ng._emit(out, (*transform, *nbrs, receivers, *score), backward)
    return out, [ng._wrap(part[3]) for part in parts]
