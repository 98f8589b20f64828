"""Dense float64 tensors with tape-based reverse-mode differentiation.

The model code in this package is expressed through the primitives below.
Each primitive computes its forward value with numpy and, when a Tape is
active and any input requires a gradient, records a closure that maps the
output cotangent to input cotangents.  Replaying the tape in reverse from
a scalar loss yields gradients for every named parameter; parameters the
forward pass never touched come back as exact zeros.

Conventions: states are row vectors, matrices multiply on the right, and
reductions such as softmax and layer_norm act over the last axis.

Finiteness is checked where values enter and at layer boundaries, not
after every primitive.  The public Tensor constructor rejects NaN and
infinity, so parameters, inputs and labels are finite.  Primitive outputs
skip that check; instead each layer runs its primitives inside
``checked(where)``, which turns a floating-point overflow, invalid
operation or division by zero into a NumericError naming the layer, and
then passes its outputs to ``check_finite``.  The flags matter because
relu and softmax can map an infinite intermediate to a finite output.
"""

import math
import threading

import numpy as np

from .errors import NumericError, ShapeError, ValidationError


class Tensor:
    """Immutable dense array of float64 values.

    The constructor rejects non-finite values; primitive outputs are
    built without that check (see the module docstring).
    ``requires_grad`` marks tensors the tape must track; it is set on
    parameters at creation and propagated to op outputs automatically.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in tensor{'' if name is None else ' ' + name}")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        head = f"Tensor(shape={self.data.shape}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"


class Tape:
    """Wengert list of recorded operations, replayed in reverse by grad().

    Entries hold references to the participating tensors, which both keeps
    them alive and makes object identity a safe key for accumulation.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack().pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._entries)


_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = _local.tapes = []
    return stack


def _active_tape() -> Tape | None:
    stack = _stack()
    return stack[-1] if stack else None


def _wrap(value) -> Tensor:
    """A read-only float64 Tensor around value, without the finiteness check."""
    arr = np.asarray(value, dtype=np.float64)
    arr.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = False
    out.name = None
    return out


def _emit(value, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap a primitive's output and record it on the active tape if anything needs grad.

    The output is not checked for finiteness here; the layer running the
    primitive does that.
    """
    out = _wrap(value)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._entries.append((out, inputs, backward))
    return out


class checked:
    """Context in which a floating-point overflow, invalid operation or
    division by zero raises NumericError naming ``where``.

    Wrap each layer's primitives in one ``with checked(...)`` block and
    pass the layer's outputs to check_finite afterwards: flags raised in
    BLAS worker threads can be lost, so the output check stays as a backstop.
    """

    __slots__ = ("where", "_errstate")

    def __init__(self, where: str):
        self.where = where
        self._errstate = np.errstate(over="raise", invalid="raise", divide="raise")

    def __enter__(self) -> "checked":
        self._errstate.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._errstate.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, FloatingPointError):
            raise NumericError(f"{self.where}: {exc}") from None
        return False


def check_finite(where: str, *tensors: Tensor) -> None:
    """Raise NumericError naming ``where`` unless every tensor is finite."""
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise NumericError(f"non-finite values in {where}")


def grad(tape: Tape, loss: Tensor, params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Gradients of a scalar loss with respect to every tensor in params.

    Parameters absent from the recorded computation get exact zeros of
    their own shape.  The tape is not consumed; grad() may be called again.
    A non-finite gradient raises NumericError naming its parameter.  The
    replay ignores floating-point flags: every backward rule is linear in
    the cotangent, so a NaN or infinity arising there carries through to
    each parameter gradient that depends on it, where the named check
    finds it.
    """
    if loss.data.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    partials: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for out, inputs, backward in reversed(tape._entries):
            g = partials.pop(id(out), None)
            if g is None:
                continue
            for tensor, piece in zip(inputs, backward(g)):
                if piece is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                held = partials.get(key)
                partials[key] = piece if held is None else held + piece
    result = {}
    for name, p in params.items():
        acc = partials.get(id(p))
        if acc is None:
            acc = np.zeros_like(p.data)
        elif not np.isfinite(acc).all():
            raise NumericError(f"non-finite gradient for {name!r}")
        result[name] = _wrap(acc)
    return result


def _need_shape(t: Tensor, ndim: int, what: str) -> None:
    if t.data.ndim != ndim:
        raise ShapeError(f"{what} must have {ndim} dimensions, got shape {t.data.shape}")


def _need_affine(x: Tensor, scale_: Tensor, shift: Tensor, what: str) -> None:
    d = x.data.shape[-1]
    if scale_.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(
            f"{what}: scale {scale_.data.shape} / shift {shift.data.shape} do not match width {d}"
        )


# ---------------------------------------------------------------------------
# array-level formulas, shared by the primitives and the fused blocks below


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """Cotangents (of a, of b) of the 2-d product a @ b."""
    return g @ b.T, a.T @ g


def _softmax_values(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cotangent of a softmax input, from its output y and output cotangent g."""
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


def _layer_norm_values(x: np.ndarray, scale_: np.ndarray, shift: np.ndarray, eps: float):
    """Layer norm over the last axis: (output, normalized x, inverse deviation)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return scale_ * xhat + shift, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, scale_: np.ndarray):
    """Cotangents (of x, of scale, of shift) of a layer norm."""
    gh = g * scale_
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    dx = (gh - m1 - xhat * m2) * inv
    if xhat.ndim == 1:
        return dx, g * xhat, g
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _slice_scores(parts: list[np.ndarray], v: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Each (n, d) part times the column v[start:stop], stacked as (n, len(parts))."""
    col = v[start:stop, None]
    return np.concatenate([p @ col for p in parts], axis=1)


def _slice_scores_grads(parts: list[np.ndarray], v: np.ndarray, start: int, stop: int,
                        g: np.ndarray):
    """Cotangents (one per part, of v) of _slice_scores; zero outside [start, stop)."""
    col = v[start:stop, None]
    cols = [g[:, j:j + 1] for j in range(len(parts))]
    # sum the parts' contributions last part first, as separate products
    # recorded in part order would accumulate them
    dcol = None
    for p, gj in zip(reversed(parts), reversed(cols)):
        piece = p.T @ gj
        dcol = piece if dcol is None else dcol + piece
    dv = np.zeros_like(v)
    dv[start:stop] = dcol[:, 0]
    return [gj @ col.T for gj in cols], dv


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast 2-d cotangent back to an operand of the given shape."""
    return g.sum(axis=tuple(axis for axis in (0, 1) if shape[axis] == 1), keepdims=True)


def _relu_values(x: np.ndarray):
    """(max(x, 0), mask of positive entries)."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix (bias broadcast)."""
    _need_shape(m, 2, "add_rowvec matrix")
    _need_shape(v, 1, "add_rowvec vector")
    if m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {m.data.shape} and {v.data.shape} differ")
    return _emit(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(x.data * c, (x,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; also covers vector @ matrix and matrix @ vector."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
        return _emit(ad @ bd, (a, b), lambda g: _matmul_grads(ad, bd, g))
    if ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
        return _emit(ad @ bd, (a, b), lambda g: (bd @ g, np.outer(ad, g)))
    if ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
        return _emit(ad @ bd, (a, b), lambda g: (np.outer(g, bd), ad.T @ g))
    raise ShapeError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")


def transpose(x: Tensor) -> Tensor:
    _need_shape(x, 2, "transpose input")
    return _emit(x.data.T, (x,), lambda g: (g.T,))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the derivative at exactly zero is zero."""
    y, mask = _relu_values(x.data)
    return _emit(y, (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_values(x.data)
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    # evaluated through exp(-|x|) so neither branch overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction for stability."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects 1 or 2 dimensions, got shape {x.data.shape}")
    y = _softmax_values(x.data)
    return _emit(y, (x,), lambda g: (_softmax_grad(y, g),))


def layer_norm(x: Tensor, scale_: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    y = scale * (x - mean) / sqrt(var + eps) + shift, with the population
    variance over the last axis.
    """
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"layer_norm expects 1 or 2 dimensions, got shape {x.data.shape}")
    _need_affine(x, scale_, shift, "layer_norm")
    out, xhat, inv = _layer_norm_values(x.data, scale_.data, shift.data, eps)
    return _emit(out, (x, scale_, shift),
                 lambda g: _layer_norm_grads(g, xhat, inv, scale_.data))


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack matrices vertically; gradients split back by row counts."""
    if not parts:
        raise ShapeError("concat_rows: empty input")
    for p in parts:
        _need_shape(p, 2, "concat_rows part")
    width = parts[0].data.shape[1]
    if any(p.data.shape[1] != width for p in parts):
        raise ShapeError("concat_rows: column counts differ")
    out = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.data.shape[0] for p in parts]

    def backward(g):
        pieces, at = [], 0
        for n in sizes:
            pieces.append(g[at:at + n])
            at += n
        return tuple(pieces)

    return _emit(out, tuple(parts), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; works for vectors and matrices."""
    if not parts:
        raise ShapeError("concat_cols: empty input")
    ndim = parts[0].data.ndim
    if ndim not in (1, 2) or any(p.data.ndim != ndim for p in parts):
        raise ShapeError("concat_cols: parts must share rank 1 or 2")
    if ndim == 2:
        rows = parts[0].data.shape[0]
        if any(p.data.shape[0] != rows for p in parts):
            raise ShapeError("concat_cols: row counts differ")
    out = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.data.shape[-1] for p in parts]

    def backward(g):
        pieces, at = [], 0
        for n in sizes:
            pieces.append(g[..., at:at + n])
            at += n
        return tuple(pieces)

    return _emit(out, tuple(parts), backward)


# ---------------------------------------------------------------------------
# fused blocks: each records one tape entry for what would otherwise be a
# chain of the primitives above.  The forward evaluates the chain's numpy
# expressions, and the backward runs the chain's backward rules in reverse
# order.  An input used more than once is listed once per use, in the order
# the chain's entries would have handed it cotangent pieces, so grad()
# accumulates the same pieces in the same order and every number is
# bit-identical to the chain's.


def nonlocal_attention(query: Tensor, kv: Tensor, wq: Tensor, wk: Tensor,
                       wv: Tensor) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of query rows over kv rows, as one tape entry.

    With q = query @ wq, k = kv @ wk and v = kv @ wv, returns
    (softmax(q k^T / sqrt(width of k)) @ v, attention).  The attention
    matrix is returned for inspection only; it is not on the tape.
    """
    _need_shape(query, 2, "nonlocal_attention query")
    _need_shape(kv, 2, "nonlocal_attention kv")
    qd, kvd, wqd, wkd, wvd = query.data, kv.data, wq.data, wk.data, wv.data
    d = qd.shape[1]
    if (wqd.ndim != 2 or wqd.shape != wkd.shape or wvd.ndim != 2 or kvd.shape[1] != d
            or wqd.shape[0] != d or wvd.shape[0] != d):
        raise ShapeError(f"nonlocal_attention: query {qd.shape}, kv {kvd.shape} and weights "
                         f"{wqd.shape}/{wkd.shape}/{wvd.shape} do not align")
    c = 1.0 / math.sqrt(wqd.shape[1])
    q = qd @ wqd
    k = kvd @ wkd
    v = kvd @ wvd
    kt = k.T
    attention = _softmax_values((q @ kt) * c)

    def backward(g):
        dattention, dv = _matmul_grads(attention, v, g)
        dq, dkt = _matmul_grads(q, kt, _softmax_grad(attention, dattention) * c)
        dkv_v, dwv = _matmul_grads(kvd, wvd, dv)
        dkv_k, dwk = _matmul_grads(kvd, wkd, dkt.T)
        dquery, dwq = _matmul_grads(qd, wqd, dq)
        return dkv_v, dwv, dkv_k, dwk, dquery, dwq

    out = _emit(attention @ v, (kv, wv, kv, wk, query, wq), backward)
    return out, _wrap(attention)


def additive_attention(receivers: Tensor, neighbors: Tensor, transform: Tensor,
                       score: Tensor) -> tuple[Tensor, Tensor]:
    """GAT-style attention of every receiver over the neighbor rows, as one tape entry.

    With score = [a1 || a2], attention row v is softmax over j of
    relu(h_v . a1 + h_j . a2), and the message is
    relu((attention @ neighbors) @ transform).  Returns (messages,
    attention); the attention matrix is not on the tape.
    """
    _need_shape(receivers, 2, "additive_attention receivers")
    _need_shape(neighbors, 2, "additive_attention neighbors")
    _need_shape(transform, 2, "additive_attention transform")
    rd, nd, wd, a = receivers.data, neighbors.data, transform.data, score.data
    d = rd.shape[1]
    if nd.shape[1] != d or wd.shape[0] != d or a.shape != (2 * d,):
        raise ShapeError(f"additive_attention: receivers {rd.shape}, neighbors {nd.shape}, "
                         f"transform {wd.shape} and score {a.shape} do not align")
    own = _slice_scores([rd], a, 0, d)
    other_t = _slice_scores([nd], a, d, 2 * d).T
    raw, raw_mask = _relu_values(own + other_t)
    attention = _softmax_values(raw)
    pooled = attention @ nd
    out, out_mask = _relu_values(pooled @ wd)

    def backward(g):
        dpooled, dtransform = _matmul_grads(pooled, wd, g * out_mask)
        dattention, dnbrs = _matmul_grads(attention, nd, dpooled)
        draw = _softmax_grad(attention, dattention) * raw_mask
        (dnbrs_score,), dscore_other = _slice_scores_grads(
            [nd], a, d, 2 * d, _sum_to(draw, other_t.shape).T)
        (dreceivers,), dscore_own = _slice_scores_grads([rd], a, 0, d, _sum_to(draw, own.shape))
        return dtransform, dnbrs, dnbrs_score, dscore_other, dreceivers, dscore_own

    out = _emit(out, (transform, neighbors, neighbors, score, receivers, score), backward)
    return out, _wrap(attention)


def gated_mix(messages: list[Tensor], receivers: Tensor, gate: Tensor) -> tuple[Tensor, Tensor]:
    """Per-receiver convex mix of K parallel (n, d) messages, as one tape entry.

    With gate = [g1 || g2], weight k of receiver v is softmax over k of
    relu(h_v . g1 + m_k[v] . g2), and row v of the result is
    sum_k weight[v, k] * m_k[v].  Returns (mix (n, d), weights (n, K));
    the weights are not on the tape.
    """
    _need_shape(receivers, 2, "gated_mix receivers")
    if not messages:
        raise ShapeError("gated_mix: no messages")
    rd, gd = receivers.data, gate.data
    parts = [m.data for m in messages]
    d = rd.shape[1]
    if gd.shape != (2 * d,) or any(p.shape != rd.shape for p in parts):
        raise ShapeError(f"gated_mix: messages {[p.shape for p in parts]}, receivers {rd.shape} "
                         f"and gate {gd.shape} do not align")
    slot = _slice_scores(parts, gd, d, 2 * d)
    own = _slice_scores([rd], gd, 0, d)
    raw, mask = _relu_values(own + slot)
    w = _softmax_values(raw)
    acc = w[:, 0:1] * parts[0]
    for j in range(1, len(parts)):
        acc = acc + w[:, j:j + 1] * parts[j]

    def backward(g):
        dw = np.stack([(g * p).sum(axis=1) for p in parts], axis=1)
        dmix = [w[:, j:j + 1] * g for j in range(len(parts))]
        draw = _softmax_grad(w, dw) * mask
        (dreceivers,), dgate_own = _slice_scores_grads([rd], gd, 0, d, _sum_to(draw, own.shape))
        dslot, dgate_slot = _slice_scores_grads(parts, gd, d, 2 * d, _sum_to(draw, slot.shape))
        return (*dmix, dreceivers, dgate_own, *dslot, dgate_slot)

    out = _emit(acc, (*messages, receivers, gate, *messages, gate), backward)
    return out, _wrap(w)


def residual_layer_norm(state: Tensor, message: Tensor, scale_: Tensor, shift: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """layer_norm(state + message, scale, shift, eps) as one tape entry.

    Works on a single state vector or on a matrix of state rows.
    """
    if state.data.shape != message.data.shape:
        raise ShapeError(f"residual_layer_norm: shapes {state.data.shape} and "
                         f"{message.data.shape} differ")
    if state.data.ndim not in (1, 2):
        raise ShapeError(f"residual_layer_norm expects 1 or 2 dimensions, "
                         f"got shape {state.data.shape}")
    _need_affine(state, scale_, shift, "residual_layer_norm")
    out, xhat, inv = _layer_norm_values(state.data + message.data, scale_.data, shift.data, eps)

    def backward(g):
        dx, dscale, dshift = _layer_norm_grads(g, xhat, inv, scale_.data)
        return dscale, dshift, dx, dx

    return _emit(out, (scale_, shift, state, message), backward)


def gather_rows(m: Tensor, index) -> Tensor:
    """Select rows by integer index; duplicate indices accumulate in reverse."""
    _need_shape(m, 2, "gather_rows matrix")
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: index must be one dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {m.data.shape[0]} rows")
    out = m.data[idx]

    def backward(g):
        dm = np.zeros_like(m.data)
        np.add.at(dm, idx, g)
        return (dm,)

    return _emit(out, (m,), backward)


def sum_all(x: Tensor) -> Tensor:
    return _emit(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    return _emit(x.data.mean(), (x,), lambda g: (np.full_like(x.data, float(g) / n),))


def bce_with_logits_mean(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross entropy over all elements, from raw logits.

    Uses max(x,0) - x*z + log(1 + exp(-|x|)) so saturated logits stay
    finite.  The gradient is exactly (sigmoid(x) - z) / count.
    """
    x, z = logits.data, targets.data
    if x.shape != z.shape:
        raise ShapeError(f"bce_with_logits_mean: shapes {x.shape} and {z.shape} differ")
    per = np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))
    out = per.mean()
    count = x.size

    def backward(g):
        return (float(g) * (sigmoid_values(x) - z) / count, None)

    return _emit(out, (logits, targets), backward)


def softmax_xent_mean(logits: Tensor, onehot: Tensor) -> Tensor:
    """Mean softmax cross entropy over rows against one-hot targets.

    The gradient is exactly (softmax(x) - y) / rows.
    """
    _need_shape(logits, 2, "softmax_xent_mean logits")
    x, y = logits.data, onehot.data
    if x.shape != y.shape:
        raise ShapeError(f"softmax_xent_mean: shapes {x.shape} and {y.shape} differ")
    shifted = x - x.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    out = -(y * logp).sum(axis=1).mean()
    n = x.shape[0]
    p = np.exp(logp)

    def backward(g):
        return (float(g) * (p - y) / n, None)

    return _emit(out, (logits, onehot), backward)


def finite_difference_grads(f, params: dict[str, Tensor], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f(params) -> float`` per parameter.

    Independent of the tape: f is re-evaluated with each coordinate nudged
    by +/- step.  Used to cross-check grad().
    """
    out = {}
    for name, p in params.items():
        base = p.data
        fd = np.zeros_like(base)
        flat = fd.reshape(-1)
        for k in range(base.size):
            bumped = base.copy().reshape(-1)
            bumped[k] += step
            hi = f({**params, name: Tensor(bumped.reshape(base.shape), requires_grad=True, name=name)})
            bumped[k] -= 2.0 * step
            lo = f({**params, name: Tensor(bumped.reshape(base.shape), requires_grad=True, name=name)})
            flat[k] = (hi - lo) / (2.0 * step)
        out[name] = fd
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Largest elementwise |a - n| / max(|a|, |n|, floor).

    The floor keeps near-zero gradients from inflating the ratio.
    """
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"max_relative_error: shapes {a.shape} and {b.shape} differ")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def check_one_hot(y: np.ndarray) -> None:
    """Raise unless every row of y is exactly one-hot."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"one-hot targets must be a matrix, got shape {arr.shape}")
    if not np.all((arr == 0.0) | (arr == 1.0)) or not np.all(arr.sum(axis=1) == 1.0):
        raise ValidationError("targets must be one-hot rows of zeros with a single one")
