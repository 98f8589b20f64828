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
        return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))
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
    mask = x.data > 0.0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


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
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _emit(y, (x,), backward)


def layer_norm(x: Tensor, scale_: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    y = scale * (x - mean) / sqrt(var + eps) + shift, with the population
    variance over the last axis.
    """
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"layer_norm expects 1 or 2 dimensions, got shape {x.data.shape}")
    d = x.data.shape[-1]
    if scale_.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: scale {scale_.data.shape} / shift {shift.data.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = scale_.data * xhat + shift.data

    def backward(g):
        gh = g * scale_.data
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        dx = (gh - m1 - xhat * m2) * inv
        if x.data.ndim == 1:
            dscale = g * xhat
            dshift = g
        else:
            dscale = (g * xhat).sum(axis=0)
            dshift = g.sum(axis=0)
        return dx, dscale, dshift

    return _emit(out, (x, scale_, shift), backward)


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


def matmul_slice(parts: list[Tensor], v: Tensor, start: int, stop: int) -> Tensor:
    """Multiply every (n, d) part by the column v[start:stop] and stack the products as columns.

    The (n, len(parts)) result is concat_cols([matmul(p, c) for p in parts])
    with c = v[start:stop] as a (d, 1) column, recorded as one tape entry;
    the gradient reaches v directly, with zeros outside [start, stop).
    """
    _need_shape(v, 1, "matmul_slice vector")
    if not 0 <= start < stop <= v.data.shape[0]:
        raise ShapeError(f"matmul_slice: [{start}:{stop}] out of range for length {v.data.shape[0]}")
    if not parts:
        raise ShapeError("matmul_slice: empty input")
    shape = parts[0].data.shape
    if len(shape) != 2 or shape[1] != stop - start or any(p.data.shape != shape for p in parts):
        raise ShapeError(f"matmul_slice: parts of shape {shape} do not all match "
                         f"a column of length {stop - start}")
    col = v.data[start:stop, None]
    out = np.concatenate([p.data @ col for p in parts], axis=1)

    def backward(g):
        cols = [g[:, j:j + 1] for j in range(len(parts))]
        # sum the parts' contributions last part first, as separate
        # matmuls recorded in part order would accumulate them
        dcol = None
        for p, gj in zip(reversed(parts), reversed(cols)):
            piece = p.data.T @ gj
            dcol = piece if dcol is None else dcol + piece
        dv = np.zeros_like(v.data)
        dv[start:stop] = dcol[:, 0]
        return tuple(gj @ col.T for gj in cols) + (dv,)

    return _emit(out, (*parts, v), backward)


def add_broadcast(a: Tensor, b: Tensor) -> Tensor:
    """Add two matrices whose size-1 axes broadcast, e.g. (n, 1) + (1, s)."""
    _need_shape(a, 2, "add_broadcast operand")
    _need_shape(b, 2, "add_broadcast operand")
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"add_broadcast: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    out = a.data + b.data

    def reduce_to(g, shape):
        return g.sum(axis=tuple(axis for axis in (0, 1) if shape[axis] == 1), keepdims=True)

    return _emit(out, (a, b), lambda g: (reduce_to(g, a.data.shape), reduce_to(g, b.data.shape)))


def mix_rows(weights: Tensor, parts: list[Tensor]) -> Tensor:
    """Per-row weighted mix: out[r] = sum_k weights[r, k] * parts[k][r]."""
    _need_shape(weights, 2, "mix_rows weights")
    if not parts:
        raise ShapeError("mix_rows: empty input")
    for p in parts:
        _need_shape(p, 2, "mix_rows part")
    n, k = weights.data.shape
    width = parts[0].data.shape[1]
    if k != len(parts) or any(p.data.shape != (n, width) for p in parts):
        raise ShapeError(f"mix_rows: weights {weights.data.shape} do not match "
                         f"{len(parts)} parts of shape {parts[0].data.shape}")
    w = weights.data
    acc = w[:, 0:1] * parts[0].data
    for j in range(1, k):
        acc = acc + w[:, j:j + 1] * parts[j].data

    def backward(g):
        dw = np.stack([(g * p.data).sum(axis=1) for p in parts], axis=1)
        return (dw,) + tuple(w[:, j:j + 1] * g for j in range(k))

    return _emit(acc, (weights, *parts), backward)


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
