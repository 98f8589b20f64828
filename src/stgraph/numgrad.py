"""Dense float64 tensors with tape-based reverse-mode differentiation.

This module holds task-agnostic primitives and fused message-passing
blocks; the task losses live in stgraph.heads and record through _emit.
Each primitive computes its forward value with numpy and, when a Tape is
active and any input requires a gradient, records a closure that maps the
output cotangent to input cotangents.  Replaying the tape in reverse from
a scalar loss yields gradients for every named parameter; parameters the
forward pass never touched come back as exact zeros.

Conventions: states are row vectors, matrices multiply on the right, and
reductions such as softmax and layer norm act over the last axis.  Matrix
inputs may carry a leading block axis: a (B, n, d) stack is B matrices
computed at once, each with the same bits as on its own.

A backward rule computes only what grad() keeps: matmul, the one rule
that meets a constant input (graph.project_block's feature stack),
returns None for an operand that does not require a gradient instead of
a product that would be dropped.  The rules run the same IEEE operations
as the chains of small primitives they stand for, in fewer numpy calls:
x.swapaxes(-1, -2) for np.swapaxes, x.sum(axis=-1, keepdims=True) / d
for a mean over d entries, and a rank-1 piece g_j v^T formed as
g_j * v^T + 0.0, where the + 0.0 turns a -0.0 product into the +0.0
that a k=1 matrix product, which adds to a zero, gives.

Finiteness is checked where values enter and at layer boundaries, not
after every primitive.  The public Tensor constructor rejects NaN and
infinity, so inputs, labels and initial parameters are finite, and
train.sgd_step scans each update it makes.  Primitive outputs
skip that check; instead each layer runs its primitives inside
``checked(where)``, which turns a floating-point overflow, invalid
operation or division by zero into a NumericError naming the layer, and
then passes its outputs to ``check_finite``.  The flags matter because
relu and softmax can map an infinite intermediate to a finite output.
"""

import ctypes
import ctypes.util
import math
import platform
import threading
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Pin glibc's heap thresholds, so that memory a step frees stays for the next.

    A taped step allocates and frees stacked arrays of 0.1 to 4 MB.  With
    glibc's adaptive thresholds, freeing a step's tape handed the top of
    the heap back to the kernel, and the next step faulted it in again:
    about 900 page faults and 1 to 3 ms of kernel time per `wide`
    training step.  How much went back depended on what had run before,
    so step times and peak RSS moved from one run to the next.  Arrays
    under 32 MB now come from the heap, and up to 128 MB of free heap is
    kept.  Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_keep_freed_memory()


class _Fenv(ctypes.Structure):
    """glibc's x86-64 fenv_t: the x87 environment, then MXCSR."""

    _fields_ = [("x87", ctypes.c_uint8 * 28), ("mxcsr", ctypes.c_uint32)]


# MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6)
_FTZ_DAZ = 0x8040
# MXCSR exception masks, all set in a default environment
_MXCSR_MASKS = 0x1F80


def _fenv_calls():
    """(fegetenv, fesetenv) where fenv_t has glibc's x86-64 layout, else None."""
    if platform.machine() != "x86_64":
        return None
    try:
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        calls = libm.fegetenv, libm.fesetenv
    except (OSError, AttributeError):
        return None
    env = _Fenv()
    if calls[0](ctypes.byref(env)) != 0 or env.mxcsr & _MXCSR_MASKS != _MXCSR_MASKS:
        return None
    return calls


_FENV = _fenv_calls()


class _flush_subnormals:
    """Context in which this thread's float arithmetic flushes subnormals to zero.

    A subnormal (a nonzero magnitude below 2.2e-308) costs x86 cores a
    microcode assist per operation: a stacked matmul with a quarter of its
    inputs subnormal ran 20 times slower than with none.  Softmax weights
    underflow into that range once attention sharpens, and how many do
    depends on the data, so on `overfit` one seed trained 10 to 20% slower
    than another.  Flushed, such a weight is 0, which changes only values
    below 2.2e-308.  Elsewhere than x86-64 glibc this does nothing.
    """

    __slots__ = ("_saved",)

    def __enter__(self) -> "_flush_subnormals":
        self._saved = None
        if _FENV is not None:
            saved = _Fenv()
            _FENV[0](ctypes.byref(saved))
            env = _Fenv.from_buffer_copy(saved)
            env.mxcsr |= _FTZ_DAZ
            _FENV[1](ctypes.byref(env))
            self._saved = saved
        return self

    def __exit__(self, *exc) -> bool:
        if self._saved is not None:
            _FENV[1](ctypes.byref(self._saved))
        return False


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


def _wrap(value, requires_grad: bool = False, name: str | None = None) -> Tensor:
    """A read-only float64 Tensor around value, without the finiteness check."""
    arr = np.asarray(value, dtype=np.float64)
    arr.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = requires_grad
    out.name = name
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
    division by zero raises NumericError naming ``where``, and subnormal
    values are flushed to zero (see _flush_subnormals).

    Wrap each layer's primitives in one ``with checked(...)`` block and
    pass the layer's outputs to check_finite afterwards: flags raised in
    BLAS worker threads can be lost, so the output check stays as a backstop.
    """

    __slots__ = ("where", "_errstate", "_flush")

    def __init__(self, where: str):
        self.where = where
        self._errstate = np.errstate(over="raise", invalid="raise", divide="raise")
        self._flush = _flush_subnormals()

    def __enter__(self) -> "checked":
        self._flush.__enter__()
        self._errstate.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._errstate.__exit__(exc_type, exc, tb)
        self._flush.__exit__()
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

    The replay flushes subnormal values to zero, as ``checked`` does.
    Pieces are added one at a time, in the order the replay hands them
    out.  A piece with one more axis than its tensor holds per-slice
    pieces of an input shared by the slices of a stack; they are added
    last slice first, as the pieces of one entry per slice would be.
    """
    if loss.data.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    partials: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), _flush_subnormals():
        for out, inputs, backward in reversed(tape._entries):
            g = partials.pop(id(out), None)
            if g is None:
                continue
            for tensor, piece in zip(inputs, backward(g)):
                if piece is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                held = partials.get(key)
                if piece.ndim > tensor.data.ndim:
                    partials[key] = _add_slices(held, piece)
                else:
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


def _need_stack(t: Tensor, what: str) -> None:
    if t.data.ndim not in (2, 3):
        raise ShapeError(f"{what} must be a (rows, d) matrix or a (B, rows, d) stack, "
                         f"got shape {t.data.shape}")


def _need_affine(x: Tensor, scale_: Tensor, shift: Tensor, what: str) -> None:
    d = x.data.shape[-1]
    if scale_.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(
            f"{what}: scale {scale_.data.shape} / shift {shift.data.shape} do not match width {d}"
        )


# ---------------------------------------------------------------------------
# array-level formulas, shared by the primitives and the fused blocks below


def _add_slices(held: np.ndarray | None, pieces: np.ndarray) -> np.ndarray:
    """held + pieces[-1] + pieces[-2] + ... + pieces[0], one addition at a time.

    numpy's reversed sum over the leading axis is this left fold, except
    over a single trailing element, where it sums pairwise from 8 slices
    on; that case is folded in a loop.
    """
    if held is not None:
        pieces = np.concatenate([pieces, held[None]])
    if pieces[0].size > 1:
        return pieces[::-1].sum(axis=0)
    acc = pieces[-1]
    for piece in pieces[-2::-1]:
        acc = acc + piece
    return acc


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray,
                  need_a: bool = True, need_b: bool = True):
    """Cotangents (of a, of b) of a @ b, where a may be a stack; None for one not needed.

    For a stack a and a matrix b, b gets one piece per slice.
    """
    return (g @ b.swapaxes(-1, -2) if need_a else None,
            a.swapaxes(-1, -2) @ g if need_b else None)


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
    # sum / d is what ndarray.mean computes, without its Python-level wrapper
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    var = ((x - mu) ** 2).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return scale_ * xhat + shift, xhat, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, scale_: np.ndarray):
    """Cotangents (of x, of scale, of shift) of a layer norm of rows or a stack.

    For a stack, scale and shift get one piece per slice.
    """
    d = g.shape[-1]
    gh = g * scale_
    m1 = gh.sum(axis=-1, keepdims=True) / d
    m2 = (gh * xhat).sum(axis=-1, keepdims=True) / d
    dx = (gh - m1 - xhat * m2) * inv
    return dx, (g * xhat).sum(axis=-2), g.sum(axis=-2)


def _slice_scores(parts: list[np.ndarray], v: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Each (..., n, d) part times the column v[start:stop], side by side: (..., n, parts)."""
    col = v[start:stop, None]
    return np.concatenate([p @ col for p in parts], axis=-1)


def _slice_scores_grads(parts: list[np.ndarray], v: np.ndarray, start: int, stop: int,
                        g: np.ndarray):
    """Cotangents of _slice_scores: one per part, and v's per slice, zero outside [start, stop).

    v's cotangent keeps the parts' leading block axis: one piece per slice.
    A part's cotangent is the rank-1 product of its column of g with the
    row v[start:stop], formed elementwise + 0.0 (see the module docstring).
    """
    row = v[None, start:stop]
    cols = [g[..., j:j + 1] for j in range(len(parts))]
    # sum the parts' contributions last part first, as separate products
    # recorded in part order would accumulate them
    dcol = None
    for p, gj in zip(reversed(parts), reversed(cols)):
        piece = p.swapaxes(-1, -2) @ gj
        dcol = piece if dcol is None else dcol + piece
    dv = np.zeros(dcol.shape[:-2] + v.shape)
    dv[..., start:stop] = dcol[..., 0]
    return [gj * row + 0.0 for gj in cols], dv


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a cotangent broadcast over the last two axes back to an operand's shape."""
    return g.sum(axis=tuple(axis for axis in (-2, -1) if shape[axis] == 1), keepdims=True)


def _relu_values(x: np.ndarray):
    """(max(x, 0), mask of positive entries)."""
    mask = x > 0.0
    return np.where(mask, x, 0.0), mask


def _scatter_rows(g: np.ndarray, index: np.ndarray, rows: int, plan=None) -> np.ndarray:
    """Rows of g added into a (rows, d) zero matrix at index, duplicates in index order.

    The same numbers as np.add.at(zeros, index, g), which runs when there
    is no plan.  A plan lists the rounds in the order they run, each as
    the entries of index it adds without a repeated row: each round is one
    fancy-index add, so each row sums its pieces one at a time, in index
    order, starting from zero, faster than np.add.at.
    """
    out = np.zeros((rows, g.shape[-1]))
    if plan is None:
        np.add.at(out, index, g)
        return out
    for entries in plan:
        entries = np.asarray(entries, dtype=np.intp)
        out[index[entries]] += g[entries]
    return out


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    # evaluated through exp(-|x|) so neither branch overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# primitives.  Matrix inputs may carry a leading block axis: a (B, n, d)
# stack is B independent (n, d) matrices, and a 2-d input is a stack of
# one.  Every slice of a stack is computed by the same numpy expressions as
# a lone matrix, with the same bits.  An input shared by the slices (a
# parameter) gets one piece per slice, which grad() adds as it would add
# the pieces of B separate entries.


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix or stack (bias broadcast)."""
    _need_stack(m, "add_rowvec matrix")
    if v.data.ndim != 1 or m.data.shape[-1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {m.data.shape} and {v.data.shape} differ")
    return _emit(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=-2)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a matrix or stack with a matrix."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
    need = a.requires_grad, b.requires_grad
    return _emit(ad @ bd, (a, b), lambda g: _matmul_grads(ad, bd, g, *need))


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack matrices vertically, slice by slice for stacks; gradients split back by row counts."""
    if not parts:
        raise ShapeError("concat_rows: empty input")
    for p in parts:
        _need_stack(p, "concat_rows part")
    lead, width = parts[0].data.shape[:-2], parts[0].data.shape[-1]
    if any(p.data.shape[:-2] != lead or p.data.shape[-1] != width for p in parts):
        raise ShapeError("concat_rows: column counts or stack sizes differ")
    out = np.concatenate([p.data for p in parts], axis=-2)
    sizes = [p.data.shape[-2] for p in parts]

    def backward(g):
        pieces, at = [], 0
        for n in sizes:
            pieces.append(g[..., at:at + n, :])
            at += n
        return tuple(pieces)

    return _emit(out, tuple(parts), backward)


def _checked_index(index, plan, rows: int) -> np.ndarray:
    """index as an intp array, checked to lie in [0, rows) and, with a plan, to be covered by it."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"gather_rows: index out of range for {rows} rows")
    if plan is not None and sum(map(len, plan)) != idx.size:
        raise ShapeError(f"gather_rows: plan does not cover the {idx.size} index entries")
    return idx


class Gather:
    """A gather_rows index and plan over sources of a fixed row count, checked once, when made.

    rows becomes a read-only intp array, each entry in [0, sources), and
    plan, when given, must hold as many entries as rows, as gather_rows
    requires.  gather_rows then takes both as they stand and checks only
    that its sources hold `sources` rows; graph.build_batch makes one per
    temporal group.
    """

    __slots__ = ("rows", "plan", "sources")

    def __init__(self, rows, plan: tuple[list[int], ...] | None, sources: int):
        self.rows = _checked_index(np.array(rows, dtype=np.intp), plan, sources)
        self.rows.flags.writeable = False
        self.plan = plan
        self.sources = sources


def gather_rows(m: Tensor | list[Tensor], index, plan=None) -> Tensor:
    """Rows picked by integer index, as one tape entry.

    m is a tensor, or a list of tensors of one width, read as rows: a
    (rows, d) matrix as itself, a (B, rows, d) stack slice after slice, and
    a list as its tensors' rows end to end.  index may have any shape, and
    the result has shape index.shape + (d,).  Duplicate indices accumulate
    their gradients in index order.  plan, as graph.TemporalGroup builds
    it, may list the rounds in which the backward adds the gradient, in
    the order they run, each as a sequence of entries of the flattened
    index.  Every entry must sit in one round, no row may repeat within a
    round, and a row's entries must come round after round in index
    order.  The backward then adds the rounds as they stand; without a
    plan it adds with np.add.at (see _scatter_rows).  index may also be a
    Gather, which brings its plan and was checked when it was made.
    """
    sources = [m] if isinstance(m, Tensor) else list(m)
    if not sources:
        raise ShapeError("gather_rows: no source")
    for s in sources:
        _need_stack(s, "gather_rows source")
    width = sources[0].data.shape[-1]
    if any(s.data.shape[-1] != width for s in sources):
        raise ShapeError("gather_rows: sources differ in width")
    flat = [s.data.reshape(-1, width) for s in sources]
    rows = flat[0] if len(flat) == 1 else np.concatenate(flat)
    if isinstance(index, Gather):
        if plan is not None or index.sources != rows.shape[0]:
            raise ShapeError(f"gather_rows: a Gather over {index.sources} rows, with its own "
                             f"plan, cannot read {rows.shape[0]} rows")
        idx, plan = index.rows, index.plan
    else:
        idx = _checked_index(index, plan, rows.shape[0])

    def backward(g):
        dm = _scatter_rows(g.reshape(-1, width), idx.reshape(-1), rows.shape[0], plan)
        # a source no index reaches gets no piece, not a piece of zeros; a
        # lone source, as every gather of a one-block graph reads, holds them all
        if len(flat) == 1:
            return (dm.reshape(sources[0].data.shape) if idx.size else None,)
        bounds = np.cumsum([0] + [f.shape[0] for f in flat])
        return tuple(dm[lo:hi].reshape(s.data.shape)
                     if ((idx >= lo) & (idx < hi)).any() else None
                     for s, lo, hi in zip(sources, bounds[:-1], bounds[1:]))

    return _emit(rows[idx], tuple(sources), backward)


# ---------------------------------------------------------------------------
# fused message-passing blocks: each records one tape entry for what would
# otherwise be a chain of small primitives (tests/small_primitives.py keeps
# that chain's primitives, and the chains of heads' losses).  The forward evaluates the chain's numpy expressions, and the
# backward runs the chain's backward rules in reverse order.  An input used
# more than once is listed once per use, in the order the chain's entries
# would have handed it cotangent pieces, so grad() accumulates the same
# pieces in the same order and every number is bit-identical to the
# chain's.  The one exception is a parameter vector used twice per slice
# (the GAT score, the gate): it is listed once, with the sum of its two
# pieces.  The pieces fill disjoint halves of the vector, zeros elsewhere,
# so adding them first gives the bits of adding them one after the other.


def _slice_index(slices) -> tuple:
    """(slices as a list or range, the index that picks them).

    Consecutive slices, such as the spatial phase's range over a whole
    block, are indexed by a basic slice, so numpy takes views, not copies.
    """
    if isinstance(slices, range) and slices.step == 1:
        return slices, slice(slices.start, slices.stop)
    run = np.asarray(slices, dtype=np.intp).tolist()
    lo = run[0] if run else 0
    return run, (slice(lo, lo + len(run)) if run == list(range(lo, lo + len(run)))
                 else np.array(run))


def _covers(runs, count: int) -> bool:
    return sorted([u for run in runs for u in run]) == list(range(count))


class KvLayout:
    """Which slices of a (count, n, d) receiver stack read which neighbor stack; checked when made.

    An attention entry reads its neighbors as (slices, stack) pairs.  A
    layout fixes count, each pair's slices and each pair's neighbor row
    count widths[i] once, when a graph is built, and checks there what
    the entries would check on every call: every slice sits in exactly one
    pair and every width is positive.  index[i] picks pair i's slices as
    _slice_index does, and shapes[i] is the (slices, widths[i]) lead of the
    stack it reads.  Neighbors(layout, stacks) hands it to an entry, which
    then checks only that the receivers and stacks have those shapes.
    """

    __slots__ = ("count", "slices", "index", "shapes")

    def __init__(self, count: int, slices, widths):
        runs, index = zip(*map(_slice_index, slices)) if slices else ((), ())
        if len(runs) != len(widths) or not _covers(runs, count):
            raise ShapeError(f"KvLayout: each of {count} receiver slices must sit in one pair")
        if not all(w > 0 for w in widths):
            raise ShapeError("KvLayout: empty neighborhood")
        self.count = count
        self.slices = runs
        self.index = index
        self.shapes = [(len(run), w) for run, w in zip(runs, widths)]


class Neighbors(NamedTuple):
    """Neighbor stacks, one per pair of a KvLayout, as the attention entries take them."""

    layout: KvLayout
    stacks: list[Tensor]


def _kv_groups(query: Tensor, kv, what: str) -> list[tuple]:
    """kv's pairs as (index, neighbor stack), checked to cover every query slice once.

    Every receiver needs at least one neighbor row.  Neighbors were
    checked when their layout was made, so only their shapes are checked.
    """
    if isinstance(kv, Neighbors):
        layout, stacks = kv
        if (query.data.ndim != 3 or query.data.shape[0] != layout.count
                or len(stacks) != len(layout.shapes)
                or any(t.data.ndim != 3 or t.data.shape[:2] != shape
                       for t, shape in zip(stacks, layout.shapes))):
            raise ShapeError(f"{what}: need a (B, n, d) receiver stack with each slice in one pair")
        return list(zip(layout.index, stacks))
    groups, runs, fits = [], [], query.data.ndim == 3
    for slices, t in kv:
        run, index = _slice_index(slices)
        groups.append((index, t))
        runs.append(run)
        fits = fits and t.data.ndim == 3 and t.data.shape[0] == len(run)
    if not fits or not _covers(runs, query.data.shape[0]):
        raise ShapeError(f"{what}: need a (B, n, d) receiver stack with each slice in one pair")
    if any(t.data.shape[-2] == 0 for _, t in groups):
        raise ShapeError(f"{what}: empty neighborhood")
    return groups


def nonlocal_attention(query: Tensor, kv: list[tuple], wq: Tensor, wk: Tensor,
                       wv: Tensor) -> tuple[Tensor, list[Tensor]]:
    """Scaled dot-product attention of query rows over kv rows, as one tape entry.

    query is a (B, n, d) stack and kv a list of (slices, stack) pairs, or
    Neighbors, as both message-passing phases hand them: the query slices
    a pair lists attend over the rows of its (len(slices), s, d) stack, and
    each slice is listed once.  Returns (softmax(q k^T / sqrt(width of k)) @ v, one
    attention tensor per pair) for q = query @ wq, k = kv @ wk and
    v = kv @ wv, slice by slice; the attention is not on the tape.

    The products run reassociated, so the s neighbor rows are never
    projected: u = (query @ wq) @ wk^T once per block, then per pair the
    scores (u @ kv^T) * c and the messages (attention @ kv) @ wv.  That is
    3 n d^2 + 2 n s d multiply-accumulates per slice instead of
    (n + 2 s) d^2 + 2 n s d.  The chain it stands for is matmul(query, wq),
    matmul(., transpose(wk)), matmul(., transpose(kv)), scale, softmax,
    matmul(attention, kv), matmul(., wv).
    """
    groups = _kv_groups(query, kv, "nonlocal_attention")
    qd, wqd, wkd, wvd = query.data, wq.data, wk.data, wv.data
    d = qd.shape[-1]
    if (wqd.ndim != 2 or wqd.shape != wkd.shape or wvd.ndim != 2 or wqd.shape[0] != d
            or wvd.shape[0] != d or any(t.data.shape[-1] != d for _, t in groups)):
        raise ShapeError(f"nonlocal_attention: query {qd.shape}, kv "
                         f"{[t.data.shape for _, t in groups]} and weights "
                         f"{wqd.shape}/{wkd.shape}/{wvd.shape} do not align")
    c = 1.0 / math.sqrt(wqd.shape[1])
    q = qd @ wqd
    u = q @ wkd.T
    out = np.empty(qd.shape[:-1] + wvd.shape[1:])
    parts = []
    for slices, t in groups:
        kvd = t.data
        kvt = kvd.swapaxes(-1, -2)
        attention = _softmax_values((u[slices] @ kvt) * c)
        pooled = attention @ kvd
        out[slices] = pooled @ wvd
        parts.append((slices, kvd, kvt, pooled, attention))

    def backward(g):
        du = np.empty_like(u)
        dwv = np.empty(qd.shape[:-2] + wvd.shape)
        dkv_v, dkv_k = [], []
        for slices, kvd, kvt, pooled, attention in parts:
            dpooled, dwv[slices] = _matmul_grads(pooled, wvd, g[slices])
            dattention, piece_v = _matmul_grads(attention, kvd, dpooled)
            du[slices], dkvt = _matmul_grads(u[slices], kvt,
                                             _softmax_grad(attention, dattention) * c)
            dkv_v.append(piece_v)
            dkv_k.append(dkvt.swapaxes(-1, -2))
        dq, dwkt = _matmul_grads(q, wkd.T, du)
        dquery, dwq = _matmul_grads(qd, wqd, dq)
        return (*dkv_v, dwv, *dkv_k, dwkt.swapaxes(-1, -2), dquery, dwq)

    kvs = tuple(t for _, t in groups)
    out = _emit(out, (*kvs, wv, *kvs, wk, query, wq), backward)
    attention = [_wrap(part[-1]) for part in parts]
    return out, attention


def additive_attention(receivers: Tensor, neighbors: list[tuple], transform: Tensor,
                       score: Tensor) -> tuple[Tensor, list[Tensor]]:
    """GAT-style attention of every receiver over the neighbor rows, as one tape entry.

    receivers is a (B, n, d) stack and neighbors a list of (slices, stack)
    pairs, as the kv of nonlocal_attention.  With score = [a1 || a2],
    attention row v is softmax over j of relu(h_v . a1 + h_j . a2), and
    the message is relu((attention @ neighbors) @ transform), slice by
    slice.  Returns (messages, one attention tensor per pair); the
    attention is not on the tape.
    """
    groups = _kv_groups(receivers, neighbors, "additive_attention")
    rd, wd, a = receivers.data, transform.data, score.data
    d = rd.shape[-1]
    if (wd.ndim != 2 or wd.shape[0] != d or a.shape != (2 * d,)
            or any(t.data.shape[-1] != d for _, t in groups)):
        raise ShapeError(f"additive_attention: receivers {rd.shape}, neighbors "
                         f"{[t.data.shape for _, t in groups]}, transform {wd.shape} and "
                         f"score {a.shape} do not align")
    own = _slice_scores([rd], a, 0, d)
    out = np.empty(rd.shape[:-1] + wd.shape[1:])
    parts = []
    for slices, t in groups:
        nd = t.data
        other_t = _slice_scores([nd], a, d, 2 * d).swapaxes(-1, -2)
        raw, raw_mask = _relu_values(own[slices] + other_t)
        attention = _softmax_values(raw)
        pooled = attention @ nd
        out[slices], out_mask = _relu_values(pooled @ wd)
        parts.append((slices, nd, other_t.shape, raw_mask, attention, pooled, out_mask))

    def backward(g):
        dtransform = np.empty(rd.shape[:-2] + wd.shape)
        dscore_other = np.empty(rd.shape[:-2] + a.shape)
        draw_own = np.empty_like(own)
        dnbrs = []
        for slices, nd, other_shape, raw_mask, attention, pooled, out_mask in parts:
            dpooled, dtransform[slices] = _matmul_grads(pooled, wd, g[slices] * out_mask)
            dattention, dnbr = _matmul_grads(attention, nd, dpooled)
            draw = _softmax_grad(attention, dattention) * raw_mask
            (dnbr_score,), dscore_other[slices] = _slice_scores_grads(
                [nd], a, d, 2 * d, _sum_to(draw, other_shape).swapaxes(-1, -2))
            draw_own[slices] = _sum_to(draw, own.shape)
            dnbrs += [dnbr, dnbr_score]
        (dreceivers,), dscore_own = _slice_scores_grads([rd], a, 0, d, draw_own)
        return (dtransform, *dnbrs, dreceivers, dscore_other + dscore_own)

    nbrs = tuple(t for _, t in groups for _use in (0, 1))
    out = _emit(out, (transform, *nbrs, receivers, score), backward)
    attention = [_wrap(part[4]) for part in parts]
    return out, attention


def gated_mix(messages: list[Tensor], receivers: Tensor, gate: Tensor) -> tuple[Tensor, Tensor]:
    """Per-receiver convex mix of K parallel messages, as one tape entry.

    With gate = [g1 || g2], weight k of receiver v is softmax over k of
    relu(h_v . g1 + m_k[v] . g2), and row v of the result is
    sum_k weight[v, k] * m_k[v], slice by slice for stacks.  Returns
    (mix, weights (..., n, K)); the weights are not on the tape.
    """
    _need_stack(receivers, "gated_mix receivers")
    if not messages:
        raise ShapeError("gated_mix: no messages")
    rd, gd = receivers.data, gate.data
    parts = [m.data for m in messages]
    d = rd.shape[-1]
    if gd.shape != (2 * d,) or any(p.shape != rd.shape for p in parts):
        raise ShapeError(f"gated_mix: messages {[p.shape for p in parts]}, receivers {rd.shape} "
                         f"and gate {gd.shape} do not align")
    slot = _slice_scores(parts, gd, d, 2 * d)
    own = _slice_scores([rd], gd, 0, d)
    raw, mask = _relu_values(own + slot)
    w = _softmax_values(raw)
    acc = w[..., 0:1] * parts[0]
    for j in range(1, len(parts)):
        acc = acc + w[..., j:j + 1] * parts[j]

    def backward(g):
        dw = np.stack([(g * p).sum(axis=-1) for p in parts], axis=-1)
        dmix = [w[..., j:j + 1] * g for j in range(len(parts))]
        draw = _softmax_grad(w, dw) * mask
        (dreceivers,), dgate_own = _slice_scores_grads([rd], gd, 0, d, _sum_to(draw, own.shape))
        dslot, dgate_slot = _slice_scores_grads(parts, gd, d, 2 * d, _sum_to(draw, slot.shape))
        return (*dmix, dreceivers, *dslot, dgate_own + dgate_slot)

    out = _emit(acc, (*messages, receivers, *messages, gate), backward)
    return out, _wrap(w)


def residual_layer_norm(state: Tensor, message: Tensor, scale_: Tensor, shift: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """layer_norm(state + message, scale, shift, eps) as one tape entry.

    Works on a matrix of state rows or a stack.
    """
    _need_stack(state, "residual_layer_norm state")
    if state.data.shape != message.data.shape:
        raise ShapeError(f"residual_layer_norm: shapes {state.data.shape} and "
                         f"{message.data.shape} differ")
    _need_affine(state, scale_, shift, "residual_layer_norm")
    out, xhat, inv = _layer_norm_values(state.data + message.data, scale_.data, shift.data, eps)

    def backward(g):
        dx, dscale, dshift = _layer_norm_grads(g, xhat, inv, scale_.data)
        return dscale, dshift, dx, dx

    return _emit(out, (scale_, shift, state, message), backward)


def finite_difference_grads(f, params: dict[str, Tensor], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f(params) -> float`` per parameter.

    Independent of the tape: f is re-evaluated with each coordinate nudged
    by +/- step, a finite positive number.  Used to cross-check grad().
    """
    if not 0 < step < math.inf:
        raise ConfigError(f"finite-difference step must be finite and positive, got {step}")
    out = {}
    for name, p in params.items():
        base = p.data
        fd = np.zeros_like(base)
        flat = fd.reshape(-1)
        for k in range(base.size):
            bumped = base.copy().reshape(-1)
            try:
                bumped[k] += step
                hi = f({**params, name: Tensor(bumped.reshape(base.shape), requires_grad=True,
                                               name=name)})
                bumped[k] -= 2.0 * step
                lo = f({**params, name: Tensor(bumped.reshape(base.shape), requires_grad=True,
                                               name=name)})
            except NumericError as err:  # name the nudge, not only the layer that overflowed
                raise NumericError(f"{name}[{k}] nudged by step {step!r}: {err}") from None
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

