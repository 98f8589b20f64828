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
a product that would be dropped.  At one attention head, the rules run
the same IEEE operations as the chains of small primitives they stand
for, in fewer numpy calls: x.swapaxes(-1, -2) for np.swapaxes,
x.sum(axis=-1, keepdims=True) / d for a mean over d entries, and a
rank-1 piece g_j v^T formed as g_j * v^T + 0.0, where the + 0.0 turns a
-0.0 product into the +0.0 that a k=1 matrix product, which adds to a
zero, gives.  What several heads change is said where the fused blocks
begin.

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
import itertools
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

    The constructor copies its input, so the caller's array stays writable
    and later writes to it do not reach the tensor, and rejects non-finite
    values; primitive outputs are wrapped without either (see _wrap and
    the module docstring).
    ``requires_grad`` marks tensors the tape must track; it is set on
    parameters at creation and propagated to op outputs automatically.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.array(data, dtype=np.float64)
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
    tape = _recording(inputs)
    if tape is not None:
        out.requires_grad = True
        tape._entries.append((out, inputs, backward))
    return out


def _recording(inputs: tuple[Tensor, ...]) -> Tape | None:
    """The tape _emit records an entry of inputs on: the active one, if any input needs grad."""
    tape = _active_tape()
    return tape if tape is not None and any(t.requires_grad for t in inputs) else None


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
    out; a backward that is a generator forms each piece after the one
    before was added and let go.  A piece with one more axis than its
    tensor holds per-slice pieces of an input shared by the slices of a
    stack; they are added last slice first, as the pieces of one entry per
    slice would be.
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
                if piece is not None and tensor.requires_grad:
                    key = id(tensor)
                    held = partials.get(key)
                    if piece.ndim > tensor.data.ndim:
                        partials[key] = _add_slices(held, piece)
                    else:
                        partials[key] = piece if held is None else held + piece
                del piece  # let it go before a generator forms the next
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


def _softmax_rows(e: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of rows already less their max, in e's own buffer."""
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cotangent of a softmax input, from its output y and output cotangent g, in g's buffer.

    g must be a buffer the caller owns: never an input's data, nor the
    cotangent grad() hands a backward.
    """
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


def _layer_norm_values(x: np.ndarray, scale_: np.ndarray, shift: np.ndarray, eps: float):
    """Layer norm over the last axis: (output, normalized x, inverse deviation)."""
    # sum / d is what ndarray.mean computes, without its Python-level wrapper
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered ** 2).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
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


def _relu_values(x: np.ndarray) -> np.ndarray:
    """x set to max(x, 0) in its own buffer.

    IEEE max does not order -0.0 and +0.0, so np.maximum may return x
    at x = -0.0 (np.maximum(0.0, x) does).  numpy 2.4 returned the 0.0
    for every size and layout tried, but pyproject.toml admits numpy
    1.24 on, so adding 0.0 turns any such -0.0 into +0.0, and the result
    has the bytes of np.where(x > 0, x, 0.0) for every input but NaN.
    Inside checked() no NaN reaches here: the operation that would make
    one raises its invalid flag first.
    """
    np.maximum(x, 0.0, out=x)
    x += 0.0
    return x


def _relu_mask(scores: np.ndarray) -> np.ndarray:
    """The mask of the positive scores, which the backward of a relu on them multiplies by.

    The entries build it only when the tape records them (see _recording),
    and relu the scores in place with np.maximum, which needs no + 0.0
    there: the softmax reading them next takes x - m and exp(±0) = 1,
    which do not depend on a zero's sign.
    """
    return scores > 0.0


def _scatter_rows(g: np.ndarray, index: np.ndarray, rows: int, plan) -> np.ndarray:
    """Rows of g added into a (rows, d) zero matrix at index, duplicates in index order.

    The same numbers as np.add.at(zeros, index, g), faster.  The plan
    lists the rounds in the order they run, each as the entries of index
    it adds without a repeated row: each round is one fancy-index add, so
    each row sums its pieces one at a time, in index order, starting from
    zero.
    """
    out = np.zeros((rows, g.shape[-1]))
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
    need_a, need_b = a.requires_grad, b.requires_grad
    # for a stack a and a matrix b, b gets one piece per slice
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.swapaxes(-1, -2) if need_a else None,
                                             ad.swapaxes(-1, -2) @ g if need_b else None))


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


class Gather:
    """A gather_rows index and plan over sources of a fixed row count, checked once, when made.

    rows is a flat list of Python ints, each in [0, sources), as
    graph.build_batch collects them; it becomes one read-only intp array
    of the given shape, without numpy reductions.  plan lists the rounds
    in which gather_rows' backward adds the gradient, in the order they
    run, each as a list of entries of the flattened rows (see
    _scatter_rows).  Every entry must sit in one round, no row may repeat
    within a round, and a row's entries must come round after round in
    index order; only that the plan holds as many entries as rows is
    checked.
    """

    __slots__ = ("rows", "plan", "sources")

    def __init__(self, rows: list[int], plan: tuple[list[int], ...], sources: int,
                 shape: tuple[int, ...]):
        if min(rows, default=0) < 0 or max(rows, default=-1) >= sources:
            raise ShapeError(f"gather_rows: index out of range for {sources} rows")
        if sum(map(len, plan)) != len(rows):
            raise ShapeError(f"gather_rows: plan does not cover the {len(rows)} index entries")
        self.rows = np.array(rows, dtype=np.intp).reshape(shape)
        self.rows.flags.writeable = False
        self.plan = plan
        self.sources = sources


def gather_rows(sources: list[Tensor], gather: Gather) -> Tensor:
    """The rows a Gather picks from sources, as one tape entry.

    sources is a list of tensors of one width, read as rows: a (rows, d)
    matrix as itself, a (B, rows, d) stack slice after slice, and the list
    as its tensors' rows end to end.  The result has shape
    gather.rows.shape + (d,).  Duplicate rows accumulate their gradients
    in index order, round by round as gather.plan lists them (see
    _scatter_rows).  The gather was checked when it was made, so only the
    sources' row count is checked here.
    """
    if not sources:
        raise ShapeError("gather_rows: no source")
    for s in sources:
        _need_stack(s, "gather_rows source")
    width = sources[0].data.shape[-1]
    if any(s.data.shape[-1] != width for s in sources):
        raise ShapeError("gather_rows: sources differ in width")
    flat = [s.data.reshape(-1, width) for s in sources]
    rows = flat[0] if len(flat) == 1 else np.concatenate(flat)
    if gather.sources != rows.shape[0]:
        raise ShapeError(f"gather_rows: a Gather over {gather.sources} rows cannot read "
                         f"{rows.shape[0]} rows")
    idx, plan = gather.rows, gather.plan

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
# that chain's primitives, and the chains of heads' losses).  The forward
# evaluates the chain's numpy expressions, and the backward runs the
# chain's backward rules in reverse order.  The attention blocks' and the
# gate's backward is a generator: it hands grad() one input's piece at a
# time, in input order, and forms each only when grad() asks for it, so
# grad() folds a per-slice weight piece before the next one exists.
#
# Each input is listed once.  Where the chain would hand an input several
# pieces, the block adds them first: an attention block's neighbor stack
# gets one piece per pair, and a message function's output one piece from
# gated_mix.  An input that no later entry has handed a piece yet, as the
# gate's messages and the last message function's neighbor stack, keeps
# the chain's bits at one head; otherwise the sum may move its last bit.
# A parameter vector used twice per slice (the GAT score, the gate) gets
# the sum of its two pieces, which fill disjoint halves of the vector,
# zeros elsewhere, so adding them first gives the bits of adding them one
# after the other.
#
# The attention blocks take the H heads of one message function as
# sequences of per-head weights.  The d x d products stay per head, with
# the shapes of a lone head's.  Between them, everything runs once over a
# (b, H n, .) row stack, head h in rows h n ... (h + 1) n: the scores,
# softmax, relu and pooling, and backward their cotangents.  GAT sums its
# scores straight into a C-ordered (b, H, n, s) array, so that stack is a
# view of it and relu and softmax read contiguous rows.  The neighbor
# stack's piece sums the heads inside its products, and the receivers'
# piece sums them one after the other.  So with several heads the bits
# may move in the last place against one chain per head, and every
# product still runs per slice.  The messages come back as column blocks,
# head h in columns h f ... (h + 1) f of a (B, n, H f) stack, which
# gated_mix reads as its message slots.
#
# nonlocal_attention's u = q wk^T, the one per-head product with a
# transposed weight in a forward pass, reads a C-ordered copy of wk^T,
# made once per call: OpenBLAS takes a stacked product with a transposed
# operand on a slower path (a (8, 16, 64) @ (64, 64)^T took 30 us with the
# view and 17 us with the copy, copy included, on one thread of an x86-64
# Xeon with OpenBLAS 0.3.31).  The copy's product may differ
# from the view's, which the chain reads, in the last bit (a one-row
# slice goes through gemv, whose two forms add in different orders), and
# so may all that follows from u; it still runs per slice.  The backward
# products with wv^T, wq^T and transform^T read the views: there, copies
# cost small stacks more than they save.
#
# An entry writes only into arrays it has just made: a score stack is
# scaled, relu'd, shifted by its row max and softmaxed in the array its
# product or sum wrote, its cotangent is formed and masked in the array
# its product wrote, and the messages and gate pieces are summed in
# place.  It never writes into an input's data or into the cotangent
# grad() hands its backward, which may also be another input's piece.
# GAT takes its row max without reading the stack: rounding and relu are
# monotone, so the largest relu(own_v + other_j) over j is, bit for bit,
# relu(own_v + the largest other_j).


def _slice_index(slices) -> tuple:
    """(slices as a list, the index that picks them).

    Consecutive slices, such as the spatial phase's range over a whole
    block, are indexed by a basic slice, so numpy takes views, not copies;
    others by an intp array.
    """
    run = list(slices)
    lo = run[0] if run else 0
    return run, (slice(lo, lo + len(run)) if run == list(range(lo, lo + len(run)))
                 else np.array(run, dtype=np.intp))


def _covers(runs, count: int) -> bool:
    return sorted([u for run in runs for u in run]) == list(range(count))


class KvLayout:
    """Which slices of a (count, n, d) receiver stack read which neighbor stack; checked when made.

    An attention entry reads its neighbors as (slices, stack) pairs.  A
    layout fixes count, each pair's slices and each pair's neighbor row
    count widths[i] once, when a graph is built, and checks there that
    every slice sits in exactly one pair and every width is positive.
    index[i] picks pair i's slices as _slice_index does, and shapes[i] is
    the (slices, widths[i]) lead of the stack it reads.
    Neighbors(layout, stacks) hands it to an entry, which then checks only
    that the receivers and stacks have those shapes.
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


def _kv_groups(query: Tensor, kv: Neighbors, what: str) -> list[tuple]:
    """kv's pairs as (index, neighbor stack), checked to have the shapes of kv's layout.

    The layout checked the rest when it was made: every query slice sits
    in one pair, and every receiver has at least one neighbor row.
    """
    layout, stacks = kv
    # a (B, n, d) receiver stack's shape[:-2] is (B,), a (b, s, d) stack's shape[:-1] (b, s)
    if (query.data.shape[:-2] != (layout.count,)
            or [t.data.shape[:-1] for t in stacks] != layout.shapes):
        raise ShapeError(f"{what}: need a (B, n, d) receiver stack with each slice in one pair")
    return list(zip(layout.index, stacks))


def _row_stack(products: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Each head's product a @ b, stacked along axis -2 in head order.

    The products are written into their rows of the stack; a lone head's
    product is the stack.
    """
    if len(products) == 1:
        a, b = products[0]
        return a @ b
    a, b = products[0]
    n = a.shape[-2]
    out = np.empty(a.shape[:-2] + (len(products) * n, b.shape[-1]))
    for h, (a, b) in enumerate(products):
        np.matmul(a, b, out=out[..., h * n:(h + 1) * n, :])
    return out


def _col_stack(arrays: list[np.ndarray], weights: list[np.ndarray]) -> np.ndarray:
    """Each head's product arrays[h] @ weights[h], side by side along the last axis.

    Each product is written straight into its column block, with no
    temporary; a lone head's product is the stack.
    """
    if len(arrays) == 1:
        return arrays[0] @ weights[0]
    f = weights[0].shape[-1]
    out = np.empty(arrays[0].shape[:-1] + (len(arrays) * f,))
    for h, (a, w) in enumerate(zip(arrays, weights)):
        np.matmul(a, w, out=out[..., h * f:(h + 1) * f])
    return out


def _blocks(x: np.ndarray, heads: int, axis: int) -> list[np.ndarray]:
    """Views of x's equal blocks along axis -2 (rows) or -1 (columns), one per head.

    One head's block is x itself.
    """
    if heads == 1:
        return [x]
    size = x.shape[axis] // heads
    if axis == -2:
        return [x[..., h * size:(h + 1) * size, :] for h in range(heads)]
    return [x[..., h * size:(h + 1) * size] for h in range(heads)]


def _by_slice(count: int, pieces: list[tuple]) -> np.ndarray:
    """The (count, ...) stack from (slices, piece) pairs whose slices cover it once.

    A single pair over a basic slice covers the whole stack: its piece is the stack.
    """
    if len(pieces) == 1 and isinstance(pieces[0][0], slice):
        return pieces[0][1]
    out = np.empty((count,) + pieces[0][1].shape[1:])
    for slices, piece in pieces:
        out[slices] = piece
    return out


def _head_arrays(what: str, *weights) -> list[list[np.ndarray]]:
    """The arrays of each sequence of per-head weights, checked to hold one or more heads alike.

    Every sequence holds the same number of heads, and the weights of one
    sequence share a shape.
    """
    try:
        arrays = [[w.data for w in ws] for ws in weights]
    except (TypeError, AttributeError):
        raise ShapeError(f"{what}: weights must be sequences of per-head tensors") from None
    heads = len(arrays[0])
    if (not heads or [len(a) for a in arrays] != [heads] * len(arrays)
            or heads > 1 and any(len({w.shape for w in a}) > 1 for a in arrays)):
        raise ShapeError(f"{what}: need one or more heads, alike in number and shape, got "
                         f"{[[w.shape for w in a] for a in arrays]}")
    return arrays


def nonlocal_attention(query: Tensor, kv: Neighbors, wq, wk, wv) -> tuple[Tensor, list[Tensor]]:
    """Scaled dot-product attention of query rows over kv rows, H heads as one tape entry.

    query is a (B, n, d) stack and kv the Neighbors both message-passing
    phases hand it: the query slices a pair of its layout lists attend
    over the rows of that pair's (len(slices), s, d) stack, and each slice
    is listed once.  wq, wk and wv are sequences of the H heads' weights.
    Head h's message is softmax(q k^T / sqrt(width of k))
    @ v for q = query @ wq[h], k = kv @ wk[h] and v = kv @ wv[h], slice by
    slice, and fills columns h f ... (h + 1) f of the (B, n, H f) result,
    f the width of wv[h].  Returns (messages, one (b, H n, s) attention
    tensor per pair, head h in rows h n ... (h + 1) n); the attention is
    not on the tape.

    The products run reassociated, so the s neighbor rows are never
    projected: u = (query @ wq[h]) @ wk[h]^T once per block and head, then
    per pair the scores (u @ kv^T) * c and the messages
    (attention @ kv) @ wv[h].  That is 3 n d^2 + 2 n s d multiply-accumulates
    per slice and head instead of (n + 2 s) d^2 + 2 n s d.  The chain it
    stands for, per head, is matmul(query, wq), matmul(., transpose(wk)),
    matmul(., transpose(kv)), scale, softmax, matmul(attention, kv),
    matmul(., wv).
    """
    groups = _kv_groups(query, kv, "nonlocal_attention")
    qd = query.data
    wqs, wks, wvs = _head_arrays("nonlocal_attention", wq, wk, wv)
    d, heads = qd.shape[-1], len(wqs)
    if (wqs[0].ndim != 2 or wqs[0].shape != wks[0].shape or wvs[0].ndim != 2
            or wqs[0].shape[0] != d or wvs[0].shape[0] != d
            or any(t.data.shape[-1] != d for _, t in groups)):
        raise ShapeError(f"nonlocal_attention: query {qd.shape}, kv "
                         f"{[t.data.shape for _, t in groups]} and weights "
                         f"{wqs[0].shape}/{wks[0].shape}/{wvs[0].shape} do not align")
    c = 1.0 / math.sqrt(wqs[0].shape[1])
    q = [qd @ w for w in wqs]
    u = _row_stack([(qh, w.T.copy()) for qh, w in zip(q, wks)])
    parts, messages = [], []
    for slices, t in groups:
        kvd = t.data
        kvt = kvd.swapaxes(-1, -2)
        scores = u[slices] @ kvt
        scores *= c
        scores -= scores.max(axis=-1, keepdims=True)
        attention = _softmax_rows(scores)
        pooled = _blocks(attention @ kvd, heads, -2)
        messages.append((slices, _col_stack(pooled, wvs)))
        parts.append((slices, kvd, kvt, pooled, attention))

    def backward(g):
        du, g_heads = [], []
        for slices, kvd, kvt, _, attention in parts:
            g_heads.append(_blocks(g[slices], heads, -1))
            dpooled = _row_stack([(gh, w.T) for gh, w in zip(g_heads[-1], wvs)])
            dscores = dpooled @ kvt
            _softmax_grad(attention, dscores)
            dscores *= c
            du.append((slices, dscores @ kvd))
            dkvt = u[slices].swapaxes(-1, -2) @ dscores
            piece = attention.swapaxes(-1, -2) @ dpooled
            piece += dkvt.swapaxes(-1, -2)
            yield piece
        for h in range(heads):
            yield _by_slice(len(qd), [(part[0], part[3][h].swapaxes(-1, -2) @ gh[h])
                                      for part, gh in zip(parts, g_heads)])
        du_heads = _blocks(_by_slice(len(u), du), heads, -2)
        for qh, duh in zip(q, du_heads):
            yield (qh.swapaxes(-1, -2) @ duh).swapaxes(-1, -2)
        dq = [duh @ w for duh, w in zip(du_heads, wks)]
        dquery = dq[0] @ wqs[0].T
        for dqh, w in zip(dq[1:], wqs[1:]):
            dquery += dqh @ w.T
        yield dquery
        for dqh in dq:
            yield qd.swapaxes(-1, -2) @ dqh

    kvs = tuple(t for _, t in groups)
    out = _emit(_by_slice(len(qd), messages), (*kvs, *wv, *wk, query, *wq), backward)
    return out, [_wrap(part[4]) for part in parts]


def _score_columns(vectors: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """The (stop - start, H) matrix whose column h is vectors[h][start:stop]."""
    if len(vectors) == 1:
        return vectors[0][start:stop, None]
    return np.stack([v[start:stop] for v in vectors], axis=1)


def additive_attention(receivers: Tensor, neighbors: Neighbors, transform,
                       score) -> tuple[Tensor, list[Tensor]]:
    """GAT-style attention of every receiver over the neighbor rows, H heads as one tape entry.

    receivers is a (B, n, d) stack and neighbors Neighbors, as the kv of
    nonlocal_attention; transform and score are sequences of the H heads'
    weights.  With score[h] = [a1 || a2], head
    h's attention row v is softmax over j of relu(h_v . a1 + h_j . a2), and
    its message relu((attention @ neighbors) @ transform[h]), slice by
    slice, in columns h f ... (h + 1) f of the (B, n, H f) result.  The
    score halves of all heads are one product each: receivers @ [a1_0 ...]
    and neighbors @ [a2_0 ...].  Returns (messages, one (b, H n, s)
    attention tensor per pair, as nonlocal_attention's); the attention is
    not on the tape.
    """
    groups = _kv_groups(receivers, neighbors, "additive_attention")
    rd = receivers.data
    ws, scores = _head_arrays("additive_attention", transform, score)
    d, heads = rd.shape[-1], len(ws)
    if (ws[0].ndim != 2 or ws[0].shape[0] != d or scores[0].shape != (2 * d,)
            or any(t.data.shape[-1] != d for _, t in groups)):
        raise ShapeError(f"additive_attention: receivers {rd.shape}, neighbors "
                         f"{[t.data.shape for _, t in groups]}, transform {ws[0].shape} and "
                         f"score {scores[0].shape} do not align")
    n = rd.shape[-2]
    inputs = (*transform, *(t for _, t in groups), receivers, *score)
    taped = _recording(inputs) is not None
    a1, a2 = _score_columns(scores, 0, d), _score_columns(scores, d, 2 * d)
    own = rd @ a1
    parts, pre = [], []
    for slices, t in groups:
        nd = t.data
        mine, other = own[slices].swapaxes(-1, -2), nd @ a2
        # (b, H, n, 1) + (b, H, 1, s) into a C-ordered (b, H, n, s) array, so
        # the (b, H n, s) stack, head h's scores in rows h n ... (h + 1) n, is a view
        raw = np.add(mine[..., None], other.swapaxes(-1, -2)[..., None, :],
                     out=np.empty((len(nd), heads, n, nd.shape[1])))
        stack = (len(nd), heads * n, nd.shape[1])
        raw_mask = _relu_mask(raw.reshape(stack)) if taped else None
        np.maximum(raw, 0.0, out=raw)
        # each row's max, relu(own + the largest other), as the block comment says
        top = mine + other.max(axis=-2)[..., None]
        np.maximum(top, 0.0, out=top)
        raw -= top[..., None]
        attention = _softmax_rows(raw.reshape(stack))
        pooled = _blocks(attention @ nd, heads, -2)
        pre.append((slices, _col_stack(pooled, ws)))
        parts.append((slices, nd, raw_mask, attention, pooled))
    mix = _relu_values(_by_slice(len(rd), pre))

    def backward(g):
        # relu's mask read off its output: mix > 0 exactly where its input was,
        # a subnormal input aside, which the layers' checked() flushes to zero
        gm = g * (mix > 0.0)
        g_heads = [_blocks(gm[part[0]], heads, -1) for part in parts]
        for h in range(heads):
            yield _by_slice(len(rd), [(part[0], part[4][h].swapaxes(-1, -2) @ gh[h])
                                      for part, gh in zip(parts, g_heads)])
        draw_own = np.empty_like(own)
        dscore_other = []
        for (slices, nd, raw_mask, attention, _), gh in zip(parts, g_heads):
            dpooled = _row_stack([(x, w.T) for x, w in zip(gh, ws)])
            draw = dpooled @ nd.swapaxes(-1, -2)
            _softmax_grad(attention, draw)
            draw *= raw_mask
            draw = draw.reshape(len(nd), heads, n, nd.shape[1])
            dother = draw.sum(axis=-2).swapaxes(-1, -2)
            draw_own[slices] = draw.sum(axis=-1).swapaxes(-1, -2)
            dscore_other.append((slices, nd.swapaxes(-1, -2) @ dother))
            piece = attention.swapaxes(-1, -2) @ dpooled
            piece += dother @ a2.T
            yield piece
        yield draw_own @ a1.T
        # matrix products return no -0.0, so these pieces need no + 0.0
        dscore = np.concatenate([rd.swapaxes(-1, -2) @ draw_own,
                                 _by_slice(len(rd), dscore_other)], axis=-2)
        for h in range(heads):
            yield dscore[..., h]

    out = _emit(mix, inputs, backward)
    return out, [_wrap(part[3]) for part in parts]


def gated_mix(messages: list[Tensor], receivers: Tensor, gate: Tensor) -> tuple[Tensor, Tensor]:
    """Per-receiver convex mix of K parallel messages, as one tape entry.

    messages are (..., n, k d) stacks, each read as k message slots of
    width d, side by side: a message function's heads as the attention
    entries return them.  With gate = [g1 || g2], weight k of receiver v
    is softmax over k of relu(h_v . g1 + m_k[v] . g2), and row v of the
    result is sum_k weight[v, k] * m_k[v], slice by slice for stacks.
    Returns (mix, weights (..., n, K)); the weights are not on the tape.

    A message's slot scores are one product of its (..., n k, d) rows with
    g2, and its cotangent pieces are formed for all its slots at once; the
    slots' shares of g2's cotangent are one product per message, added last
    message first.
    """
    _need_stack(receivers, "gated_mix receivers")
    if not messages:
        raise ShapeError("gated_mix: no messages")
    rd, gd = receivers.data, gate.data
    d = rd.shape[-1]
    if (gd.shape != (2 * d,)
            or any(m.data.shape[:-1] != rd.shape[:-1] or m.data.shape[-1] % d
                   or not m.data.shape[-1] for m in messages)):
        raise ShapeError(f"gated_mix: messages {[m.data.shape for m in messages]}, receivers "
                         f"{rd.shape} and gate {gd.shape} do not align")
    # each message as (..., n, k, d): its slot j is [..., j, :], a column block
    slots = [m.data.reshape(rd.shape[:-1] + (-1, d)) for m in messages]
    rows = rd.shape[:-2] + (-1, d)  # a message's slots as rows, row i k + j
    own = rd @ gd[:d, None]
    slot = np.concatenate([(s.reshape(rows) @ gd[d:, None]).reshape(s.shape[:-1])
                           for s in slots], axis=-1)
    raw = own + slot
    inputs = (*messages, receivers, gate)
    mask = _relu_mask(raw) if _recording(inputs) is not None else None
    np.maximum(raw, 0.0, out=raw)
    raw -= raw.max(axis=-1, keepdims=True)
    w = _softmax_rows(raw)
    parts = [s[..., j, :] for s in slots for j in range(s.shape[-2])]
    acc = w[..., 0:1] * parts[0]
    for j in range(1, len(parts)):
        acc += w[..., j:j + 1] * parts[j]

    def backward(g):
        dw = np.concatenate([(s * g[..., None, :]).sum(axis=-1) for s in slots], axis=-1)
        draw = _softmax_grad(w, dw)
        draw *= mask
        bounds = [0, *itertools.accumulate(s.shape[-2] for s in slots)]
        spans = list(zip(slots, bounds, bounds[1:]))  # each message's columns of draw
        for s, lo, hi in spans:
            # w_j g plus the rank-1 score piece of each slot, + 0.0 as the module docstring says
            piece = w[..., lo:hi, None] * g[..., None, :]
            score = draw[..., lo:hi, None] * gd[d:]
            score += 0.0
            piece += score
            yield piece.reshape(g.shape[:-1] + (-1,))
        gown = draw.sum(axis=-1, keepdims=True)
        piece = gown * gd[None, :d]
        piece += 0.0
        yield piece
        dslot = None
        for s, lo, hi in reversed(spans):
            col = s.reshape(rows).swapaxes(-1, -2) @ draw[..., lo:hi].reshape(rows[:-1] + (1,))
            dslot = col if dslot is None else dslot + col
        # matrix products and their sums hold no -0.0, so this piece needs no + 0.0
        yield np.concatenate([rd.swapaxes(-1, -2) @ gown, dslot], axis=-2)[..., 0]

    out = _emit(acc, inputs, backward)
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

