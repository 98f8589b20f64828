import contextlib
import math
import operator
import platform
import sys

import numpy as np
import pytest

from stgraph import heads as hd
from stgraph import numgrad as ng
from stgraph.errors import ConfigError, NumericError, ShapeError

import small_primitives as sp


def matmul_triple_loop(a, b):
    # independent reference: no numpy dot products anywhere
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_frozen_example():
    a = ng.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ng.Tensor([[5.0], [6.0]])
    out = ng.matmul(a, b)
    assert out.data.tolist() == [[17.0], [39.0]]


def test_matmul_identity_and_zero():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(5, 5))
    eye = ng.matmul(ng.Tensor(x), ng.Tensor(np.eye(5)))
    assert np.array_equal(eye.data, x)
    zero = ng.matmul(ng.Tensor(x), ng.Tensor(np.zeros((5, 3))))
    assert np.array_equal(zero.data, np.zeros((5, 3)))


def test_matmul_matches_triple_loop_up_to_16():
    rng = np.random.default_rng(11)
    for n, k, m in [(1, 1, 1), (2, 3, 4), (7, 5, 2), (16, 16, 16)]:
        a = rng.uniform(-1, 1, size=(n, k))
        b = rng.uniform(-1, 1, size=(k, m))
        got = ng.matmul(ng.Tensor(a), ng.Tensor(b)).data
        want = matmul_triple_loop(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ng.matmul(ng.Tensor(np.zeros((2, 3))), ng.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_softmax_frozen_example():
    out = sp.softmax(ng.Tensor([0.0, np.log(3.0)]))
    assert np.max(np.abs(out.data - [0.25, 0.75])) <= 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.uniform(-50, 50, size=(40, 9))
    y = sp.softmax(ng.Tensor(x)).data
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) <= 1e-12
    assert y.min() >= 0.0


def test_softmax_extreme_logits_stay_finite():
    y = sp.softmax(ng.Tensor([[1000.0, 0.0, -1000.0]])).data
    assert np.all(np.isfinite(y))
    assert abs(y.sum() - 1.0) <= 1e-12


def test_layer_norm_frozen_example():
    x = ng.Tensor([[1.0, -1.0]])
    one = ng.Tensor([1.0, 1.0])
    zero = ng.Tensor([0.0, 0.0])
    out = sp.layer_norm(x, one, zero, eps=0.0)
    assert np.max(np.abs(out.data - [[1.0, -1.0]])) <= 1e-12


def test_layer_norm_matches_hand_formula():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(4, 6))
    scale = rng.uniform(0.5, 1.5, size=6)
    shift = rng.uniform(-0.5, 0.5, size=6)
    eps = 1e-5
    got = sp.layer_norm(ng.Tensor(x), ng.Tensor(scale), ng.Tensor(shift), eps=eps).data
    for i in range(4):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        want = scale * (x[i] - mu) / np.sqrt(var + eps) + shift
        assert np.max(np.abs(got[i] - want)) <= 1e-12


def test_layer_norm_constant_row_finite():
    out = sp.layer_norm(ng.Tensor([[2.0, 2.0, 2.0]]), ng.Tensor(np.ones(3)), ng.Tensor(np.zeros(3)))
    assert np.all(np.isfinite(out.data))


def test_relu_gradient_at_zero_is_zero():
    x = ng.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        loss = sp.sum_all(sp.relu(x))
    grads = ng.grad(tape, loss, {"x": x})
    assert grads["x"].data.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("inside_checked", [False, True])
def test_relu_values_are_np_where_byte_for_byte(inside_checked):
    # signed zeros, infinities, the smallest normal, subnormals and random
    # values; inside checked() subnormals read as zero
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, tiny / 4, -tiny / 4, 5e-324, -5e-324]
    x = np.concatenate([special, np.random.default_rng(3).normal(size=(200,))]).reshape(3, -1, 7)
    with ng.checked("relu") if inside_checked else contextlib.nullcontext():
        scores = x.copy()
        mask = ng._relu_mask(scores)
        np.maximum(scores, 0.0, out=scores)
        got = ng._relu_values(x.copy())
        want, want_mask = sp.where_relu(x)
    assert got.tobytes() == want.tobytes()
    assert mask.tobytes() == want_mask.tobytes()
    # the scores' relu, which a softmax reads next, is the same but for the sign of a zero
    assert np.array_equal(scores, want) and not np.signbit(scores[x != 0.0]).any()
    head = got.reshape(-1)[:len(special)]
    assert head[[2, 4]].tolist() == [np.inf, tiny] and not np.signbit(head).any()
    if inside_checked and ng._FENV is not None:
        assert not head[6:].any()


def _gat_case(rng, heads, pairs):
    """additive_attention's arguments for a (9, 3, 4) receiver stack over pairs."""
    def tensor(*shape):
        return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    transform = [tensor(4, 4) for _ in range(heads)]
    score = [tensor(8) for _ in range(heads)]
    neighbors = sp.neighbors([(slices, tensor(len(slices), *shape)) for slices, shape in pairs])
    return tensor(9, 3, 4), neighbors, transform, score


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_additive_attention_equals_its_reference_block_byte_for_byte(heads):
    # the block against sp.additive_attention_reference, which sums the
    # scores in numpy's broadcast layout, copies them into the stack and
    # takes relu with np.where: output, attention and every backward piece
    rng = np.random.default_rng(61)
    for pairs in (_ONE_PAIR, _PERMUTED_PAIRS):
        args = _gat_case(rng, heads, pairs)
        g = rng.normal(size=(9, 3, 4 * heads))
        runs = []
        for entry in (ng.additive_attention, sp.additive_attention_reference):
            with ng.Tape() as tape:
                out, attention = entry(*args)
            [(_, inputs, backward)] = tape._entries
            runs.append(([out.data] + [a.data for a in attention], inputs, list(backward(g))))
        (outputs, inputs, pieces), (want_outputs, want_inputs, want_pieces) = runs
        assert len(inputs) == len(want_inputs) and all(map(operator.is_, inputs, want_inputs))
        assert [a.tobytes() for a in outputs] == [a.tobytes() for a in want_outputs]
        assert len(pieces) == len(want_pieces) == len(inputs)
        for piece, want in zip(pieces, want_pieces):
            assert piece.tobytes() == want.tobytes()


@pytest.mark.parametrize("heads", [2, 4])
def test_gat_score_stack_is_a_view_of_a_c_ordered_sum(heads, monkeypatch):
    # Summed as broadcasting lays it out, the (b, H, n, s) score array is
    # in (b, n, s, H) memory order, and its reshape to the (b, H n, s)
    # stack is a C-ordered copy.  The block writes the sum in C order and
    # takes relu and the max shift where it lies, so the stack softmax
    # reads is a C-ordered view of the very array it was summed into.
    softmax = ng._softmax_rows
    seen = []

    def spy_softmax(x):
        # the arrays of additive_attention's frame that hold x's memory
        holders = sys._getframe(1).f_locals.values()
        seen.append((x.shape, x.flags.c_contiguous,
                     [(a.shape, a.flags.c_contiguous) for a in holders
                      if isinstance(a, np.ndarray) and a.ndim == 4 and np.shares_memory(a, x)]))
        return softmax(x)

    monkeypatch.setattr(ng, "_softmax_rows", spy_softmax)
    rng = np.random.default_rng(67)
    for pairs in (_ONE_PAIR, _PERMUTED_PAIRS):
        seen.clear()
        _, attention = ng.additive_attention(*_gat_case(rng, heads, pairs))
        # one score stack per pair
        assert seen == [((len(slices), heads * 3, s), True, [((len(slices), heads, 3, s), True)])
                        for slices, (s, _) in pairs]
        assert [a.shape for a in attention] == [shape for shape, _, _ in seen]


def test_non_finite_input_raises():
    with pytest.raises(NumericError):
        ng.Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        ng.Tensor([[np.nan]])
    # a named tensor's message names it
    with pytest.raises(NumericError) as err:
        ng.Tensor([-np.inf], name="mp.iter0.spatial.gate")
    assert str(err.value) == "non-finite values in tensor mp.iter0.spatial.gate"


def test_tensor_repr_shows_shape_and_name():
    assert repr(ng.Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert repr(ng.Tensor(np.zeros(4), name="readout.action.bias")) == (
        "Tensor(shape=(4,), name='readout.action.bias')")


def test_max_relative_error_hand_values():
    # |a - n| / max(|a|, |n|, floor), largest over the entries
    assert ng.max_relative_error(np.array([2.0, -1.0]), np.array([1.0, -1.0])) == 0.5
    assert ng.max_relative_error(np.array([[3.0]]), np.array([[-1.0]])) == 4.0 / 3.0
    # near zero the floor is the denominator
    assert ng.max_relative_error(np.array([0.0]), np.array([2e-5])) == 2e-5 / 1e-4
    assert ng.max_relative_error(np.array([0.0]), np.array([2e-5]), floor=1e-3) == 2e-5 / 1e-3
    assert ng.max_relative_error(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    with pytest.raises(ShapeError):
        ng.max_relative_error(np.zeros(2), np.zeros(3))


def test_tensor_data_is_read_only():
    t = ng.Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_tensor_copies_the_callers_array():
    # the caller's array stays writable, and a later write to it does not reach the tensor
    a = np.array([1.0, 2.0])
    t = ng.Tensor(a)
    a[0] = 5.0
    assert t.data.tolist() == [1.0, 2.0] and not t.data.flags.writeable


def test_grad_requires_scalar_loss():
    x = ng.Tensor([1.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        y = sp.relu(x)
    with pytest.raises(ShapeError):
        ng.grad(tape, y, {"x": x})


def test_untouched_param_gets_exact_zeros():
    x = ng.Tensor([1.0, 2.0], requires_grad=True, name="x")
    unused = ng.Tensor(np.ones((3, 2)), requires_grad=True, name="unused")
    with ng.Tape() as tape:
        loss = sp.sum_all(sp.relu(x))
    grads = ng.grad(tape, loss, {"x": x, "unused": unused})
    assert grads["unused"].data.shape == (3, 2)
    assert np.all(grads["unused"].data == 0.0)


def test_grad_accumulates_over_reuse():
    x = ng.Tensor([1.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        y = ng.add(x, x)
        loss = sp.sum_all(y)
    grads = ng.grad(tape, loss, {"x": x})
    assert grads["x"].data.tolist() == [2.0, 2.0]


def test_ops_outside_tape_record_nothing():
    x = ng.Tensor([1.0, -2.0], requires_grad=True)
    y = sp.relu(x)
    assert y.requires_grad is False


@pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                    reason="flushing subnormals needs x86-64 glibc")
def test_checked_layers_and_grad_flush_subnormals():
    # skipped by platform, not by ng._FENV: a lookup that failed on x86-64
    # glibc would turn the flush off without a word
    assert ng._FENV is not None
    small = np.array([1e-300])
    assert (small * 1e-10)[0] == 1e-310
    with ng.checked("layer"):
        assert (small * 1e-10)[0] == 0.0
        # a subnormal operand reads as zero too
        assert (np.array([1e-310]) * 1e10)[0] == 0.0
    assert (small * 1e-10)[0] == 1e-310  # the thread's mode is restored
    # the weight's cotangent x^T (1e-10) is subnormal
    x = ng.Tensor([[1e-300]])
    w = ng.Tensor([[1.0]], requires_grad=True)
    with ng.Tape() as tape:
        loss = sp.sum_all(sp.scale(ng.matmul(x, w), 1e-10))
    assert ng.grad(tape, loss, {"w": w})["w"].data[0, 0] == 0.0


def test_bce_with_logits_hand_value():
    # logits x, targets z: max(x,0) - x z + log(1 + exp(-|x|)), averaged
    x = np.array([[0.7, -1.3], [2.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    want = np.mean(np.maximum(x, 0) - x * z + np.log1p(np.exp(-np.abs(x))))
    got = sp.bce_with_logits_mean(ng.Tensor(x), ng.Tensor(z)).item()
    assert abs(got - want) <= 1e-15


def test_bce_gradient_is_sigmoid_minus_target_over_count():
    rng = np.random.default_rng(13)
    x = ng.Tensor(rng.uniform(-3, 3, size=(4, 5)), requires_grad=True)
    z = ng.Tensor((rng.uniform(size=(4, 5)) > 0.5).astype(float))
    with ng.Tape() as tape:
        loss = sp.bce_with_logits_mean(x, z)
    grads = ng.grad(tape, loss, {"x": x})
    want = (1.0 / (1.0 + np.exp(-x.data)) - z.data) / x.data.size
    assert np.max(np.abs(grads["x"].data - want)) <= 1e-12


def test_softmax_xent_hand_value_and_gradient():
    x = ng.Tensor([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]], requires_grad=True)
    y = ng.Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with ng.Tape() as tape:
        loss = sp.softmax_xent_mean(x, y)
    p = np.exp(x.data) / np.exp(x.data).sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[[0, 1], [1, 0]]))
    assert abs(loss.item() - want) <= 1e-12
    grads = ng.grad(tape, loss, {"x": x})
    assert np.max(np.abs(grads["x"].data - (p - y.data) / 2.0)) <= 1e-12


def _fd_check(build, params, tol=1e-4):
    """build(params) -> scalar Tensor, recorded under an active tape."""
    with ng.Tape() as tape:
        loss = build(params)
    analytic = ng.grad(tape, loss, params)
    numeric = ng.finite_difference_grads(lambda p: build(p).item(), params, step=1e-5)
    for name in params:
        err = ng.max_relative_error(analytic[name].data, numeric[name])
        assert err <= tol, f"{name}: rel err {err:.3e}"


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan"), float("inf")])
def test_finite_difference_step_must_be_finite_and_positive(step):
    x = {"x": ng.Tensor(np.ones(2), requires_grad=True)}
    with pytest.raises(ConfigError, match="step"):
        ng.finite_difference_grads(lambda p: float(p["x"].data.sum()), x, step=step)


def test_finite_differences_per_primitive():
    rng = np.random.default_rng(17)

    def t(*shape):
        return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    cases = {
        "add": ({"a": t(3, 4), "b": t(3, 4)}, lambda p: sp.sum_all(sp.relu(ng.add(p["a"], p["b"])))),
        "add_rowvec": ({"m": t(3, 4), "v": t(4)}, lambda p: sp.sum_all(sp.relu(ng.add_rowvec(p["m"], p["v"])))),
        "scale": ({"x": t(5)}, lambda p: sp.sum_all(sp.relu(sp.scale(p["x"], -1.7)))),
        "matmul_mm": ({"a": t(3, 4), "b": t(4, 2)}, lambda p: sp.sum_all(sp.relu(ng.matmul(p["a"], p["b"])))),
        "transpose": ({"a": t(3, 4), "b": t(3, 2)}, lambda p: sp.sum_all(ng.matmul(sp.transpose(p["a"]), p["b"]))),
        "relu": ({"x": t(4, 4)}, lambda p: sp.sum_all(sp.relu(p["x"]))),
        "sigmoid": ({"x": t(6)}, lambda p: sp.sum_all(sp.sigmoid(p["x"]))),
        "softmax_1d": ({"x": t(5), "w": t(5)}, lambda p: sp.sum_all(sp.relu(ng.add(sp.softmax(p["x"]), p["w"])))),
        "softmax_2d": ({"x": t(3, 5)}, lambda p: sp.sum_all(sp.relu(ng.add(sp.softmax(p["x"]), p["x"])))),
        "layer_norm": (
            {"x": t(3, 6), "s": t(6), "b": t(6)},
            lambda p: sp.sum_all(sp.relu(sp.layer_norm(p["x"], p["s"], p["b"]))),
        ),
        "concat_rows": ({"a": t(2, 3), "b": t(4, 3)}, lambda p: sp.sum_all(sp.relu(ng.concat_rows([p["a"], p["b"]])))),
        "concat_cols": ({"a": t(3, 2), "b": t(3, 4)}, lambda p: sp.sum_all(sp.relu(sp.concat_cols([p["a"], p["b"]])))),
        "nonlocal_attention": (
            {"q": t(1, 3, 4), "kv": t(1, 5, 4), "wq": t(4, 4), "wk": t(4, 4), "wv": t(4, 4)},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(
                p["q"], sp.neighbors([([0], p["kv"])]), [p["wq"]], [p["wk"]], [p["wv"]])[0])),
        ),
        "nonlocal_attention_kv_is_query": (
            {"h": t(1, 3, 4), "wq": t(4, 4), "wk": t(4, 4), "wv": t(4, 4)},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(
                p["h"], sp.neighbors([([0], p["h"])]), [p["wq"]], [p["wk"]], [p["wv"]])[0])),
        ),
        # two heads over two pairs of different neighbor counts, slices out of order
        "nonlocal_attention_two_heads": (
            {"q": t(2, 3, 4), "kv0": t(1, 5, 4), "kv1": t(1, 2, 4),
             **{f"{w}{h}": t(4, 4) for w in ("wq", "wk", "wv") for h in range(2)}},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(
                p["q"], sp.neighbors([([1], p["kv0"]), ([0], p["kv1"])]),
                *([p[f"{w}{h}"] for h in range(2)] for w in ("wq", "wk", "wv")))[0])),
        ),
        "nonlocal_attention_two_heads_kv_is_query": (
            {"h": t(1, 3, 4), **{f"{w}{h}": t(4, 4) for w in ("wq", "wk", "wv") for h in range(2)}},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(
                p["h"], sp.neighbors([([0], p["h"])]),
                *([p[f"{w}{h}"] for h in range(2)] for w in ("wq", "wk", "wv")))[0])),
        ),
        "additive_attention": (
            {"r": t(1, 3, 4), "n": t(1, 5, 4), "w": t(4, 4), "a": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.additive_attention(
                p["r"], sp.neighbors([([0], p["n"])]), [p["w"]], [p["a"]])[0])),
        ),
        "additive_attention_one_receiver_one_neighbor": (
            {"r": t(1, 1, 4), "n": t(1, 1, 4), "w": t(4, 4), "a": t(8)},
            lambda p: sp.sum_all(ng.additive_attention(
                p["r"], sp.neighbors([([0], p["n"])]), [p["w"]], [p["a"]])[0]),
        ),
        "additive_attention_two_heads": (
            {"r": t(2, 3, 4), "n0": t(1, 5, 4), "n1": t(1, 2, 4),
             "w0": t(4, 4), "w1": t(4, 4), "a0": t(8), "a1": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.additive_attention(
                p["r"], sp.neighbors([([1], p["n0"]), ([0], p["n1"])]), [p["w0"], p["w1"]],
                [p["a0"], p["a1"]])[0])),
        ),
        "gated_mix": (
            {"a": t(3, 4), "b": t(3, 4), "r": t(3, 4), "g": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.gated_mix([p["a"], p["b"], p["a"]], p["r"], p["g"])[0])),
        ),
        # two slots of one two-head function and one of another
        "gated_mix_two_heads": (
            {"ab": t(3, 8), "c": t(3, 4), "r": t(3, 4), "g": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.gated_mix([p["ab"], p["c"]], p["r"], p["g"])[0])),
        ),
        "residual_layer_norm_2d": (
            {"x": t(3, 6), "m": t(3, 6), "s": t(6), "b": t(6)},
            lambda p: sp.sum_all(sp.relu(ng.residual_layer_norm(p["x"], p["m"], p["s"], p["b"]))),
        ),
        "gather_rows": ({"m": t(4, 3)}, lambda p: sp.sum_all(sp.relu(ng.gather_rows(
            [p["m"]], sp.gather([p["m"]], [0, 2, 2, 1]))))),
        "pair_logits": (
            {"h": t(4, 3), "w": t(6, 2), "b": t(2)},
            lambda p: sp.sum_all(sp.relu(hd.pair_logits(p["h"], p["w"], p["b"]))),
        ),
        "pair_logits_stacked": (
            {"h": t(2, 3, 3), "w": t(6, 2), "b": t(2)},
            lambda p: sp.sum_all(sp.relu(hd.pair_logits(p["h"], p["w"], p["b"]))),
        ),
        "mean_all": ({"x": t(3, 3)}, lambda p: sp.mean_all(sp.relu(p["x"]))),
        "bce": (
            {"x": t(3, 4)},
            lambda p: sp.bce_with_logits_mean(p["x"], ng.Tensor((np.arange(12).reshape(3, 4) % 2).astype(float))),
        ),
        "softmax_xent": (
            {"x": t(3, 4)},
            lambda p: sp.softmax_xent_mean(p["x"], ng.Tensor(np.eye(4)[[0, 2, 3]])),
        ),
    }
    for label, (params, build) in cases.items():
        with ng.Tape() as tape:
            build(params)
        for out, _, _ in tape._entries:
            assert out.data.dtype == np.float64 and not out.data.flags.writeable, label
        _fd_check(build, params)


def test_fused_primitives_reject_bad_shapes():
    m, w = ng.Tensor(np.ones((3, 2))), ng.Tensor(np.ones((2, 2)))
    v4, v5 = ng.Tensor(np.ones(4)), ng.Tensor(np.ones(5))
    # the attention blocks take a stack of receivers and Neighbors
    one, pair = ng.Tensor(np.ones((1, 3, 2))), sp.neighbors([([0], ng.Tensor(np.ones((1, 3, 2))))])
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(one, sp.neighbors([([0], ng.Tensor(np.ones((1, 4, 3))))]),
                              [w], [w], [w])
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(one, pair, [w], [ng.Tensor(np.ones((2, 3)))], [w])
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(v4, pair, [w], [w], [w])
    with pytest.raises(ShapeError):
        ng.additive_attention(one, pair, [w], [v5])
    with pytest.raises(ShapeError):
        ng.additive_attention(one, pair, [w], [ng.Tensor(np.ones((2, 2)))])
    with pytest.raises(ShapeError):
        ng.additive_attention(one, sp.neighbors([([0], ng.Tensor(np.ones((1, 3, 3))))]),
                              [w], [v4])
    with pytest.raises(ShapeError):
        ng.additive_attention(m, pair, [w], [v4])
    # heads: as sequences, as many of each weight, of one shape
    with pytest.raises(ShapeError, match="sequences of per-head tensors"):
        ng.nonlocal_attention(one, pair, w, w, w)
    with pytest.raises(ShapeError, match="one or more heads"):
        ng.additive_attention(one, pair, [], [])
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(one, pair, [w, w], [w], [w, w])
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(one, pair, [w, w], [w, w], [w, ng.Tensor(np.ones((2, 3)))])
    with pytest.raises(ShapeError):
        ng.additive_attention(one, pair, [w, w], [v4])
    with pytest.raises(ShapeError):
        ng.gated_mix([m, ng.Tensor(np.ones((2, 2)))], m, v4)
    with pytest.raises(ShapeError):
        ng.gated_mix([m, m], m, v5)
    with pytest.raises(ShapeError):
        ng.gated_mix([], m, v4)
    with pytest.raises(ShapeError):
        ng.gated_mix([ng.Tensor(np.ones((3, 3)))], m, v4)
    with pytest.raises(ShapeError):
        ng.gated_mix([ng.Tensor(np.ones((3, 0)))], m, v4)
    with pytest.raises(ShapeError):
        ng.residual_layer_norm(m, ng.Tensor(np.ones((2, 2))), ng.Tensor(np.ones(2)), ng.Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        ng.residual_layer_norm(m, m, ng.Tensor(np.ones(3)), ng.Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):
        ng.residual_layer_norm(v4, v4, v4, v4)
    # an empty neighbor stack, alone or as one of a stack's (slices, stack)
    # pairs, is refused when its layout is made
    empty, stack = [([0], ng.Tensor(np.zeros((1, 0, 2))))], ng.Tensor(np.ones((2, 3, 2)))
    pairs = [([0], ng.Tensor(np.ones((1, 4, 2)))), ([1], ng.Tensor(np.zeros((1, 0, 2))))]
    for kv in (empty, pairs):
        with pytest.raises(ShapeError, match="empty neighborhood"):
            sp.neighbors(kv)
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(stack, sp.neighbors([]), [w], [w], [w])
    # a pair list must cover every receiver slice exactly once
    with pytest.raises(ShapeError):
        sp.neighbors([([0, 0], ng.Tensor(np.ones((2, 4, 2))))])


def _fused_nonlocal(query, kv, wq, wk, wv):
    out, [attention] = ng.nonlocal_attention(query, sp.neighbors([([0], kv)]), wq, wk, wv)
    return out, list(attention.data[0].reshape(len(wq), -1, attention.shape[-1]))


def _composed_heads(query, kv, wq, wk, wv):
    # one chain per head, messages side by side as the fused entry returns them
    heads = [_composed_nonlocal(query, kv, *w) for w in zip(wq, wk, wv)]
    return sp.concat_cols([m for m, _ in heads]), [a.data for _, a in heads]


def _composed_nonlocal(query, kv, wq, wk, wv):
    # the reassociated chain: ((query wq) wk^T) kv^T scores, (attention kv) wv messages
    u = ng.matmul(ng.matmul(query, wq), sp.transpose(wk))
    scores = ng.matmul(u, sp.transpose(kv))
    attention = sp.softmax(sp.scale(scores, 1.0 / math.sqrt(wq.shape[1])))
    return ng.matmul(ng.matmul(attention, kv), wv), attention


def _composed_residual(state, message, scale, shift, eps):
    return sp.layer_norm(ng.add(state, message), scale, shift, eps)


def _ulps_apart(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| in units of the spacing of want's largest magnitude."""
    return float(np.abs(got - want).max() / np.spacing(np.abs(want).max()))


# "a few ulps": the re-summed pieces below deviate by at most 1
ULPS = 4


@pytest.mark.parametrize("with_context", [False, True])
def test_fused_blocks_match_their_composition_bit_for_bit(with_context):
    # The nonlocal entry and the residual update against their chains of
    # small primitives, for one head and for two.  At one head every byte
    # matches, except, without context, the states h, which are also kv:
    # the chain hands h its kv pieces one by one after the update's piece,
    # while the entry adds them first.  At two heads the entry sums the
    # heads' kv and query pieces inside its products, so those and all that
    # follow from them agree within a few ulps.
    rng = np.random.default_rng(31)

    def t(*shape):
        return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    for heads in (1, 2):
        p = {"h": t(3, 4), "ctx": t(2, 4), "s": t(4), "b": t(4), "row": t(1, 4),
             "row_msg": t(1, 4), "mix": t(4 * heads, 4)}
        for head in range(heads):
            for part in ("wq", "wk", "wv"):
                p[f"{part}{head}"] = t(4, 4)

        # the fused block takes (B, n, d) stacks: h and ctx as stacks of one
        stacked = {**p, **{k: ng.Tensor(p[k].data[None], requires_grad=True)
                           for k in ("h", "ctx")}}

        def run(p, attend, residual):
            with ng.Tape() as tape:
                kv = ng.concat_rows([p["h"], p["ctx"]]) if with_context else p["h"]
                messages, attention = attend(p["h"], kv, *([p[f"{part}{k}"] for k in range(heads)]
                                                           for part in ("wq", "wk", "wv")))
                states = residual(p["h"], ng.matmul(messages, p["mix"]), p["s"], p["b"], 1e-5)
                row = residual(p["row"], p["row_msg"], p["s"], p["b"], 1e-5)
                loss = ng.add(sp.sum_all(sp.relu(states)), sp.sum_all(sp.relu(row)))
            outputs = [x.data for x in (states, row, loss)] + attention
            return outputs, ng.grad(tape, loss, p)

        fused_outputs, fused_grads = run(stacked, _fused_nonlocal, ng.residual_layer_norm)
        outputs, grads = run(p, _composed_heads, _composed_residual)
        assert len(fused_outputs) == len(outputs) == 3 + heads
        for got, want in zip(fused_outputs, outputs):
            got = got.reshape(want.shape)
            if heads == 1:
                assert got.tobytes() == want.tobytes()
            assert _ulps_apart(got, want) <= ULPS
        for name in p:
            got, want = fused_grads[name].data.reshape(grads[name].shape), grads[name].data
            if heads == 1 and (with_context or name != "h"):
                assert got.tobytes() == want.tobytes(), name
            assert _ulps_apart(got, want) <= ULPS, (heads, name, _ulps_apart(got, want))
        assert np.all(fused_grads["h"].data != 0.0)


def _composed_gated_mix(messages, receivers, gate):
    d = receivers.shape[-1]
    own = ng.matmul(receivers, sp.column(gate, 0, d))
    slot = sp.concat_cols([ng.matmul(m, sp.column(gate, d, 2 * d)) for m in messages])
    weights = sp.softmax(sp.relu(sp.add_broadcast(own, slot)))
    mix = None
    for j, m in enumerate(messages):
        term = sp.scale_rows(sp.pick_column(weights, j), m)
        mix = term if mix is None else ng.add(mix, term)
    return mix


def _composed_additive(receivers, neighbors, transform, score):
    d = receivers.shape[-1]
    own = ng.matmul(receivers, sp.column(score, 0, d))
    other = sp.transpose(ng.matmul(neighbors, sp.column(score, d, 2 * d)))
    attention = sp.softmax(sp.relu(sp.add_broadcast(own, other)))
    return sp.relu(ng.matmul(ng.matmul(attention, neighbors), transform))


@pytest.mark.parametrize("block", ["gated_mix", "additive_attention"])
def test_rank_one_pieces_keep_the_zero_signs_of_their_chain(block):
    # Receiver 0's scores are all negative, so relu zeroes them and its
    # score cotangent is a zero.  The receiver half of the gate or score
    # vector holds negative entries and both signed zeros, so a rank-1
    # piece formed as a plain product would hold -0.0 where the chain's
    # k=1 matrix product gives +0.0.  Every other receiver has a nonzero
    # cotangent, whose product with +0.0 or -0.0 also makes signed zeros.
    rng = np.random.default_rng(47)
    d = 4
    half = np.array([-0.7, 0.0, -0.0, 0.4])
    receivers = rng.uniform(-1, 1, size=(3, d))
    receivers[0] = [10.0, 1.0, -1.0, -10.0]
    others = rng.uniform(-1, 1, size=(2, 3, d))
    vector = np.concatenate([half, rng.uniform(-0.5, 0.5, size=d)])
    transform = rng.uniform(-1, 1, size=(d, d))
    readout = ng.Tensor(rng.uniform(-1, 1, size=(d, 2)))

    def grads(fused):
        p = {"r": ng.Tensor(receivers[None] if fused else receivers, requires_grad=True),
             "v": ng.Tensor(vector, requires_grad=True),
             "w": ng.Tensor(transform, requires_grad=True)}
        p.update({f"o{k}": ng.Tensor(o[None] if fused else o, requires_grad=True)
                  for k, o in enumerate(others)})
        with ng.Tape() as tape:
            if block == "gated_mix":
                messages = [p["o0"], p["o1"]]
                out = (ng.gated_mix(messages, p["r"], p["v"])[0] if fused
                       else _composed_gated_mix(messages, p["r"], p["v"]))
            else:
                out = (ng.additive_attention(p["r"], sp.neighbors([([0], p["o0"])]), [p["w"]],
                                             [p["v"]])[0]
                       if fused else _composed_additive(p["r"], p["o0"], p["w"], p["v"]))
            # a constant readout hands every output row a nonzero cotangent
            loss = sp.sum_all(ng.matmul(out, readout))
        return {name: t.data.reshape(t.shape[-2:] if name != "v" else t.shape)
                for name, t in ng.grad(tape, loss, p).items()}

    fused, chain = grads(True), grads(False)
    # the relu mask zeroes receiver 0's gradient; the zero half entries zero two columns
    assert not chain["r"][0].any() and not chain["r"][:, 1:3].any()
    for name in chain:
        assert fused[name].tobytes() == chain[name].tobytes(), name


def test_gate_message_pieces_keep_the_zero_signs_of_their_chain():
    # A negated sum of relu(mix) hands the mix a -0.0 cotangent wherever
    # relu zeroes it, as in columns 1 and 2, whose message entries are all
    # negative; there w_j g is -0.0.  The message half of the gate holds
    # +0.0 and -0.0 in those columns, so one of them makes each slot's score
    # piece draw_j g2 a -0.0 too.  The chain adds w_j g and the +0.0 of its
    # k=1 product, which gives +0.0; without the block's + 0.0 the sum of
    # the two pieces would stay -0.0.
    rng = np.random.default_rng(73)
    d = 4
    messages = rng.uniform(-1, 1, size=(3, 3, d))
    messages[..., 1:3] = -rng.uniform(0.1, 1, size=(3, 3, 2))
    gate = np.concatenate([rng.uniform(-1, 1, size=d), [0.6, 0.0, -0.0, -0.5]])
    receivers = rng.uniform(-1, 1, size=(3, d))

    def grads(fused):
        p = {"r": ng.Tensor(receivers[None] if fused else receivers, requires_grad=True),
             "g": ng.Tensor(gate, requires_grad=True)}
        p.update({f"m{j}": ng.Tensor(m[None] if fused else m, requires_grad=True)
                  for j, m in enumerate(messages)})
        slots = [p[f"m{j}"] for j in range(len(messages))]
        with ng.Tape() as tape:
            out = ng.gated_mix(slots, p["r"], p["g"])[0] if fused else _composed_gated_mix(
                slots, p["r"], p["g"])
            loss = sp.sum_all(sp.scale(sp.relu(out), -1.0))
        return {name: t.data.reshape(t.shape[-2:] if name != "g" else t.shape)
                for name, t in ng.grad(tape, loss, p).items()}

    fused, chain = grads(True), grads(False)
    # every message piece has a zero in the relu'd columns, of the sign the chain gives
    for j in range(len(messages)):
        assert not chain[f"m{j}"][:, 1:3].all()
    for name in chain:
        assert fused[name].tobytes() == chain[name].tobytes(), name


def test_matrix_products_return_no_negative_zero():
    # A matrix product adds its terms to a zero, so even where every term
    # is -0.0 it returns +0.0: stacked and single, transposed operands,
    # k = 1, and the vector forms.  This is why the score vectors' and the
    # gate's pieces, sums of products, need no + 0.0.
    rng = np.random.default_rng(79)
    for m, k, n in [(1, 1, 1), (3, 1, 4), (3, 5, 1), (1, 7, 1), (6, 9, 5)]:
        negative = -rng.uniform(0.5, 1, size=(2, m, k))
        for a, b in [(negative, np.zeros((k, n))), (-negative, -np.zeros((k, n))),
                     (negative.swapaxes(-1, -2).copy().swapaxes(-1, -2), np.zeros((n, k)).T),
                     (negative, np.zeros((2, k, n))), (negative[0], np.zeros((k, n))),
                     (negative[0, 0], np.zeros(k)), (negative, -np.zeros(k))]:
            product = a @ b
            assert not product.any() and not np.signbit(product).any(), (m, k, n)


def test_matmul_hands_a_constant_operand_no_gradient():
    # project_block's product of a constant feature stack with a weight
    rng = np.random.default_rng(53)
    features = rng.uniform(-1, 1, size=(3, 4, 5))
    weight = ng.Tensor(rng.uniform(-1, 1, size=(5, 6)), requires_grad=True)
    other = ng.Tensor(rng.uniform(-1, 1, size=(6, 2)), requires_grad=True)

    def run(x):
        with ng.Tape() as tape:
            loss = sp.sum_all(sp.relu(ng.matmul(ng.matmul(x, weight), other)))
        return tape, ng.grad(tape, loss, {"x": x, "weight": weight, "other": other})

    tape, constant = run(ng.Tensor(features))
    out, _, backward = tape._entries[0]
    dx, dweight = backward(np.ones(out.shape))
    assert dx is None and dweight.shape == (3, 5, 6)
    assert not constant["x"].data.any()
    _, tracked = run(ng.Tensor(features, requires_grad=True))
    assert tracked["x"].data.any()
    for name in ("weight", "other"):
        assert constant[name].data.tobytes() == tracked[name].data.tobytes(), name


def test_composite_chain_finite_differences():
    # exercise a chain resembling one inference step end to end
    rng = np.random.default_rng(23)
    params = {
        "h": ng.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True),
        "wq": ng.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True),
        "wk": ng.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True),
        "wv": ng.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True),
        "ln_s": ng.Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True),
        "ln_b": ng.Tensor(rng.uniform(-0.5, 0.5, size=4), requires_grad=True),
    }

    def build(p):
        q = ng.matmul(p["h"], p["wq"])
        k = ng.matmul(p["h"], p["wk"])
        v = ng.matmul(p["h"], p["wv"])
        att = sp.softmax(sp.scale(ng.matmul(q, sp.transpose(k)), 0.5))
        msg = ng.matmul(att, v)
        out = sp.layer_norm(ng.add(p["h"], msg), p["ln_s"], p["ln_b"])
        return sp.mean_all(out)

    _fd_check(build, params)


def test_determinism_bit_identical():
    rng = np.random.default_rng(29)
    x = rng.uniform(-1, 1, size=(6, 6))
    a = sp.softmax(ng.Tensor(x)).data
    b = sp.softmax(ng.Tensor(x)).data
    assert a.tobytes() == b.tobytes()


def _pair_rows(m):
    """Rows (2, 0, 0, 1, 2, 2) of every slice of m: duplicates on purpose."""
    rows, lead = m.shape[-2], m.shape[:-2]
    first = np.arange(math.prod(lead)).reshape(lead + (1,)) * rows
    return ng.gather_rows([m], sp.gather([m], first + [2, 0, 0, 1, 2, 2]))


def _attention_entries(query, kv):
    w, a = [ng.Tensor(np.ones((2, 2)))], [ng.Tensor(np.ones(4))]
    return (lambda: ng.nonlocal_attention(query, kv, w, w, w),
            lambda: ng.additive_attention(query, kv, w, a))


def test_layout_faults_fail_direct_callers_with_the_same_messages():
    # a receiver stack that the pairs' layout does not fit fails in the
    # entry; an empty neighborhood and a bad index or plan are refused when
    # the layout or Gather is made, with the messages they always had
    stack = ng.Tensor(np.ones((2, 3, 2)))
    uncovered = sp.neighbors([([0], ng.Tensor(np.ones((1, 4, 2))))])
    for name, call in zip(("nonlocal_attention", "additive_attention"),
                          _attention_entries(stack, uncovered)):
        with pytest.raises(ShapeError) as err:
            call()
        assert str(err.value) == f"{name}: need a (B, n, d) receiver stack with each slice in one pair"
    with pytest.raises(ShapeError) as err:
        sp.neighbors([([0, 1], ng.Tensor(np.zeros((2, 0, 2))))])
    assert str(err.value) == "KvLayout: empty neighborhood"
    m = [ng.Tensor(np.ones((3, 2)))]
    with pytest.raises(ShapeError) as err:
        sp.gather(m, [[0, 3]])
    assert str(err.value) == "gather_rows: index out of range for 3 rows"
    with pytest.raises(ShapeError) as err:
        sp.gather(m, [0, 1, 2], plan=([0, 1],))
    assert str(err.value) == "gather_rows: plan does not cover the 3 index entries"


def test_layout_faults_are_refused_when_the_layout_is_made():
    with pytest.raises(ShapeError, match="each of 2 receiver slices must sit in one pair"):
        ng.KvLayout(2, [[0]], [4])
    with pytest.raises(ShapeError, match="each of 2 receiver slices must sit in one pair"):
        ng.KvLayout(2, [[0, 1], [1]], [4, 4])
    with pytest.raises(ShapeError, match="empty neighborhood"):
        ng.KvLayout(2, [[1], [0]], [3, 0])
    with pytest.raises(ShapeError, match="index out of range for 3 rows"):
        ng.Gather([0, 3], None, 3, (1, 2))
    with pytest.raises(ShapeError, match="index out of range for 3 rows"):
        ng.Gather([-1, 0], None, 3, (1, 2))
    with pytest.raises(ShapeError, match="plan does not cover the 3 index entries"):
        ng.Gather([0, 1, 2], ([0, 1],), 3, (3,))
    # a layout picks consecutive slices by a basic slice, others by an array
    layout = ng.KvLayout(4, [[2, 0], range(1, 2), [3]], [1, 2, 2])
    assert [i.tolist() if isinstance(i, np.ndarray) else i for i in layout.index] == [
        [2, 0], slice(1, 2), slice(3, 4)]
    assert layout.shapes == [(2, 1), (1, 2), (1, 2)]


@pytest.mark.parametrize("slices,want", [
    (range(9), slice(0, 9)), ([2, 3, 4], slice(2, 5)), ([5], slice(5, 6)),
    ([2, 0, 7], [2, 0, 7]), ([0, 2], [0, 2]), ([4, 3, 2], [4, 3, 2])])
def test_slice_index_takes_a_contiguous_run_as_a_basic_slice(slices, want):
    # a run of consecutive slices, as the spatial phase's range over a whole
    # block, is a basic slice, so the entries read views of their stacks;
    # any other run is an intp array, whose reads are copies
    run, index = ng._slice_index(slices)
    assert run == list(slices)
    stack = np.arange(10.0 * 2).reshape(10, 2)
    if isinstance(want, slice):
        assert index == want and np.shares_memory(stack[index], stack)
    else:
        assert isinstance(index, np.ndarray) and index.dtype == np.intp
        assert index.tolist() == want and not np.shares_memory(stack[index], stack)


def test_checked_layouts_match_plain_pairs_and_still_check_shapes():
    # the layout sp.neighbors makes from (slices, stack) pairs is the one
    # made by hand, and the entries read both alike; the entries still check
    # that receivers and stacks have the shapes a layout fixed
    rng = np.random.default_rng(46)
    query = ng.Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    kvs = [ng.Tensor(rng.normal(size=(2, 4, 2))), ng.Tensor(rng.normal(size=(1, 1, 2)))]
    slices = [[2, 0], [1]]
    layout = ng.KvLayout(3, slices, [4, 1])
    made = sp.neighbors(list(zip(slices, kvs)))
    assert made.stacks == kvs and made.layout.count == layout.count
    assert made.layout.slices == layout.slices and made.layout.shapes == layout.shapes
    for plain, checked in zip(_attention_entries(query, made),
                              _attention_entries(query, ng.Neighbors(layout, kvs))):
        (out, att), (out2, att2) = plain(), checked()
        assert out.data.tobytes() == out2.data.tobytes()
        assert [a.data.tobytes() for a in att] == [a.data.tobytes() for a in att2]
    # stacks, or receivers, that do not have the shapes the layout fixed
    for query_, stacks in ((query, kvs[:1]), (query, kvs[::-1]),
                           (ng.Tensor(np.ones((2, 2, 2))), kvs)):
        for call in _attention_entries(query_, ng.Neighbors(layout, stacks)):
            with pytest.raises(ShapeError, match="each slice in one pair"):
                call()
    # a Gather reads sources of the row count it was checked against, with its plan
    m = ng.Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    gather = ng.Gather([5, 0, 3, 3], ([0, 1, 2], [3]), 6, (2, 2))
    assert gather.rows.dtype == np.intp and not gather.rows.flags.writeable
    with ng.Tape() as tape:
        out = ng.gather_rows([m], gather)
    assert out.data.tobytes() == m.data.reshape(6, 2)[[[5, 0], [3, 3]]].tobytes()
    [(_, _, backward)] = tape._entries
    g = rng.normal(size=(2, 2, 2))
    want = np.zeros((6, 2))
    np.add.at(want, [5, 0, 3, 3], g.reshape(-1, 2))
    assert backward(g)[0].tobytes() == want.reshape(2, 3, 2).tobytes()
    for sources in ([ng.Tensor(np.ones((5, 2)))], [m, ng.Tensor(np.ones((1, 2)))]):
        with pytest.raises(ShapeError, match="cannot read"):
            ng.gather_rows(sources, gather)


def _head_lists(weights: dict, parts, heads: int) -> list[list]:
    """Per-head weights named part0, part1, ..., as one list per part."""
    return [[weights[f"{part}{h}"] for h in range(heads)] for part in parts]


def _nonlocal_messages(heads: int):
    return lambda q, kv, **w: ng.nonlocal_attention(
        q, kv, *_head_lists(w, ("wq", "wk", "wv"), heads))[0]


def _additive_messages(heads: int):
    return lambda r, n, **w: ng.additive_attention(r, n, *_head_lists(w, ("w", "a"), heads))[0]


# The attention blocks' neighbors are (slices, stack) pairs, given below as
# (slices, shape of each slice's neighbors): one pair over every slice, as
# the spatial phase hands them, or slices permuted and interleaved over
# pairs of different neighbor counts, as the temporal phase may.
_ONE_PAIR = [(range(9), (5, 4))]
_PERMUTED_PAIRS = [([2, 0, 7, 5, 4], (3, 4)), ([1, 8, 3, 6], (5, 4))]

# name: (shapes of the per-slice inputs, shapes of the shared inputs, primitive)
STACKED = {
    "matmul": ({"x": (3, 4)}, {"w": (4, 2)}, lambda x, w: ng.matmul(x, w)),
    "matmul_one_element_pieces": ({"x": (2, 1)}, {"w": (1, 1)}, lambda x, w: ng.matmul(x, w)),
    "add_rowvec": ({"x": (3, 4)}, {"v": (4,)}, lambda x, v: ng.add_rowvec(x, v)),
    "add_rowvec_one_class": ({"x": (3, 1)}, {"v": (1,)}, lambda x, v: ng.add_rowvec(x, v)),
    "concat_rows": ({"a": (2, 4), "b": (3, 4)}, {}, lambda a, b: ng.concat_rows([a, b])),
    "concat_cols": ({"a": (3, 2), "b": (3, 4)}, {}, lambda a, b: sp.concat_cols([a, b])),
    "gather_rows": ({"m": (3, 4)}, {}, _pair_rows),
    "gated_mix": (
        {"a": (3, 4), "b": (3, 4), "r": (3, 4)}, {"g": (8,)},
        lambda a, b, r, g: ng.gated_mix([a, b, a], r, g)[0]),
    # two slots side by side in one message stack, as a two-head function returns them
    "gated_mix_two_heads": (
        {"ab": (3, 8), "c": (3, 4), "r": (3, 4)}, {"g": (8,)},
        lambda ab, c, r, g: ng.gated_mix([ab, c], r, g)[0]),
    "residual_layer_norm": (
        {"x": (3, 6), "m": (3, 6)}, {"s": (6,), "b": (6,)},
        lambda x, m, s, b: ng.residual_layer_norm(x, m, s, b)),
    "pair_logits": ({"h": (4, 3)}, {"w": (6, 2), "b": (2,)},
                    lambda h, w, b: hd.pair_logits(h, w, b)),
    # a single predicate with 9 rows: numpy sums the triangle's rows pairwise
    "pair_logits_one_predicate": ({"h": (9, 3)}, {"w": (6, 1), "b": (1,)},
                                  lambda h, w, b: hd.pair_logits(h, w, b)),
}

# the attention entries with 1, 2 and 4 heads, over one pair and over permuted pairs
for _heads in (1, 2, 4):
    _suffix = "" if _heads == 1 else f"_{_heads}_heads"
    for _label, _pairs in (("", _ONE_PAIR), ("_permuted_pairs", _PERMUTED_PAIRS)):
        STACKED[f"nonlocal_attention{_label}{_suffix}"] = (
            {"q": (3, 4), "kv": _pairs},
            {f"{part}{h}": (4, 4) for part in ("wq", "wk", "wv") for h in range(_heads)},
            _nonlocal_messages(_heads))
        STACKED[f"additive_attention{_label}{_suffix}"] = (
            {"r": (3, 4), "n": _pairs},
            {**{f"w{h}": (4, 4) for h in range(_heads)}, **{f"a{h}": (8,) for h in range(_heads)}},
            _additive_messages(_heads))


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_primitive_matches_its_slices_bit_for_bit(name):
    # One call on a (B, ...) stack against B calls on its slices, recorded
    # in slice order: outputs, slice gradients and the shared inputs'
    # folded gradients must have the same bytes.  B = 9 exceeds the 8
    # elements from which numpy's own sums go pairwise.  A primitive with
    # paired inputs takes stacks only: slice b is called as a stack of
    # one, with the single pair ([0], its row of its pair's stack).
    sliced, shared, primitive = STACKED[name]
    rng = np.random.default_rng(37)
    blocks = 9
    paired = [k for k, spec in sliced.items() if isinstance(spec, list)]
    stacks = {k: [rng.uniform(-1, 1, size=(len(slices),) + shape) for slices, shape in spec]
              if k in paired else rng.uniform(-1, 1, size=(blocks,) + spec)
              for k, spec in sliced.items()}
    params = {k: ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
              for k, shape in shared.items()}
    # (pair, row of its stack) of every slice b of each paired input
    rows = {k: {b: (i, row) for i, (slices, _) in enumerate(sliced[k])
                for row, b in enumerate(slices)} for k in paired}

    with ng.Tape() as tape:
        xs = {k: ng.Tensor(v, requires_grad=True) for k, v in stacks.items() if k not in paired}
        xs.update({f"{k}.{i}": ng.Tensor(v, requires_grad=True)
                   for k in paired for i, v in enumerate(stacks[k])})
        args = {k: sp.neighbors([(slices, xs[f"{k}.{i}"])
                                 for i, (slices, _) in enumerate(sliced[k])])
                if k in paired else xs[k] for k in sliced}
        out = primitive(**args, **params)
        loss = sp.sum_all(sp.relu(out))
    grads = ng.grad(tape, loss, {**xs, **params})

    def slice_of(k, b):
        if k in paired:
            i, row = rows[k][b]
            return stacks[k][i][row:row + 1]
        return stacks[k][b:b + 1] if paired else stacks[k][b]

    with ng.Tape() as tape:
        per_slice = [{k: ng.Tensor(slice_of(k, b), requires_grad=True) for k in sliced}
                     for b in range(blocks)]
        outs, total = [], None
        for xs_b in per_slice:
            args = {k: sp.neighbors([([0], t)]) if k in paired else t for k, t in xs_b.items()}
            outs.append(primitive(**args, **params))
            term = sp.sum_all(sp.relu(outs[-1]))
            total = term if total is None else ng.add(total, term)
    slice_inputs = {f"{k}{b}": t for b, xs_b in enumerate(per_slice) for k, t in xs_b.items()}
    slice_grads = ng.grad(tape, total, {**slice_inputs, **params})

    def stacked_grad(k, b):
        if k in paired:
            i, row = rows[k][b]
            return grads[f"{k}.{i}"].data[row]
        return grads[k].data[b]

    for b in range(blocks):
        assert out.data[b].tobytes() == outs[b].data.tobytes()
        for k in sliced:
            assert stacked_grad(k, b).tobytes() == slice_grads[f"{k}{b}"].data.tobytes(), (k, b)
    for k in params:
        assert grads[k].data.tobytes() == slice_grads[k].data.tobytes(), k
        assert np.any(grads[k].data != 0.0)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("entry", ["nonlocal_attention", "additive_attention"])
def test_attention_pieces_do_not_depend_on_batch_mates(entry, heads):
    # Rule (c) piece by piece: given the same cotangent rows, a slice's
    # outputs, attention and backward pieces (its rows of the receiver and
    # neighbor pieces, its slice of each weight's per-slice piece) are the
    # same in a stack of 9 as alone, over one pair of a basic slice and over
    # index-array pairs of different neighbor counts.
    rng = np.random.default_rng(59)
    d, n, count = 4, 3, 9
    parts = ("wq", "wk", "wv") if entry == "nonlocal_attention" else ("w", "a")
    weights = [[ng.Tensor(rng.uniform(-1, 1, size=(2 * d,) if part == "a" else (d, d)),
                          requires_grad=True) for _ in range(heads)] for part in parts]

    def run(query, kv, g):
        with ng.Tape() as tape:
            out, attention = getattr(ng, entry)(query, kv, *weights)
        [(_, inputs, backward)] = tape._entries
        return out.data, [a.data for a in attention], inputs, list(backward(g))

    def tensor(values):
        return ng.Tensor(values, requires_grad=True)

    for pairs in (_ONE_PAIR, _PERMUTED_PAIRS):
        query = tensor(rng.uniform(-1, 1, size=(count, n, d)))
        stacks = [tensor(rng.uniform(-1, 1, size=(len(slices),) + shape))
                  for slices, shape in pairs]
        g = rng.normal(size=(count, n, heads * d))
        out, attention, inputs, pieces = run(query, sp.neighbors([(slices, t) for (slices, _), t in
                                                                  zip(pairs, stacks)]), g)
        assert out.shape == (count, n, heads * d) and len(pieces) == len(inputs)
        for i, (slices, (s, _)) in enumerate(pairs):
            assert attention[i].shape == (len(slices), heads * n, s)
            for row, b in enumerate(slices):
                kv = tensor(stacks[i].data[row:row + 1])
                alone, alone_attention, alone_inputs, alone_pieces = run(
                    tensor(query.data[b:b + 1]), sp.neighbors([([0], kv)]), g[b:b + 1])
                assert alone[0].tobytes() == out[b].tobytes()
                assert alone_attention[0][0].tobytes() == attention[i][row].tobytes()
                # every input but the other pairs' neighbors, in the order alone lists them
                kept = [(t, piece) for t, piece in zip(inputs, pieces)
                        if t is stacks[i] or all(t is not other for other in stacks)]
                assert len(kept) == len(alone_pieces)
                for (t, piece), mine in zip(kept, alone_pieces):
                    want = piece[row] if t is stacks[i] else piece[b]
                    assert mine[0].tobytes() == want.tobytes(), (i, b)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("entry", ["nonlocal_attention", "additive_attention", "gated_mix"])
def test_fused_entries_leave_their_inputs_and_cotangent_unchanged(entry, heads):
    # The entries scale, relu, softmax and mask in arrays they made
    # themselves.  The forward must leave every input's bytes as they were
    # and the backward the g it is handed, which grad() may also hold as
    # another input's piece; the inputs are made writable, so a write would
    # go through rather than raise.
    rng = np.random.default_rng(71)
    d, count = 4, 9

    def tensor(*shape):
        t = ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
        t.data.flags.writeable = True
        return t

    receivers = tensor(count, 3, d)
    if entry == "gated_mix":
        messages = [tensor(count, 3, heads * d), tensor(count, 3, d)]
        args = (messages, receivers, tensor(2 * d))
        inputs = [*messages, *args[1:]]
    else:
        parts = ("wq", "wk", "wv") if entry == "nonlocal_attention" else ("w", "a")
        weights = [[tensor(*((2 * d,) if part == "a" else (d, d))) for _ in range(heads)]
                   for part in parts]
        pairs = [(slices, tensor(len(slices), *shape)) for slices, shape in _PERMUTED_PAIRS]
        args = (receivers, sp.neighbors(pairs), *weights)
        inputs = [receivers, *(t for _, t in pairs), *(w for ws in weights for w in ws)]
    before = [t.data.tobytes() for t in inputs]
    with ng.Tape() as tape:
        getattr(ng, entry)(*args)
    assert [t.data.tobytes() for t in inputs] == before
    [(out, _, backward)] = tape._entries
    g = rng.normal(size=out.shape)
    g_before = g.tobytes()
    pieces = list(backward(g))
    assert g.tobytes() == g_before
    assert [t.data.tobytes() for t in inputs] == before
    assert len(pieces) == len(inputs) and all(p is not g for p in pieces)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("entry", ["additive_attention", "gated_mix"])
def test_untaped_entries_build_no_relu_mask(entry, heads, monkeypatch):
    # Only a backward reads the score masks.  With the mask helper raising,
    # a call no tape records (no tape, or no input needing grad) still
    # returns the taped call's bytes, and a taped call still builds the mask.
    def call(requires_grad):
        rng = np.random.default_rng(73)

        def tensor(*shape):
            return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=requires_grad)

        receivers = tensor(9, 3, 4)
        if entry == "gated_mix":
            out, weights = ng.gated_mix([tensor(9, 3, 4 * heads), tensor(9, 3, 4)], receivers,
                                        tensor(8))
            return [out.data.tobytes(), weights.data.tobytes()]
        neighbors = sp.neighbors([(slices, tensor(len(slices), *shape))
                                  for slices, shape in _PERMUTED_PAIRS])
        out, attention = ng.additive_attention(receivers, neighbors,
                                               [tensor(4, 4) for _ in range(heads)],
                                               [tensor(8) for _ in range(heads)])
        return [out.data.tobytes()] + [a.data.tobytes() for a in attention]

    with ng.Tape() as tape:
        want = call(True)
    assert len(tape) == 1

    def no_mask(scores):
        raise AssertionError("built a relu mask")

    monkeypatch.setattr(ng, "_relu_mask", no_mask)
    assert call(True) == want
    with ng.Tape() as tape:
        assert call(False) == want
    assert len(tape) == 0
    with pytest.raises(AssertionError, match="built a relu mask"), ng.Tape():
        call(True)


@pytest.mark.parametrize("stacked", [False, True])
def test_gather_rows_scatters_like_add_at(stacked):
    # the backward adds duplicate rows in index order, starting from zero,
    # exactly as np.add.at does; -0.0 pieces and unused rows included
    rng = np.random.default_rng(41)
    shape = (4, 6, 3) if stacked else (6, 3)
    m = ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
    rows = m.data.size // 3
    index = rng.integers(0, rows - 1, size=(5, 7) if stacked else 40)
    with ng.Tape() as tape:
        ng.gather_rows([m], sp.gather([m], index))
    [(_, _, backward)] = tape._entries
    g = rng.normal(size=index.shape + (3,))
    g[..., ::4, :] = -0.0
    (dm,) = backward(g)
    want = np.zeros((rows, 3))
    np.add.at(want, index.reshape(-1), g.reshape(-1, 3))
    assert dm.shape == shape
    assert dm.tobytes() == want.reshape(shape).tobytes()


def test_gather_rows_reads_several_sources_end_to_end():
    a = ng.Tensor(np.arange(12.0).reshape(2, 2, 3), requires_grad=True)
    b = ng.Tensor(np.arange(12.0, 18.0).reshape(2, 3), requires_grad=True)
    c = ng.Tensor(np.zeros((1, 3)), requires_grad=True)
    with ng.Tape() as tape:
        out = ng.gather_rows([a, b, c], sp.gather([a, b, c], [[5, 0], [3, 4]]))
        loss = sp.sum_all(out)
    assert out.data.tolist() == [[[15.0, 16.0, 17.0], [0.0, 1.0, 2.0]],
                                 [[9.0, 10.0, 11.0], [12.0, 13.0, 14.0]]]
    grads = ng.grad(tape, loss, {"a": a, "b": b, "c": c})
    assert grads["a"].data.reshape(-1, 3)[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]
    assert grads["b"].data[:, 0].tolist() == [1.0, 1.0]
    assert not grads["c"].data.any()


def test_clip_losses_match_their_chains_bit_for_bit():
    # heads' clip losses against the per-keyframe chains they replace:
    # clip 0 spans slices of both stacks, clip 1 a single slice
    rng = np.random.default_rng(43)
    clips = [[(0, 1), (1, 0), (0, 0)], [(1, 1)]]
    logits = [ng.Tensor(rng.uniform(-3, 3, size=(2, 3, 4)), requires_grad=True),
              ng.Tensor(rng.uniform(-3, 3, size=(2, 3, 4)), requires_grad=True)]
    labels = [(rng.uniform(size=(2, 3, 4)) < 0.5).astype(float) for _ in range(2)]
    relations = [ng.Tensor(rng.uniform(-3, 3, size=(2, 3, 2)), requires_grad=True), None]
    rel_labels = [(rng.uniform(size=(2, 3, 2)) < 0.5).astype(float), None]
    onehots = [np.eye(4)[rng.integers(0, 4, size=(2, 3))] for _ in range(2)]
    params = {"l0": logits[0], "l1": logits[1], "r0": relations[0]}

    def chained(per_keyframe, clip_total):
        with ng.Tape() as tape:
            total = None
            for clip in clips:
                term = clip_total(clip, [per_keyframe(k, j) for k, j in clip])
                total = term if total is None else ng.add(total, term)
        return total, ng.grad(tape, total, params)

    def fused(build):
        with ng.Tape() as tape:
            total = build()
        return total, ng.grad(tape, total, params)

    def rows(k, j):
        return ng.gather_rows([logits[k]], sp.gather([logits[k]], j * 3 + np.arange(3)))

    def bce_clip(clip, parts):
        targets = np.concatenate([labels[k][j] for k, j in clip])
        return sp.bce_with_logits_mean(ng.concat_rows(parts), ng.Tensor(targets))

    def sg_keyframe(k, j):
        obj = sp.scale(sp.softmax_xent_mean(rows(k, j), ng.Tensor(onehots[k][j])), 0.5)
        if relations[k] is None:
            return obj
        rel = ng.gather_rows([relations[k]], sp.gather([relations[k]], j * 3 + np.arange(3)))
        return ng.add(obj, sp.bce_with_logits_mean(rel, ng.Tensor(rel_labels[k][j])))

    def sg_clip(clip, parts):
        total = parts[0]
        for part in parts[1:]:
            total = ng.add(total, part)
        return sp.scale(total, 1.0 / len(parts))

    for want, got in [
        (chained(rows, bce_clip), fused(lambda: hd.action_loss(logits, labels, clips))),
        (chained(sg_keyframe, sg_clip), fused(lambda: hd.sg_loss(
            logits, onehots, relations, rel_labels, clips, 0.5))),
    ]:
        assert got[0].data.tobytes() == want[0].data.tobytes()
        for name in params:
            assert got[1][name].data.tobytes() == want[1][name].data.tobytes(), name
