import math

import numpy as np
import pytest

from stgraph import numgrad as ng
from stgraph.errors import NumericError, ShapeError

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
    x = ng.Tensor([1.0, -1.0])
    one = ng.Tensor([1.0, 1.0])
    zero = ng.Tensor([0.0, 0.0])
    out = sp.layer_norm(x, one, zero, eps=0.0)
    assert np.max(np.abs(out.data - [1.0, -1.0])) <= 1e-12


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
    out = sp.layer_norm(ng.Tensor([2.0, 2.0, 2.0]), ng.Tensor(np.ones(3)), ng.Tensor(np.zeros(3)))
    assert np.all(np.isfinite(out.data))


def test_relu_gradient_at_zero_is_zero():
    x = ng.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        loss = sp.sum_all(sp.relu(x))
    grads = ng.grad(tape, loss, {"x": x})
    assert grads["x"].data.tolist() == [0.0, 0.0, 1.0]


def test_non_finite_input_raises():
    with pytest.raises(NumericError):
        ng.Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        ng.Tensor([[np.nan]])


def test_tensor_data_is_read_only():
    t = ng.Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


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


def test_checked_layers_and_grad_flush_subnormals():
    if ng._FENV is None:
        pytest.skip("flushing subnormals needs x86-64 glibc")
    small = np.array([1e-300])
    assert (small * 1e-10)[0] == 1e-310
    with ng.checked("layer"):
        assert (small * 1e-10)[0] == 0.0
    assert (small * 1e-10)[0] == 1e-310  # the thread's mode is restored
    # the weight's cotangent x^T (1e-10) is subnormal
    x = ng.Tensor([[1e-300]])
    w = ng.Tensor([[1.0]], requires_grad=True)
    with ng.Tape() as tape:
        loss = sp.sum_all(ng.scale(ng.matmul(x, w), 1e-10))
    assert ng.grad(tape, loss, {"w": w})["w"].data[0, 0] == 0.0


def test_bce_with_logits_hand_value():
    # logits x, targets z: max(x,0) - x z + log(1 + exp(-|x|)), averaged
    x = np.array([[0.7, -1.3], [2.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    want = np.mean(np.maximum(x, 0) - x * z + np.log1p(np.exp(-np.abs(x))))
    got = ng.bce_with_logits_mean(ng.Tensor(x), ng.Tensor(z)).item()
    assert abs(got - want) <= 1e-15


def test_bce_gradient_is_sigmoid_minus_target_over_count():
    rng = np.random.default_rng(13)
    x = ng.Tensor(rng.uniform(-3, 3, size=(4, 5)), requires_grad=True)
    z = ng.Tensor((rng.uniform(size=(4, 5)) > 0.5).astype(float))
    with ng.Tape() as tape:
        loss = ng.bce_with_logits_mean(x, z)
    grads = ng.grad(tape, loss, {"x": x})
    want = (1.0 / (1.0 + np.exp(-x.data)) - z.data) / x.data.size
    assert np.max(np.abs(grads["x"].data - want)) <= 1e-12


def test_softmax_xent_hand_value_and_gradient():
    x = ng.Tensor([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]], requires_grad=True)
    y = ng.Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with ng.Tape() as tape:
        loss = ng.softmax_xent_mean(x, y)
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


def test_finite_differences_per_primitive():
    rng = np.random.default_rng(17)

    def t(*shape):
        return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    cases = {
        "add": ({"a": t(3, 4), "b": t(3, 4)}, lambda p: sp.sum_all(sp.relu(ng.add(p["a"], p["b"])))),
        "add_rowvec": ({"m": t(3, 4), "v": t(4)}, lambda p: sp.sum_all(sp.relu(ng.add_rowvec(p["m"], p["v"])))),
        "scale": ({"x": t(5)}, lambda p: sp.sum_all(sp.relu(ng.scale(p["x"], -1.7)))),
        "matmul_mm": ({"a": t(3, 4), "b": t(4, 2)}, lambda p: sp.sum_all(sp.relu(ng.matmul(p["a"], p["b"])))),
        "matmul_vm": ({"a": t(4), "b": t(4, 3)}, lambda p: sp.sum_all(sp.relu(ng.matmul(p["a"], p["b"])))),
        "matmul_mv": ({"a": t(3, 4), "b": t(4)}, lambda p: sp.sum_all(sp.relu(ng.matmul(p["a"], p["b"])))),
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
        "concat_cols": ({"a": t(3, 2), "b": t(3, 4)}, lambda p: sp.sum_all(sp.relu(ng.concat_cols([p["a"], p["b"]])))),
        "nonlocal_attention": (
            {"q": t(3, 4), "kv": t(5, 4), "wq": t(4, 4), "wk": t(4, 4), "wv": t(4, 4)},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(p["q"], p["kv"], p["wq"], p["wk"], p["wv"])[0])),
        ),
        "nonlocal_attention_kv_is_query": (
            {"h": t(3, 4), "wq": t(4, 4), "wk": t(4, 4), "wv": t(4, 4)},
            lambda p: sp.sum_all(sp.relu(ng.nonlocal_attention(p["h"], p["h"], p["wq"], p["wk"], p["wv"])[0])),
        ),
        "additive_attention": (
            {"r": t(3, 4), "n": t(5, 4), "w": t(4, 4), "a": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.additive_attention(p["r"], p["n"], p["w"], p["a"])[0])),
        ),
        "additive_attention_one_receiver_one_neighbor": (
            {"r": t(1, 4), "n": t(1, 4), "w": t(4, 4), "a": t(8)},
            lambda p: sp.sum_all(ng.additive_attention(p["r"], p["n"], p["w"], p["a"])[0]),
        ),
        "gated_mix": (
            {"a": t(3, 4), "b": t(3, 4), "r": t(3, 4), "g": t(8)},
            lambda p: sp.sum_all(sp.relu(ng.gated_mix([p["a"], p["b"], p["a"]], p["r"], p["g"])[0])),
        ),
        "residual_layer_norm_1d": (
            {"x": t(6), "m": t(6), "s": t(6), "b": t(6)},
            lambda p: sp.sum_all(sp.relu(ng.residual_layer_norm(p["x"], p["m"], p["s"], p["b"]))),
        ),
        "residual_layer_norm_2d": (
            {"x": t(3, 6), "m": t(3, 6), "s": t(6), "b": t(6)},
            lambda p: sp.sum_all(sp.relu(ng.residual_layer_norm(p["x"], p["m"], p["s"], p["b"]))),
        ),
        "gather_rows": ({"m": t(4, 3)}, lambda p: sp.sum_all(sp.relu(ng.gather_rows(p["m"], [0, 2, 2, 1])))),
        "mean_all": ({"x": t(3, 3)}, lambda p: sp.mean_all(sp.relu(p["x"]))),
        "bce": (
            {"x": t(3, 4)},
            lambda p: ng.bce_with_logits_mean(p["x"], ng.Tensor((np.arange(12).reshape(3, 4) % 2).astype(float))),
        ),
        "softmax_xent": (
            {"x": t(3, 4)},
            lambda p: ng.softmax_xent_mean(p["x"], ng.Tensor(np.eye(4)[[0, 2, 3]])),
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
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(m, ng.Tensor(np.ones((4, 3))), w, w, w)
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(m, m, w, ng.Tensor(np.ones((2, 3))), w)
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(v4, m, w, w, w)
    with pytest.raises(ShapeError):
        ng.additive_attention(m, m, w, v5)
    with pytest.raises(ShapeError):
        ng.additive_attention(m, m, w, ng.Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        ng.additive_attention(m, ng.Tensor(np.ones((3, 3))), w, v4)
    with pytest.raises(ShapeError):
        ng.gated_mix([m, ng.Tensor(np.ones((2, 2)))], m, v4)
    with pytest.raises(ShapeError):
        ng.gated_mix([m, m], m, v5)
    with pytest.raises(ShapeError):
        ng.gated_mix([], m, v4)
    with pytest.raises(ShapeError):
        ng.residual_layer_norm(m, ng.Tensor(np.ones((2, 2))), ng.Tensor(np.ones(2)), ng.Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        ng.residual_layer_norm(m, m, ng.Tensor(np.ones(3)), ng.Tensor(np.zeros(3)))


def _composed_nonlocal(query, kv, wq, wk, wv):
    q, k, v = ng.matmul(query, wq), ng.matmul(kv, wk), ng.matmul(kv, wv)
    attention = sp.softmax(ng.scale(ng.matmul(q, sp.transpose(k)), 1.0 / math.sqrt(wq.shape[1])))
    return ng.matmul(attention, v), attention


def _composed_residual(state, message, scale, shift, eps):
    return sp.layer_norm(ng.add(state, message), scale, shift, eps)


@pytest.mark.parametrize("with_context", [False, True])
def test_fused_blocks_match_their_composition_bit_for_bit(with_context):
    # two heads attend over one shared kv, so the fused entries must hand
    # kv (and, without context, the query states too) their gradient
    # pieces in the order the separate entries did
    rng = np.random.default_rng(31)

    def t(*shape):
        return ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    p = {"h": t(3, 4), "ctx": t(2, 4), "s": t(4), "b": t(4), "row": t(4), "row_msg": t(4)}
    for head in range(2):
        for part in ("wq", "wk", "wv"):
            p[f"{part}{head}"] = t(4, 4)

    def run(attend, residual):
        with ng.Tape() as tape:
            kv = ng.concat_rows([p["h"], p["ctx"]]) if with_context else p["h"]
            heads = [attend(p["h"], kv, p[f"wq{k}"], p[f"wk{k}"], p[f"wv{k}"]) for k in range(2)]
            states = residual(p["h"], ng.add(heads[0][0], heads[1][0]), p["s"], p["b"], 1e-5)
            row = residual(p["row"], p["row_msg"], p["s"], p["b"], 1e-5)
            loss = ng.add(sp.sum_all(sp.relu(states)), sp.sum_all(sp.relu(row)))
        outputs = [states, row, loss] + [att for _, att in heads]
        return [x.data for x in outputs], ng.grad(tape, loss, p)

    fused_outputs, fused_grads = run(ng.nonlocal_attention, ng.residual_layer_norm)
    outputs, grads = run(_composed_nonlocal, _composed_residual)
    for got, want in zip(fused_outputs, outputs):
        assert got.tobytes() == want.tobytes()
    for name in p:
        assert fused_grads[name].data.tobytes() == grads[name].data.tobytes(), name
    assert np.all(fused_grads["h"].data != 0.0)


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
        att = sp.softmax(ng.scale(ng.matmul(q, sp.transpose(k)), 0.5))
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
    return ng.gather_rows(m, first + [2, 0, 0, 1, 2, 2])


# name: (shapes of the per-slice inputs, shapes of the shared inputs, primitive)
STACKED = {
    "matmul": ({"x": (3, 4)}, {"w": (4, 2)}, lambda x, w: ng.matmul(x, w)),
    "matmul_one_element_pieces": ({"x": (2, 1)}, {"w": (1, 1)}, lambda x, w: ng.matmul(x, w)),
    "add_rowvec": ({"x": (3, 4)}, {"v": (4,)}, lambda x, v: ng.add_rowvec(x, v)),
    "add_rowvec_one_class": ({"x": (3, 1)}, {"v": (1,)}, lambda x, v: ng.add_rowvec(x, v)),
    "concat_rows": ({"a": (2, 4), "b": (3, 4)}, {}, lambda a, b: ng.concat_rows([a, b])),
    "concat_cols": ({"a": (3, 2), "b": (3, 4)}, {}, lambda a, b: ng.concat_cols([a, b])),
    "gather_rows": ({"m": (3, 4)}, {}, _pair_rows),
    "nonlocal_attention": (
        {"q": (3, 4), "kv": (5, 4)}, {"wq": (4, 4), "wk": (4, 4), "wv": (4, 4)},
        lambda q, kv, wq, wk, wv: ng.nonlocal_attention(q, kv, wq, wk, wv)[0]),
    "additive_attention": (
        {"r": (3, 4), "n": (5, 4)}, {"w": (4, 4), "a": (8,)},
        lambda r, n, w, a: ng.additive_attention(r, n, w, a)[0]),
    "gated_mix": (
        {"a": (3, 4), "b": (3, 4), "r": (3, 4)}, {"g": (8,)},
        lambda a, b, r, g: ng.gated_mix([a, b, a], r, g)[0]),
    "residual_layer_norm": (
        {"x": (3, 6), "m": (3, 6)}, {"s": (6,), "b": (6,)},
        lambda x, m, s, b: ng.residual_layer_norm(x, m, s, b)),
}


@pytest.mark.parametrize("name", sorted(STACKED))
def test_stacked_primitive_matches_its_slices_bit_for_bit(name):
    # One call on a (B, ...) stack against B calls on its slices, recorded
    # in slice order: outputs, slice gradients and the shared inputs'
    # folded gradients must have the same bytes.  B = 9 exceeds the 8
    # elements from which numpy's own sums go pairwise.
    sliced, shared, primitive = STACKED[name]
    rng = np.random.default_rng(37)
    blocks = 9
    stacks = {k: rng.uniform(-1, 1, size=(blocks,) + shape) for k, shape in sliced.items()}
    params = {k: ng.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
              for k, shape in shared.items()}

    with ng.Tape() as tape:
        xs = {k: ng.Tensor(v, requires_grad=True) for k, v in stacks.items()}
        out = primitive(**xs, **params)
        loss = sp.sum_all(sp.relu(out))
    grads = ng.grad(tape, loss, {**xs, **params})

    with ng.Tape() as tape:
        per_slice = [{k: ng.Tensor(v[b], requires_grad=True) for k, v in stacks.items()}
                     for b in range(blocks)]
        outs, total = [], None
        for xs_b in per_slice:
            outs.append(primitive(**xs_b, **params))
            term = sp.sum_all(sp.relu(outs[-1]))
            total = term if total is None else ng.add(total, term)
    slice_inputs = {f"{k}{b}": t for b, xs_b in enumerate(per_slice) for k, t in xs_b.items()}
    slice_grads = ng.grad(tape, total, {**slice_inputs, **params})

    for b in range(blocks):
        assert out.data[b].tobytes() == outs[b].data.tobytes()
        for k in stacks:
            assert grads[k].data[b].tobytes() == slice_grads[f"{k}{b}"].data.tobytes(), (k, b)
    for k in params:
        assert grads[k].data.tobytes() == slice_grads[k].data.tobytes(), k
        assert np.any(grads[k].data != 0.0)


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
        ng.gather_rows(m, index)
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
        out = ng.gather_rows([a, b, c], [[5, 0], [3, 4]])
        loss = sp.sum_all(out)
    assert out.data.tolist() == [[[15.0, 16.0, 17.0], [0.0, 1.0, 2.0]],
                                 [[9.0, 10.0, 11.0], [12.0, 13.0, 14.0]]]
    grads = ng.grad(tape, loss, {"a": a, "b": b, "c": c})
    assert grads["a"].data.reshape(-1, 3)[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]
    assert grads["b"].data[:, 0].tolist() == [1.0, 1.0]
    assert not grads["c"].data.any()


def test_clip_losses_match_their_chains_bit_for_bit():
    # the fused clip losses against the per-keyframe chains they replace:
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
        return ng.gather_rows(logits[k], j * 3 + np.arange(3))

    def bce_clip(clip, parts):
        targets = np.concatenate([labels[k][j] for k, j in clip])
        return ng.bce_with_logits_mean(ng.concat_rows(parts), ng.Tensor(targets))

    def sg_keyframe(k, j):
        obj = ng.scale(ng.softmax_xent_mean(rows(k, j), ng.Tensor(onehots[k][j])), 0.5)
        if relations[k] is None:
            return obj
        rel = ng.gather_rows(relations[k], j * 3 + np.arange(3))
        return ng.add(obj, ng.bce_with_logits_mean(rel, ng.Tensor(rel_labels[k][j])))

    def sg_clip(clip, parts):
        total = parts[0]
        for part in parts[1:]:
            total = ng.add(total, part)
        return ng.scale(total, 1.0 / len(parts))

    for want, got in [
        (chained(rows, bce_clip), fused(lambda: ng.clip_bce_sum(logits, labels, clips))),
        (chained(sg_keyframe, sg_clip), fused(lambda: ng.clip_scene_graph_sum(
            logits, onehots, relations, rel_labels, clips, 0.5))),
    ]:
        assert got[0].data.tobytes() == want[0].data.tobytes()
        for name in params:
            assert got[1][name].data.tobytes() == want[1][name].data.tobytes(), name
