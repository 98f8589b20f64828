import numpy as np
import pytest

from stgraph import numgrad as ng
from stgraph.errors import NumericError, ShapeError


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
    out = ng.softmax(ng.Tensor([0.0, np.log(3.0)]))
    assert np.max(np.abs(out.data - [0.25, 0.75])) <= 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.uniform(-50, 50, size=(40, 9))
    y = ng.softmax(ng.Tensor(x)).data
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) <= 1e-12
    assert y.min() >= 0.0


def test_softmax_extreme_logits_stay_finite():
    y = ng.softmax(ng.Tensor([[1000.0, 0.0, -1000.0]])).data
    assert np.all(np.isfinite(y))
    assert abs(y.sum() - 1.0) <= 1e-12


def test_layer_norm_frozen_example():
    x = ng.Tensor([1.0, -1.0])
    one = ng.Tensor([1.0, 1.0])
    zero = ng.Tensor([0.0, 0.0])
    out = ng.layer_norm(x, one, zero, eps=0.0)
    assert np.max(np.abs(out.data - [1.0, -1.0])) <= 1e-12


def test_layer_norm_matches_hand_formula():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=(4, 6))
    scale = rng.uniform(0.5, 1.5, size=6)
    shift = rng.uniform(-0.5, 0.5, size=6)
    eps = 1e-5
    got = ng.layer_norm(ng.Tensor(x), ng.Tensor(scale), ng.Tensor(shift), eps=eps).data
    for i in range(4):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        want = scale * (x[i] - mu) / np.sqrt(var + eps) + shift
        assert np.max(np.abs(got[i] - want)) <= 1e-12


def test_layer_norm_constant_row_finite():
    out = ng.layer_norm(ng.Tensor([2.0, 2.0, 2.0]), ng.Tensor(np.ones(3)), ng.Tensor(np.zeros(3)))
    assert np.all(np.isfinite(out.data))


def test_relu_gradient_at_zero_is_zero():
    x = ng.Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        loss = ng.sum_all(ng.relu(x))
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
        y = ng.relu(x)
    with pytest.raises(ShapeError):
        ng.grad(tape, y, {"x": x})


def test_untouched_param_gets_exact_zeros():
    x = ng.Tensor([1.0, 2.0], requires_grad=True, name="x")
    unused = ng.Tensor(np.ones((3, 2)), requires_grad=True, name="unused")
    with ng.Tape() as tape:
        loss = ng.sum_all(ng.relu(x))
    grads = ng.grad(tape, loss, {"x": x, "unused": unused})
    assert grads["unused"].data.shape == (3, 2)
    assert np.all(grads["unused"].data == 0.0)


def test_grad_accumulates_over_reuse():
    x = ng.Tensor([1.0, 2.0], requires_grad=True)
    with ng.Tape() as tape:
        y = ng.add(x, x)
        loss = ng.sum_all(y)
    grads = ng.grad(tape, loss, {"x": x})
    assert grads["x"].data.tolist() == [2.0, 2.0]


def test_ops_outside_tape_record_nothing():
    x = ng.Tensor([1.0, -2.0], requires_grad=True)
    y = ng.relu(x)
    assert y.requires_grad is False


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
        "add": ({"a": t(3, 4), "b": t(3, 4)}, lambda p: ng.sum_all(ng.relu(ng.add(p["a"], p["b"])))),
        "add_rowvec": ({"m": t(3, 4), "v": t(4)}, lambda p: ng.sum_all(ng.relu(ng.add_rowvec(p["m"], p["v"])))),
        "scale": ({"x": t(5)}, lambda p: ng.sum_all(ng.relu(ng.scale(p["x"], -1.7)))),
        "matmul_mm": ({"a": t(3, 4), "b": t(4, 2)}, lambda p: ng.sum_all(ng.relu(ng.matmul(p["a"], p["b"])))),
        "matmul_vm": ({"a": t(4), "b": t(4, 3)}, lambda p: ng.sum_all(ng.relu(ng.matmul(p["a"], p["b"])))),
        "matmul_mv": ({"a": t(3, 4), "b": t(4)}, lambda p: ng.sum_all(ng.relu(ng.matmul(p["a"], p["b"])))),
        "transpose": ({"a": t(3, 4), "b": t(3, 2)}, lambda p: ng.sum_all(ng.matmul(ng.transpose(p["a"]), p["b"]))),
        "relu": ({"x": t(4, 4)}, lambda p: ng.sum_all(ng.relu(p["x"]))),
        "sigmoid": ({"x": t(6)}, lambda p: ng.sum_all(ng.sigmoid(p["x"]))),
        "softmax_1d": ({"x": t(5), "w": t(5)}, lambda p: ng.sum_all(ng.relu(ng.add(ng.softmax(p["x"]), p["w"])))),
        "softmax_2d": ({"x": t(3, 5)}, lambda p: ng.sum_all(ng.relu(ng.add(ng.softmax(p["x"]), p["x"])))),
        "layer_norm": (
            {"x": t(3, 6), "s": t(6), "b": t(6)},
            lambda p: ng.sum_all(ng.relu(ng.layer_norm(p["x"], p["s"], p["b"]))),
        ),
        "concat_rows": ({"a": t(2, 3), "b": t(4, 3)}, lambda p: ng.sum_all(ng.relu(ng.concat_rows([p["a"], p["b"]])))),
        "concat_cols": ({"a": t(3, 2), "b": t(3, 4)}, lambda p: ng.sum_all(ng.relu(ng.concat_cols([p["a"], p["b"]])))),
        "matmul_slice_one": (
            {"v": t(6), "m": t(3, 2)},
            lambda p: ng.sum_all(ng.relu(ng.matmul_slice([p["m"]], p["v"], 2, 4))),
        ),
        "matmul_slice_many": (
            {"v": t(6), "a": t(3, 4), "b": t(3, 4)},
            lambda p: ng.sum_all(ng.softmax(ng.matmul_slice([p["a"], p["b"], p["a"]], p["v"], 2, 6))),
        ),
        "add_broadcast_outer": (
            {"c": t(3, 1), "r": t(1, 4)},
            lambda p: ng.sum_all(ng.softmax(ng.add_broadcast(p["c"], p["r"]))),
        ),
        "add_broadcast_column": (
            {"c": t(3, 1), "m": t(3, 4)},
            lambda p: ng.sum_all(ng.relu(ng.add_broadcast(p["c"], p["m"]))),
        ),
        "mix_rows": (
            {"w": t(3, 2), "a": t(3, 4), "b": t(3, 4)},
            lambda p: ng.sum_all(ng.relu(ng.mix_rows(p["w"], [p["a"], p["b"]]))),
        ),
        "gather_rows": ({"m": t(4, 3)}, lambda p: ng.sum_all(ng.relu(ng.gather_rows(p["m"], [0, 2, 2, 1])))),
        "mean_all": ({"x": t(3, 3)}, lambda p: ng.mean_all(ng.relu(p["x"]))),
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


def test_slice_broadcast_mix_reject_bad_shapes():
    v, m = ng.Tensor(np.ones(4)), ng.Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ng.matmul_slice([m], v, 3, 5)
    with pytest.raises(ShapeError):
        ng.matmul_slice([m], m, 0, 2)
    with pytest.raises(ShapeError):
        ng.matmul_slice([m], v, 0, 3)
    with pytest.raises(ShapeError):
        ng.matmul_slice([m, ng.Tensor(np.ones((2, 2)))], v, 0, 2)
    with pytest.raises(ShapeError):
        ng.add_broadcast(m, ng.Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        ng.mix_rows(ng.Tensor(np.ones((3, 2))), [m])
    with pytest.raises(ShapeError):
        ng.mix_rows(ng.Tensor(np.ones((3, 2))), [m, ng.Tensor(np.ones((2, 2)))])


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
        att = ng.softmax(ng.scale(ng.matmul(q, ng.transpose(k)), 0.5))
        msg = ng.matmul(att, v)
        out = ng.layer_norm(ng.add(p["h"], msg), p["ln_s"], p["ln_b"])
        return ng.mean_all(out)

    _fd_check(build, params)


def test_determinism_bit_identical():
    rng = np.random.default_rng(29)
    x = rng.uniform(-1, 1, size=(6, 6))
    a = ng.softmax(ng.Tensor(x)).data
    b = ng.softmax(ng.Tensor(x)).data
    assert a.tobytes() == b.tobytes()
