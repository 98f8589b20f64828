import numpy as np
import pytest

from stgraph import heads as hd
from stgraph import numgrad as ng
from stgraph.errors import ShapeError, ValidationError
from stgraph.numgrad import Tensor

import small_primitives as sp


def test_action_readout_hand_values():
    states = Tensor([[1.0, 2.0], [0.0, -1.0]])
    weight = Tensor([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    bias = Tensor([0.5, -0.5, 0.0])
    logits = hd.action_readout(states, weight, bias)
    assert logits.data.tolist() == [[1.5, 1.5, 0.0], [0.5, -1.5, 1.0]]


# one clip of one keyframe: each stack holds a single (n, C) slice
ONE_KEYFRAME = [[(0, 0)]]


def test_action_loss_zero_logits_is_ln2():
    logits = Tensor(np.zeros((1, 1, 4)))
    labels = np.array([[[1.0, 0.0, 1.0, 0.0]]])
    assert abs(hd.action_loss([logits], [labels], ONE_KEYFRAME).item() - np.log(2.0)) <= 1e-12


def test_action_loss_frozen_example():
    # C=2, x=[1,-1], y=[1,0]: both terms equal ln(1 + e^-1)
    loss = hd.action_loss([Tensor([[[1.0, -1.0]]])], [np.array([[[1.0, 0.0]]])], ONE_KEYFRAME)
    assert abs(loss.item() - np.log1p(np.exp(-1.0))) <= 1e-12


def test_action_loss_saturated_correct_logits_vanishes():
    logits = Tensor([[[40.0, -40.0, 35.0]]])
    labels = np.array([[[1.0, 0.0, 1.0]]])
    assert hd.action_loss([logits], [labels], ONE_KEYFRAME).item() < 1e-8


def test_action_loss_gradient_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-4, 4, size=(1, 1, 6)), requires_grad=True)
    y = (rng.uniform(size=(1, 1, 6)) > 0.5).astype(float)
    with ng.Tape() as tape:
        loss = hd.action_loss([x], [y], ONE_KEYFRAME)
    g = ng.grad(tape, loss, {"x": x})["x"].data
    sig = 1.0 / (1.0 + np.exp(-x.data))
    assert np.max(np.abs(g - (sig - y) / 6.0)) <= 1e-12


def test_action_loss_of_a_ragged_clip_averages_all_its_rows():
    # one clip over two blocks: zero logits on a 1-box keyframe and
    # saturated correct logits on a 2-box one.  The clip's loss is the mean
    # over its three rows, ln 2 / 3, not the mean of keyframe means, ln 2 / 2.
    one_box = Tensor(np.zeros((1, 1, 2)), requires_grad=True)
    two_boxes = Tensor([[[40.0, -40.0], [-40.0, 40.0]]], requires_grad=True)
    labels = [np.array([[[1.0, 0.0]]]), np.array([[[1.0, 0.0], [0.0, 1.0]]])]
    with ng.Tape() as tape:
        loss = hd.action_loss([one_box, two_boxes], labels, [[(0, 0), (1, 0)]])
    assert abs(loss.item() - np.log(2.0) / 3.0) <= 1e-12
    grads = ng.grad(tape, loss, {"a": one_box, "b": two_boxes})
    for name, x, y in zip("ab", (one_box, two_boxes), labels):
        want = (1.0 / (1.0 + np.exp(-x.data)) - y) / 6.0
        assert np.max(np.abs(grads[name].data - want)) <= 1e-12


def test_pair_index_order():
    assert hd.pair_index(1) == []
    assert hd.pair_index(3) == [(1, 0), (2, 0), (2, 1)]
    assert len(hd.pair_index(5)) == 10
    for n in range(8):
        assert hd.pair_index(n) == [(i, j) for i in range(1, n) for j in range(i)]
        # the index arrays behind it are built once per n, and read-only
        i, j = hd.pair_arrays(n)
        assert hd.pair_arrays(n)[0] is i and not i.flags.writeable and not j.flags.writeable


def sg_weights(d, n_obj, n_rel, seed=0):
    rng = np.random.default_rng(seed)
    return (
        Tensor(rng.uniform(-1, 1, size=(d, n_obj))),
        Tensor(rng.uniform(-1, 1, size=n_obj)),
        Tensor(rng.uniform(-1, 1, size=(2 * d, n_rel))),
        Tensor(rng.uniform(-1, 1, size=n_rel)),
    )


def test_sg_readout_single_node_has_no_pairs():
    states = Tensor(np.random.default_rng(1).uniform(-1, 1, size=(1, 4)))
    pred = hd.sg_readout(states, *sg_weights(4, 5, 3))
    assert pred.relation_logits is None
    assert pred.object_logits.shape == (1, 5)


def test_sg_readout_pair_inputs_are_concatenated_states():
    rng = np.random.default_rng(2)
    states = rng.uniform(-1, 1, size=(3, 4))
    ow, ob, rw, rb = sg_weights(4, 5, 3, seed=3)
    pred = hd.sg_readout(Tensor(states), ow, ob, rw, rb)
    assert pred.relation_logits.shape == (3, 3)
    for row, (i, j) in enumerate(hd.pair_index(3)):
        want = np.concatenate([states[i], states[j]]) @ rw.data + rb.data
        assert np.max(np.abs(pred.relation_logits.data[row] - want)) <= 1e-12
    want_obj = states @ ow.data + ob.data
    assert np.max(np.abs(pred.object_logits.data - want_obj)) <= 1e-12


def test_sg_readout_shares_one_pairs_tuple_per_node_count():
    # every prediction of n nodes carries the same immutable pair_index(n)
    weights = sg_weights(4, 5, 3)
    rng = np.random.default_rng(4)
    for n in (1, 3, 16):
        first, second = (hd.sg_readout(Tensor(rng.uniform(-1, 1, size=shape)), *weights)
                         for shape in ((n, 4), (2, n, 4)))
        assert first.pairs is second.pairs
        assert first.pairs == tuple(hd.pair_index(n)) and isinstance(first.pairs, tuple)


def _concat_pair_logits(states, weight, bias):
    """The relation head as the concatenation reads: gathered [h_i || h_j] rows, one matmul."""
    n, lead = states.shape[-2], states.shape[:-2]
    subjects, objects = hd.pair_arrays(n)
    # row r of slice b is row b * n + r of the stack
    first = np.arange(int(np.prod(lead))).reshape(lead + (1,)) * n
    pair_states = sp.concat_cols([ng.gather_rows([states], sp.gather([states], first + subjects)),
                                  ng.gather_rows([states], sp.gather([states], first + objects))])
    return ng.add_rowvec(ng.matmul(pair_states, weight), bias)


@pytest.mark.parametrize("shape", [(16, 8), (3, 16, 8), (2, 2, 5)])
def test_pair_logits_agree_with_concatenated_pair_states(shape):
    # projecting first reassociates [h_i || h_j] W as h_i W_a + h_j W_b, so
    # logits and gradients agree with the concatenated form up to rounding
    rng = np.random.default_rng(8)
    d, classes = shape[-1], 3
    params = {"h": Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True),
              "w": Tensor(rng.uniform(-1, 1, size=(2 * d, classes)), requires_grad=True),
              "b": Tensor(rng.uniform(-1, 1, size=classes), requires_grad=True)}
    pairs = shape[-2] * (shape[-2] - 1) // 2
    cotangent = rng.uniform(-1, 1, size=shape[:-2] + (pairs, classes))

    def run(logits_of):
        with ng.Tape() as tape:
            logits = logits_of(params["h"], params["w"], params["b"])
            # a linear loss hands the logits the cotangent as it stands
            loss = ng._emit((logits.data * cotangent).sum(), (logits,),
                            lambda g: (float(g) * cotangent,))
        return logits.data, ng.grad(tape, loss, params)

    got, got_grads = run(hd.pair_logits)
    want, want_grads = run(_concat_pair_logits)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for name in params:
        g, w = got_grads[name].data, want_grads[name].data
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), name


def test_pair_logits_reject_misaligned_weights():
    states = Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        hd.pair_logits(states, Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        hd.pair_logits(states, Tensor(np.ones((8, 2))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        hd.pair_logits(Tensor(np.ones(4)), Tensor(np.ones((8, 2))), Tensor(np.ones(2)))


def test_sg_loss_uniform_object_logits():
    # equal logits: softmax cross entropy is ln(num classes), any one-hot target
    obj = Tensor(np.zeros((1, 4, 7)))
    y = np.eye(7)[[[0, 3, 5, 6]]]
    loss = hd.sg_loss([obj], [y], [None], [None], ONE_KEYFRAME, lam=1.0)
    assert abs(loss.item() - np.log(7.0)) <= 1e-12


def test_sg_loss_zero_relation_logits_is_ln2():
    obj = Tensor(np.zeros((1, 2, 3)))
    y = np.eye(3)[[[0, 1]]]
    rel = Tensor(np.zeros((1, 1, 4)))
    z = np.array([[[1.0, 0.0, 1.0, 0.0]]])
    loss = hd.sg_loss([obj], [y], [rel], [z], ONE_KEYFRAME, lam=0.0)
    assert abs(loss.item() - np.log(2.0)) <= 1e-12


def test_sg_loss_weighted_sum():
    rng = np.random.default_rng(4)
    obj = [Tensor(rng.uniform(-1, 1, size=(1, 3, 4)))]
    y = [np.eye(4)[[[0, 1, 2]]]]
    rel = [Tensor(rng.uniform(-1, 1, size=(1, 3, 2)))]
    z = [(rng.uniform(size=(1, 3, 2)) > 0.5).astype(float)]

    def loss(lam):
        return hd.sg_loss(obj, y, rel, z, ONE_KEYFRAME, lam=lam).item()

    obj_only = loss(1.0) - loss(0.0)
    assert abs(loss(0.5) - (0.5 * obj_only + loss(0.0))) <= 1e-12


def test_sg_loss_of_a_ragged_clip_averages_its_keyframes():
    # one clip over two blocks: a 2-box keyframe with one pair and a 1-box
    # keyframe with none, all logits uniform.  The first keyframe's loss is
    # lam ln 7 + ln 2, the second's lam ln 7, and the clip's their mean.
    obj = [Tensor(np.zeros((1, 2, 7))), Tensor(np.zeros((1, 1, 7)))]
    y = [np.eye(7)[[[0, 6]]], np.eye(7)[[[3]]]]
    rel = [Tensor(np.zeros((1, 1, 4))), None]
    z = [np.array([[[1.0, 0.0, 0.0, 1.0]]]), None]
    for lam in (0.0, 0.25, 0.5, 1.0):
        got = hd.sg_loss(obj, y, rel, z, [[(0, 0), (1, 0)]], lam=lam).item()
        want = (2.0 * lam * np.log(7.0) + np.log(2.0)) / 2.0
        assert abs(got - want) <= 1e-12, f"lam={lam}"


def test_sg_loss_rejects_non_one_hot():
    obj = [Tensor(np.zeros((1, 2, 3)))]
    rel = [Tensor(np.zeros((1, 1, 2)))]
    z = [np.zeros((1, 1, 2))]
    with pytest.raises(ValidationError):
        hd.sg_loss(obj, [np.array([[[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]])], rel, z, ONE_KEYFRAME)
    with pytest.raises(ValidationError):
        hd.sg_loss(obj, [np.array([[[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]])], rel, z, ONE_KEYFRAME)


def test_sg_loss_lambda_zero_ignores_object_labels():
    rng = np.random.default_rng(5)
    obj = Tensor(rng.uniform(-1, 1, size=(1, 3, 4)), requires_grad=True, name="obj")
    rel = [Tensor(rng.uniform(-1, 1, size=(1, 3, 2)))]
    z = [np.zeros((1, 3, 2))]
    y1 = [np.eye(4)[[[0, 1, 2]]]]
    y2 = [np.eye(4)[[[3, 2, 0]]]]
    a = hd.sg_loss([obj], y1, rel, z, ONE_KEYFRAME, lam=0.0).item()
    b = hd.sg_loss([obj], y2, rel, z, ONE_KEYFRAME, lam=0.0).item()
    assert a == b
    with ng.Tape() as tape:
        loss = hd.sg_loss([obj], y1, rel, z, ONE_KEYFRAME, lam=0.0)
    g = ng.grad(tape, loss, {"obj": obj})["obj"].data
    assert np.all(g == 0.0)


def test_sg_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    params = {
        "states": Tensor(rng.uniform(-1, 1, size=(1, 3, 4)), requires_grad=True),
        "ow": Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True),
        "ob": Tensor(rng.uniform(-1, 1, size=5), requires_grad=True),
        "rw": Tensor(rng.uniform(-1, 1, size=(8, 2)), requires_grad=True),
        "rb": Tensor(rng.uniform(-1, 1, size=2), requires_grad=True),
    }
    y = np.eye(5)[[[0, 2, 4]]]
    z = (rng.uniform(size=(1, 3, 2)) > 0.5).astype(float)

    def forward(p):
        pred = hd.sg_readout(p["states"], p["ow"], p["ob"], p["rw"], p["rb"])
        return hd.sg_loss([pred.object_logits], [y], [pred.relation_logits], [z],
                          ONE_KEYFRAME, lam=0.5)

    with ng.Tape() as tape:
        loss = forward(params)
    analytic = ng.grad(tape, loss, params)
    numeric = ng.finite_difference_grads(lambda p: forward(p).item(), params, step=1e-5)
    for name in params:
        err = ng.max_relative_error(analytic[name].data, numeric[name])
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"
