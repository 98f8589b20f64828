import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgraph import data, train
from stgraph import graph as gr
from stgraph import numgrad as ng
from stgraph import passing as pa
from stgraph.errors import ConfigError, NumericError, ShapeError, ValidationError
from stgraph.numgrad import Tensor

import small_primitives as sp
from reference_eval import keyframe_states, reference_inference


def make_config(**kw):
    base = dict(state_dim=6, heads=2, iterations=1, message_fns=(pa.FN_NONLOCAL, pa.FN_GAT),
                tau_c=1, tau_s=1, task=pa.TASK_ACTION, feature_channels=4, action_classes=2)
    base.update(kw)
    return pa.ModelConfig(**base)


def random_params(config, seed=0):
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in pa.param_shapes(config).items():
        if name.endswith("norm.scale"):
            vals = 1.0 + rng.uniform(-0.1, 0.1, size=shape)
        else:
            vals = rng.uniform(-0.5, 0.5, size=shape)
        params[name] = Tensor(vals, requires_grad=True, name=name)
    return params


def make_frames(config, seed=0, keyframes=3, n_boxes=2, n_props=1, hw=(2, 2)):
    """n_boxes, n_props and hw hold one value for every keyframe, or one per keyframe."""
    rng = np.random.default_rng(seed)
    box_counts = [n_boxes] * keyframes if isinstance(n_boxes, int) else list(n_boxes)
    prop_counts = [n_props] * keyframes if isinstance(n_props, int) else list(n_props)
    grid_hws = [hw] * keyframes if isinstance(hw[0], int) else list(hw)
    frames = []
    for k in range(keyframes):
        h, w = grid_hws[k]
        grid = gr.FeatureGrid(
            values=Tensor(rng.uniform(-1, 1, size=(2, h, w, config.feature_channels))),
            keyframe_id=k,
        )
        boxes = []
        for _ in range(box_counts[k]):
            x1, y1 = rng.uniform(0.0, 0.45, size=2)
            boxes.append(gr.Box(x1, y1, x1 + rng.uniform(0.2, 0.5), y1 + rng.uniform(0.2, 0.5)))
        props = [gr.Box(0.2, 0.2, 0.8, 0.8)] * prop_counts[k]
        frames.append(gr.featurize_keyframe(grid, boxes, props))
    return frames


def build(config, seed=0, **kw):
    params = random_params(config, seed)
    frames = make_frames(config, seed, **kw)
    return gr.build_graph(frames, params, config), params, frames


def nl_weights(d, seed=0, zero_query=False):
    """(query, key, value) weights of a one-head nonlocal function, one list each."""
    rng = np.random.default_rng(seed)
    q = np.zeros((d, d)) if zero_query else rng.uniform(-1, 1, size=(d, d))
    return ([Tensor(q)], [Tensor(rng.uniform(-1, 1, size=(d, d)))],
            [Tensor(rng.uniform(-1, 1, size=(d, d)))])


def one_pair(receivers: np.ndarray, neighbors: np.ndarray):
    """(n, d) receivers and (s, d) neighbors as a stack of one and Neighbors of one pair."""
    return Tensor(receivers[None]), sp.neighbors([([0], Tensor(neighbors[None]))])


def test_nonlocal_single_node_attends_to_itself():
    wq, wk, wv = nl_weights(4, seed=1)
    h = np.random.default_rng(2).uniform(-1, 1, size=(1, 4))
    msgs, [att] = ng.nonlocal_attention(*one_pair(h, h), wq, wk, wv)
    assert att.data.shape == (1, 1, 1)
    assert att.data[0, 0, 0] == 1.0
    want = h @ wv[0].data
    assert np.max(np.abs(msgs.data[0] - want)) <= 1e-12


def test_nonlocal_zero_query_gives_uniform_attention():
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, size=(2, 4))
    kv = rng.uniform(-1, 1, size=(5, 4))
    _, [att] = ng.nonlocal_attention(*one_pair(q, kv), *nl_weights(4, seed=4, zero_query=True))
    assert np.max(np.abs(att.data - 0.2)) <= 1e-15


def test_nonlocal_matches_formula():
    rng = np.random.default_rng(5)
    d = 6
    wq, wk, wv = nl_weights(d, seed=6)
    q_states = rng.uniform(-1, 1, size=(3, d))
    kv_states = rng.uniform(-1, 1, size=(7, d))
    msgs, [att] = ng.nonlocal_attention(*one_pair(q_states, kv_states), wq, wk, wv)
    msgs, att = msgs.data[0], att.data[0]
    wq, wk, wv = wq[0], wk[0], wv[0]
    for r in range(3):
        logits = np.array([
            (q_states[r] @ wq.data) @ (kv_states[j] @ wk.data) for j in range(7)
        ]) / np.sqrt(d)
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        assert np.max(np.abs(att[r] - a)) <= 1e-10
        want = sum(a[j] * (kv_states[j] @ wv.data) for j in range(7))
        assert np.max(np.abs(msgs[r] - want)) <= 1e-10


def test_nonlocal_empty_neighborhood_rejected():
    with pytest.raises(ShapeError):
        ng.nonlocal_attention(*one_pair(np.ones((1, 4)), np.zeros((0, 4))), *nl_weights(4))


def gat_weights(d, seed=0, zero_score=False):
    """(transform, score) weights of a one-head GAT function, one list each."""
    rng = np.random.default_rng(seed)
    score = np.zeros(2 * d) if zero_score else rng.uniform(-1, 1, size=2 * d)
    return [Tensor(rng.uniform(-1, 1, size=(d, d)))], [Tensor(score)]


def gat_formula(h_v, nbrs, transform, score):
    """One receiver's GAT attention and message, straight from the definition."""
    transform, score = transform[0], score[0]
    scores = np.array([max(0.0, np.concatenate([h_v, nb]) @ score.data) for nb in nbrs])
    e = np.exp(scores - scores.max())
    a = e / e.sum()
    return a, np.maximum(sum(a[j] * nbrs[j] for j in range(len(nbrs))) @ transform.data, 0.0)


def gate_formula(h_v, msgs, gate):
    """One receiver's gate weights and combined message, straight from the definition."""
    scores = np.array([max(0.0, np.concatenate([h_v, m]) @ gate) for m in msgs])
    e = np.exp(scores - scores.max())
    a = e / e.sum()
    return a, sum(a[k] * msgs[k] for k in range(len(msgs)))


def test_gat_single_neighbor_full_attention():
    rng = np.random.default_rng(7)
    h = rng.uniform(-1, 1, size=(3, 4))
    nbr = rng.uniform(-1, 1, size=(1, 4))
    transform, score = gat_weights(4, seed=8)
    msgs, [att] = ng.additive_attention(*one_pair(h, nbr), transform, score)
    assert att.data.tolist() == [[[1.0]] * 3]
    want = np.maximum(nbr[0] @ transform[0].data, 0.0)
    for r in range(3):
        assert np.max(np.abs(msgs.data[0, r] - want)) <= 1e-12


def test_gat_zero_score_gives_uniform_attention():
    rng = np.random.default_rng(9)
    h = rng.uniform(-1, 1, size=(3, 4))
    nbrs = rng.uniform(-1, 1, size=(4, 4))
    _, [att] = ng.additive_attention(*one_pair(h, nbrs), *gat_weights(4, seed=10, zero_score=True))
    assert att.data.shape == (1, 3, 4)
    assert np.max(np.abs(att.data - 0.25)) <= 1e-15


def test_gat_empty_neighborhood_rejected():
    with pytest.raises(ShapeError):
        ng.additive_attention(*one_pair(np.ones((3, 4)), np.zeros((0, 4))), *gat_weights(4))
    with pytest.raises(ShapeError):
        ng.additive_attention(Tensor(np.ones(4)), sp.neighbors([([0], Tensor(np.ones((1, 2, 4))))]),
                              *gat_weights(4))


def test_gat_matches_formula():
    rng = np.random.default_rng(11)
    d = 5
    w = gat_weights(d, seed=12)
    h = rng.uniform(-1, 1, size=(4, d))
    nbrs = rng.uniform(-1, 1, size=(6, d))
    msgs, [att] = ng.additive_attention(*one_pair(h, nbrs), *w)
    assert msgs.data.shape == (1, 4, d) and att.data.shape == (1, 4, 6)
    msgs, att = msgs.data[0], att.data[0]
    for r in range(4):
        a, want = gat_formula(h[r], nbrs, *w)
        assert np.max(np.abs(att[r] - a)) <= 1e-10
        assert np.max(np.abs(msgs[r] - want)) <= 1e-10


def test_combine_identical_messages_returns_them():
    rng = np.random.default_rng(14)
    m = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    h = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    gate = Tensor(rng.uniform(-1, 1, size=12))
    out, wts = ng.gated_mix([m, m, m], h, gate)
    assert wts.data.shape == (3, 3)
    assert np.max(np.abs(wts.data.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(out.data - m.data)) <= 1e-12


def test_combine_zero_gate_is_elementwise_mean():
    rng = np.random.default_rng(15)
    msgs = [Tensor(rng.uniform(-1, 1, size=(3, 4))) for _ in range(3)]
    h = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    out, wts = ng.gated_mix(msgs, h, Tensor(np.zeros(8)))
    assert np.max(np.abs(wts.data - 1.0 / 3.0)) <= 1e-15
    mean = np.mean([m.data for m in msgs], axis=0)
    assert np.max(np.abs(out.data - mean)) <= 1e-12


def test_combine_matches_formula():
    rng = np.random.default_rng(30)
    d, n = 5, 4
    msgs = [rng.uniform(-1, 1, size=(n, d)) for _ in range(3)]
    h = rng.uniform(-1, 1, size=(n, d))
    gate = rng.uniform(-1, 1, size=2 * d)
    out, wts = ng.gated_mix([Tensor(m) for m in msgs], Tensor(h), Tensor(gate))
    assert out.data.shape == (n, d) and wts.data.shape == (n, 3)
    for r in range(n):
        a, want = gate_formula(h[r], [m[r] for m in msgs], gate)
        assert np.max(np.abs(wts.data[r] - a)) <= 1e-10
        assert np.max(np.abs(out.data[r] - want)) <= 1e-10


def test_update_zero_message_is_layer_norm_not_identity():
    rng = np.random.default_rng(16)
    h = Tensor(rng.uniform(1.0, 2.0, size=(1, 6)))
    scale = Tensor(np.ones(6))
    shift = Tensor(np.zeros(6))
    out = ng.residual_layer_norm(h, Tensor(np.zeros((1, 6))), scale, shift)
    hn = sp.layer_norm(h, scale, shift)
    assert np.max(np.abs(out.data - hn.data)) <= 1e-15
    assert np.max(np.abs(out.data - h.data)) > 1e-3


def test_update_cancelling_message_returns_shift():
    rng = np.random.default_rng(17)
    h = rng.uniform(-1, 1, size=(1, 6))
    shift = rng.uniform(-1, 1, size=6)
    out = ng.residual_layer_norm(Tensor(h), Tensor(-h), Tensor(np.ones(6)), Tensor(shift))
    assert np.max(np.abs(out.data - shift)) <= 1e-15


def test_attention_invariant_to_constant_score_shift():
    rng = np.random.default_rng(18)
    x = rng.uniform(-1, 1, size=(4, 7))
    a = sp.softmax(Tensor(x)).data
    b = sp.softmax(Tensor(x + 123.456)).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_param_shapes_untied_and_conditional():
    cfg = make_config(iterations=3, tau_c=3, heads=2)
    shapes = pa.param_shapes(cfg)
    for i in range(3):
        assert f"mp.iter{i}.spatial.nonlocal.head0.query" in shapes
        assert f"mp.iter{i}.temporal.gat.head1.transform" in shapes
        assert f"mp.iter{i}.spatial.gate" in shapes
    # single message slot: no gate parameter at all
    cfg1 = make_config(message_fns=(pa.FN_GAT,), heads=1, tau_c=1)
    shapes1 = pa.param_shapes(cfg1)
    assert not any(name.endswith(".gate") for name in shapes1)
    assert not any(".temporal." in name for name in shapes1)
    cfg_sg = make_config(task=pa.TASK_SCENEGRAPH)
    sg_shapes = pa.param_shapes(cfg_sg)
    assert sg_shapes["readout.relation.weight"] == (12, 3)


@pytest.mark.parametrize("task", [pa.TASK_ACTION, pa.TASK_SCENEGRAPH])
@pytest.mark.parametrize("message_fns", [(pa.FN_NONLOCAL,), (pa.FN_GAT,),
                                         (pa.FN_NONLOCAL, pa.FN_GAT)])
def test_param_shapes_bound_counts_every_value(monkeypatch, task, message_fns):
    for d, heads, iterations, tau_c in itertools.product((1, 3), (1, 2), (1, 2), (1, 3)):
        cfg = make_config(state_dim=d, heads=heads, iterations=iterations, tau_c=tau_c,
                          message_fns=message_fns, task=task, feature_channels=5,
                          action_classes=4, object_classes=3, relation_classes=2)
        monkeypatch.undo()
        total = sum(math.prod(shape) for shape in pa.param_shapes(cfg).values())
        monkeypatch.setattr(pa, "MAX_PARAM_VALUES", total)
        pa.param_shapes(cfg)
        monkeypatch.setattr(pa, "MAX_PARAM_VALUES", total - 1)
        with pytest.raises(ConfigError, match=f" give {total} parameter values, more than "):
            pa.param_shapes(cfg)
    monkeypatch.undo()
    # counted, not listed: a trillion heads fail at once
    with pytest.raises(ConfigError, match="parameter values"):
        pa.param_shapes(make_config(heads=10 ** 12, message_fns=message_fns, task=task))


@pytest.mark.parametrize("task", [pa.TASK_ACTION, pa.TASK_SCENEGRAPH])
@pytest.mark.parametrize("message_fns", [(pa.FN_NONLOCAL,), (pa.FN_GAT,),
                                         (pa.FN_NONLOCAL, pa.FN_GAT)])
def test_param_shapes_bound_counts_every_tensor(monkeypatch, task, message_fns):
    for heads, iterations, tau_c in itertools.product((1, 2), (1, 2), (1, 3)):
        cfg = make_config(state_dim=2, heads=heads, iterations=iterations, tau_c=tau_c,
                          message_fns=message_fns, task=task)
        monkeypatch.undo()
        count = len(pa.param_shapes(cfg))
        monkeypatch.setattr(pa, "MAX_PARAM_TENSORS", count)
        pa.param_shapes(cfg)
        monkeypatch.setattr(pa, "MAX_PARAM_TENSORS", count - 1)
        with pytest.raises(ConfigError, match=f" give {count} parameter tensors, more than "):
            pa.param_shapes(cfg)


def test_param_shapes_rejects_many_narrow_heads_at_once():
    cfg = pa.ModelConfig(state_dim=1, heads=300_000, feature_channels=1, action_classes=1)
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="heads give 900008 parameter tensors"):
        pa.param_shapes(cfg)
    assert time.perf_counter() - started < 0.5


def test_config_validation():
    # a config checks itself when it is made
    for kw, message in [
        (dict(tau_c=2), "tau_c must be odd and positive, got 2"),
        (dict(message_fns=()), "at least one message function is required"),
        (dict(message_fns=("fancy",)), "unknown message function 'fancy'"),
        (dict(iterations=0), "iterations must be positive, got 0"),
        (dict(tau_s=0), "tau_s must be positive, got 0"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            make_config(**kw)


def test_config_replace_validates():
    with pytest.raises(ConfigError, match="tau_c must be odd and positive, got 2"):
        dataclasses.replace(make_config(), tau_c=2)


def test_fg_states_are_read_only_views_of_states():
    # a ragged batch of two clips, whose keyframes spread over several blocks
    cfg = make_config(tau_c=3, iterations=2)
    params = random_params(cfg, seed=29)
    clips = [make_frames(cfg, seed=29, keyframes=3, n_boxes=(1, 3, 2), n_props=(1, 0, 1)),
             make_frames(cfg, seed=30, keyframes=2, n_boxes=(3, 1))]
    g = gr.build_batch(clips, params, cfg)
    res = pa.run_inference(g, params, cfg)
    assert len(res.states) > 1
    views = res.fg_states
    assert sorted(views) == list(range(len(g.keyframes)))
    for pos, view in views.items():
        k, j = g.where[pos]
        assert view.data.tobytes() == res.states[k].data[j].tobytes()
        assert np.shares_memory(view.data, res.states[k].data)
        assert not view.data.flags.writeable
        assert not view.requires_grad


def test_fg_states_under_a_tape_raises():
    cfg = make_config(tau_c=3)
    g, params, _ = build(cfg, seed=30)
    with ng.Tape():
        res = pa.run_inference(g, params, cfg)
        with pytest.raises(ValidationError, match="differentiate through states"):
            res.fg_states


def test_run_inference_attention_rows_normalized():
    cfg = make_config(tau_c=3, iterations=2)
    g, params, _ = build(cfg, seed=19)
    res = pa.run_inference(g, params, cfg, record_traces=True)
    assert len(res.attention) > 0
    for rec in res.attention:
        assert abs(rec.weights.sum() - 1.0) <= 1e-10
        assert rec.weights.min() >= 0.0 and rec.weights.max() <= 1.0
        assert len(rec.neighbor_ids) == len(rec.weights)
    for rec in res.gates:
        assert abs(rec.weights.sum() - 1.0) <= 1e-10


def test_run_inference_trace_counts_and_eval_only():
    cfg = make_config(tau_c=1, iterations=2, heads=2)
    g, params, _ = build(cfg, seed=20, keyframes=2, n_boxes=2)
    silent = pa.run_inference(g, params, cfg)
    assert silent.attention == [] and silent.gates == []
    res = pa.run_inference(g, params, cfg, record_traces=True)
    n_fg = 4
    # per fn per head per iteration, one record per foreground node
    assert len(res.attention) == n_fg * 2 * 2 * 2
    assert len(res.gates) == n_fg * 2  # one per node per phase run


def test_run_inference_trace_order():
    # attention: iteration, phase, keyframe, function, head, node; gates: per
    # keyframe after its attention rows, node by node
    cfg = make_config(tau_c=3, iterations=2, heads=2)
    g, params, _ = build(cfg, seed=31, keyframes=3, n_boxes=(1, 3, 2), n_props=(1, 0, 1))
    res = pa.run_inference(g, params, cfg, record_traces=True)
    want_att, want_gates = [], []
    for i in range(2):
        for phase in (pa.PHASE_SPATIAL, pa.PHASE_TEMPORAL):
            for pos in range(len(g.keyframes)):
                fg_ids = gr.node_ids(g, pos)
                if phase == pa.PHASE_SPATIAL:
                    nbrs = gr.node_ids(g, pos, context=True)
                else:
                    nbrs = [j for p in g.temporal[pos] for j in gr.node_ids(g, p)]
                for fn in cfg.message_fns:
                    for h in range(cfg.heads):
                        want_att += [(i, phase, fn, h, v, nbrs) for v in fg_ids]
                want_gates += [(i, phase, v) for v in fg_ids]
    got_att = [(r.iteration, r.phase, r.function, r.head, r.node_id, r.neighbor_ids)
               for r in res.attention]
    assert got_att == want_att
    assert [(r.iteration, r.phase, r.node_id) for r in res.gates] == want_gates
    slots = ["nonlocal.head0", "nonlocal.head1", "gat.head0", "gat.head1"]
    assert all(r.slots == slots and r.weights.shape == (4,) for r in res.gates)
    assert all(r.weights.shape == (len(r.neighbor_ids),) for r in res.attention)


def test_context_states_bit_identical():
    cfg = make_config(tau_c=3, iterations=2)
    g, params, _ = build(cfg, seed=21)
    before = [keyframe_states(g, pos)[1].tobytes() for pos in range(len(g.keyframes))]
    pa.run_inference(g, params, cfg)
    assert [keyframe_states(g, pos)[1].tobytes() for pos in range(len(g.keyframes))] == before


def test_window_one_ignores_stride_and_other_keyframes():
    cfg_a = make_config(tau_c=1, tau_s=1, iterations=2)
    params = random_params(cfg_a, seed=22)
    frames = make_frames(cfg_a, seed=22, keyframes=3)
    g1 = gr.build_graph(frames, params, cfg_a)
    res1 = pa.run_inference(g1, params, cfg_a)

    cfg_b = make_config(tau_c=1, tau_s=5, iterations=2)
    g2 = gr.build_graph(frames, params, cfg_b)
    res2 = pa.run_inference(g2, params, cfg_b)
    assert np.array_equal(res1.fg_states[0].data, res2.fg_states[0].data)

    # dropping the other keyframes entirely leaves keyframe 0 untouched
    g3 = gr.build_graph(frames[:1], params, cfg_a)
    res3 = pa.run_inference(g3, params, cfg_a)
    assert np.array_equal(res1.fg_states[0].data, res3.fg_states[0].data)


def test_temporal_phase_noop_without_neighbors():
    # single keyframe, tau_c=3: temporal phase exists but passes through
    cfg3 = make_config(tau_c=3, iterations=1)
    params3 = random_params(cfg3, seed=23)
    frames = make_frames(cfg3, seed=23, keyframes=1)
    g3 = gr.build_graph(frames, params3, cfg3)
    res3 = pa.run_inference(g3, params3, cfg3)

    cfg1 = make_config(tau_c=1, iterations=1)
    params1 = {name: params3[name] for name in pa.param_shapes(cfg1)}
    g1 = gr.build_graph(frames, params1, cfg1)
    res1 = pa.run_inference(g1, params1, cfg1)
    assert np.array_equal(res3.fg_states[0].data, res1.fg_states[0].data)


def test_graph_config_mismatch_rejected():
    cfg = make_config(tau_c=3)
    g, params, _ = build(cfg, seed=24)
    other = make_config(tau_c=5)
    params_other = random_params(other, seed=24)
    with pytest.raises(ConfigError):
        pa.run_inference(g, params_other, other)


def test_node_relabeling_equivariance():
    cfg = make_config(tau_c=3, iterations=2)
    params = random_params(cfg, seed=25)
    rng = np.random.default_rng(26)
    grids = [Tensor(rng.uniform(-1, 1, size=(2, 2, 2, cfg.feature_channels))) for _ in range(2)]
    boxes = [gr.Box(0.0, 0.0, 0.4, 0.4), gr.Box(0.3, 0.3, 0.9, 0.9), gr.Box(0.1, 0.5, 0.6, 1.0)]
    perm = [2, 0, 1]

    def run(order):
        frames = [
            gr.featurize_keyframe(gr.FeatureGrid(values=g, keyframe_id=k), [boxes[i] for i in order])
            for k, g in enumerate(grids)
        ]
        graph = gr.build_graph(frames, params, cfg)
        return pa.run_inference(graph, params, cfg)

    base = run([0, 1, 2])
    shuffled = run(perm)
    for pos in (0, 1):
        for r, orig in enumerate(perm):
            diff = np.abs(shuffled.fg_states[pos].data[r] - base.fg_states[pos].data[orig])
            assert diff.max() <= 1e-12


def reference_gaps(g, params, cfg):
    """Max deviation from the loop-based oracle, one per keyframe position.

    The oracle runs every clip of g on its own.
    """
    res = pa.run_inference(g, params, cfg)
    weights = {name: t.data for name, t in params.items()}
    ref_cfg = dict(state_dim=cfg.state_dim, heads=cfg.heads, iterations=cfg.iterations,
                   message_fns=list(cfg.message_fns), tau_c=cfg.tau_c, tau_s=cfg.tau_s,
                   ln_eps=cfg.ln_eps)
    gaps = []
    for span in g.clips:
        fg0, ctx0 = zip(*[keyframe_states(g, pos) for pos in span])
        want = reference_inference(fg0, ctx0, weights, ref_cfg)
        gaps += [np.max(np.abs(res.fg_states[pos].data - w)) for pos, w in zip(span, want)]
    return gaps


@pytest.mark.parametrize("cfg_kw,scene", [
    (dict(message_fns=(pa.FN_NONLOCAL,), heads=1, iterations=1, tau_c=1), dict(keyframes=1)),
    (dict(message_fns=(pa.FN_GAT,), heads=3, iterations=1, tau_c=5, tau_s=2), dict(keyframes=5)),
    (dict(message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), heads=2, iterations=2, tau_c=3), dict(keyframes=3)),
    # ragged: 1, 3 and 2 boxes, and the middle keyframe without a proposal
    (dict(message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), heads=2, iterations=2, tau_c=3),
     dict(keyframes=3, n_boxes=(1, 3, 2), n_props=(1, 0, 1))),
])
def test_run_inference_matches_reference(cfg_kw, scene):
    cfg = make_config(**cfg_kw)
    g, params, _ = build(cfg, seed=27, **scene)
    for gap in reference_gaps(g, params, cfg):
        assert gap <= 1e-10


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    # per clip, per keyframe: boxes, proposals, grid height, grid width
    clips=st.lists(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2),
                                      st.integers(1, 3), st.integers(1, 3)),
                            min_size=1, max_size=5), min_size=1, max_size=3),
    tau_c=st.sampled_from([1, 3, 5]),
    tau_s=st.sampled_from([1, 2]),
    message_fns=st.sampled_from([(pa.FN_NONLOCAL,), (pa.FN_GAT,), (pa.FN_NONLOCAL, pa.FN_GAT),
                                 (pa.FN_GAT, pa.FN_NONLOCAL)]),
    heads=st.integers(1, 2),
    iterations=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_random_ragged_graphs_match_reference(clips, tau_c, tau_s, message_fns, heads,
                                              iterations, seed):
    # a batch of 1-3 ragged clips, each checked against the oracle on its own
    cfg = make_config(state_dim=4, message_fns=message_fns, heads=heads, iterations=iterations,
                      tau_c=tau_c, tau_s=tau_s)
    params = random_params(cfg, seed)
    frames = []
    for c, keyframes in enumerate(clips):
        boxes, props, hs, ws = zip(*keyframes)
        frames.append(make_frames(cfg, seed + c, keyframes=len(keyframes), n_boxes=boxes,
                                  n_props=props, hw=list(zip(hs, ws))))
    g = gr.build_batch(frames, params, cfg)
    assert max(reference_gaps(g, params, cfg)) <= 1e-8


def test_inference_gradients_match_finite_differences():
    cfg = make_config(state_dim=5, feature_channels=3, heads=1, iterations=1, tau_c=3,
                      message_fns=(pa.FN_NONLOCAL, pa.FN_GAT))
    params = random_params(cfg, seed=28)
    frames = make_frames(cfg, seed=28, keyframes=2, n_boxes=1, n_props=1, hw=(1, 2))

    def forward(p):
        graph = gr.build_graph(frames, p, cfg)
        res = pa.run_inference(graph, p, cfg)
        rows = sum(s.shape[0] * s.shape[1] for s in res.states)
        return sp.mean_all(ng.gather_rows(res.states, sp.gather(res.states, np.arange(rows))))

    with ng.Tape() as tape:
        loss = forward(params)
    analytic = ng.grad(tape, loss, params)
    numeric = ng.finite_difference_grads(lambda p: forward(p).item(), params, step=1e-5)
    for name in params:
        err = ng.max_relative_error(analytic[name].data, numeric[name])
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"


def test_multi_block_batch_loss_gradients_match_finite_differences():
    # a 4-keyframe clip with proposals 0, 0, 0, 1 and a 1-keyframe clip make
    # three blocks: keyframes 0-2 (two neighbor counts, and keyframe 2's
    # neighbor lives in another block), keyframe 3, and the lone keyframe,
    # which has no temporal neighbors and skips the temporal phase
    cfg = make_config(state_dim=4, feature_channels=3, heads=1, tau_c=3,
                      message_fns=(pa.FN_NONLOCAL, pa.FN_GAT))
    params = random_params(cfg, seed=31)
    rng = np.random.default_rng(31)
    clips = []
    for c, frames in enumerate([
            make_frames(cfg, seed=31, keyframes=4, n_boxes=1, n_props=[0, 0, 0, 1], hw=(1, 2)),
            make_frames(cfg, seed=32, keyframes=1, n_boxes=1, n_props=0, hw=(1, 2))]):
        labels = [(rng.uniform(size=(1, cfg.action_classes)) < 0.5).astype(float) for _ in frames]
        clips.append(data.ClipFeatures(clip_id=f"c{c}", frames=frames, action_labels=labels))

    def batch_loss(p):
        return train._batch_loss(clips, gr.build_batch([c.frames for c in clips], p, cfg), p, cfg)

    graph = gr.build_batch([c.frames for c in clips], params, cfg)
    assert [b.positions for b in graph.blocks] == [[0, 1, 2], [3], [4]]
    with ng.Tape() as tape:
        loss = batch_loss(params)
    analytic = ng.grad(tape, loss, params)
    numeric = ng.finite_difference_grads(lambda p: batch_loss(p).item(), params, step=1e-5)
    for name in params:
        err = ng.max_relative_error(analytic[name].data, numeric[name])
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"


@pytest.mark.parametrize("tau_c,tau_s,clip_boxes", [
    # the edge keyframes read the middle one's rows through offsets +1 and -1
    (3, 1, [[2, 2, 2]]),
    # mixed box counts: several blocks and neighbor counts, offsets +-2 and
    # +-4; keyframes 4-12 of the long clip share a group, so keyframe 8's
    # rows get four pieces there, whose sum depends on their order
    (5, 2, [[2] * 17, [3, 2, 3, 3, 2], [2]]),
])
def test_temporal_gathers_by_offset_match_scatter_rows(monkeypatch, tau_c, tau_s, clip_boxes):
    # the per-offset backward against the planless one, np.add.at's,
    # bit for bit: per group on leaf states, then through a whole batch loss
    cfg = make_config(state_dim=4, feature_channels=3, tau_c=tau_c, tau_s=tau_s)
    params = random_params(cfg, seed=44)
    rng = np.random.default_rng(44)
    clips = []
    for c, boxes in enumerate(clip_boxes):
        frames = make_frames(cfg, seed=44 + c, keyframes=len(boxes), n_boxes=boxes)
        labels = [(rng.uniform(size=(n, cfg.action_classes)) < 0.5).astype(float) for n in boxes]
        clips.append(data.ClipFeatures(clip_id=f"c{c}", frames=frames, action_labels=labels))
    graph = gr.build_batch([c.frames for c in clips], params, cfg)
    # the position of every foreground row, blocks end to end
    pos_of_row = np.concatenate([np.repeat(b.positions, b.fg_states.shape[1])
                                 for b in graph.blocks])
    groups, offsets = [], []
    for block, (_, layout), gathers in zip(graph.blocks, graph.layouts, graph.gathers):
        for slices, gather in zip(layout.slices if gathers else (), gathers):
            flat = gather.rows.reshape(-1)
            receivers = np.repeat(np.array(block.positions)[slices], gather.rows.shape[1])
            rounds = []
            for entries in gather.plan:
                targets = flat[entries]
                # no row repeats within a round, which reads through one offset
                assert len(set(targets.tolist())) == targets.size
                [offset] = set((pos_of_row[targets] - receivers[entries]).tolist())
                rounds.append(offset)
            # the rounds run largest offset first, and every entry sits in one
            assert rounds == sorted(set(rounds), reverse=True)
            assert sorted(sum(gather.plan, [])) == list(range(flat.size))
            groups.append((slices, gather))
            offsets.append(rounds)
    if len(clip_boxes) == 1:
        [(edges, rounds)] = [(g, r) for (slices, g), r in zip(groups, offsets) if slices == [0, 2]]
        assert edges.rows[0].tolist() == edges.rows[1].tolist()
        assert rounds == [1, -1]
        assert edges.plan == ([0, 1], [2, 3])
    else:
        assert len(graph.blocks) > 2 and len(groups) > 3
        assert sorted(set(sum(offsets, []))) == [-4, -2, 2, 4]

    states = [Tensor(b.fg_states.data, requires_grad=True) for b in graph.blocks]
    for _, gather in groups:
        pieces = []
        # the graph's Gather, with its plan, against one of its rows without a plan
        for index in (gather, sp.gather(states, gather.rows)):
            with ng.Tape() as tape:
                ng.gather_rows(states, index)
            [(_, _, backward)] = tape._entries
            g = np.random.default_rng(45).normal(size=gather.rows.shape + (cfg.state_dim,))
            g[..., ::3, :] = -0.0
            pieces.append([None if d is None else d.tobytes() for d in backward(g)])
        assert pieces[0] == pieces[1]
        assert any(d is not None for d in pieces[0])

    def batch_grads():
        with ng.Tape() as tape:
            loss = train._batch_loss(clips, gr.build_batch([c.frames for c in clips], params, cfg),
                                     params, cfg)
        return {name: t.data.tobytes() for name, t in ng.grad(tape, loss, params).items()}

    by_offset = batch_grads()
    planned = ng.gather_rows
    monkeypatch.setattr(ng, "gather_rows", lambda m, index: planned(m, sp.gather(m, index.rows)))
    assert batch_grads() == by_offset


@pytest.mark.parametrize("iteration,phase", [(0, pa.PHASE_SPATIAL), (0, pa.PHASE_TEMPORAL),
                                             (1, pa.PHASE_SPATIAL), (1, pa.PHASE_TEMPORAL)])
def test_overflow_inside_a_phase_names_iteration_and_phase(iteration, phase):
    # query and key weights of 1e200 overflow the nonlocal logits q k^T
    config = make_config(iterations=2, tau_c=3, message_fns=(pa.FN_NONLOCAL,), heads=1)
    g, params, _ = build(config, seed=5)
    for part in ("query", "key"):
        name = f"mp.iter{iteration}.{phase}.nonlocal.head0.{part}"
        params[name] = Tensor(np.full(params[name].shape, 1e200), requires_grad=True, name=name)
    with pytest.raises(NumericError) as err:
        pa.run_inference(g, params, config)
    assert f"iteration {iteration} {phase} phase" in str(err.value)


def test_overflow_hidden_by_relu_is_still_caught():
    # With every state positive and a1 = -1e308, h_v . a1 overflows to -inf
    # for each receiver; relu maps those scores to 0, so the attention is
    # uniform and every output of the phase is finite.  Only the
    # floating-point flag shows that the phase overflowed.
    config = make_config(heads=1, message_fns=(pa.FN_GAT,))
    d, c = config.state_dim, config.feature_channels
    params = random_params(config, seed=6)
    for name in (gr.PROJ_FOREGROUND, gr.PROJ_CONTEXT, gr.PROJ_PROPOSAL):
        params[name] = Tensor(np.ones((c, d)), requires_grad=True, name=name)
    score = np.concatenate([np.full(d, -1e308), np.full(d, 0.1)])
    params["mp.iter0.spatial.gat.head0.score"] = Tensor(score, requires_grad=True)
    rng = np.random.default_rng(6)
    grid = gr.FeatureGrid(values=Tensor(rng.uniform(0.5, 1.0, size=(1, 2, 2, c))), keyframe_id=0)
    frames = [gr.featurize_keyframe(grid, [gr.Box(0.0, 0.0, 0.6, 0.6), gr.Box(0.4, 0.4, 1.0, 1.0)])]
    g = gr.build_graph(frames, params, config)

    fg, ctx = keyframe_states(g, 0)
    with np.errstate(over="ignore"):
        msgs, [att] = ng.additive_attention(*one_pair(fg, np.concatenate([fg, ctx])),
                                            [params["mp.iter0.spatial.gat.head0.transform"]],
                                            [params["mp.iter0.spatial.gat.head0.score"]])
    assert np.all(np.isfinite(msgs.data))
    assert np.all(att.data == att.data[0, 0, 0])

    with pytest.raises(NumericError) as err:
        pa.run_inference(g, params, config)
    assert "iteration 0 spatial phase" in str(err.value)
    assert "overflow" in str(err.value)
