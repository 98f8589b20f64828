import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgraph import graph as gr
from stgraph import numgrad as ng
from stgraph import passing as pa
from stgraph.errors import ConfigError, NumericError, ValidationError
from stgraph.numgrad import Tensor

import small_primitives as sp
from reference_eval import reference_inference


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
    rng = np.random.default_rng(seed)
    q = np.zeros((d, d)) if zero_query else rng.uniform(-1, 1, size=(d, d))
    return pa.NonLocalWeights(Tensor(q), Tensor(rng.uniform(-1, 1, size=(d, d))),
                              Tensor(rng.uniform(-1, 1, size=(d, d))))


def test_nonlocal_single_node_attends_to_itself():
    w = nl_weights(4, seed=1)
    h = Tensor(np.random.default_rng(2).uniform(-1, 1, size=(1, 4)))
    msgs, att = pa.nonlocal_messages(h, h, w)
    assert att.data.shape == (1, 1)
    assert att.data[0, 0] == 1.0
    want = h.data @ w.value.data
    assert np.max(np.abs(msgs.data - want)) <= 1e-12


def test_nonlocal_zero_query_gives_uniform_attention():
    rng = np.random.default_rng(3)
    q = Tensor(rng.uniform(-1, 1, size=(2, 4)))
    kv = Tensor(rng.uniform(-1, 1, size=(5, 4)))
    _, att = pa.nonlocal_messages(q, kv, nl_weights(4, seed=4, zero_query=True))
    assert np.max(np.abs(att.data - 0.2)) <= 1e-15


def test_nonlocal_matches_formula():
    rng = np.random.default_rng(5)
    d = 6
    w = nl_weights(d, seed=6)
    q_states = rng.uniform(-1, 1, size=(3, d))
    kv_states = rng.uniform(-1, 1, size=(7, d))
    msgs, att = pa.nonlocal_messages(Tensor(q_states), Tensor(kv_states), w)
    for r in range(3):
        logits = np.array([
            (q_states[r] @ w.query.data) @ (kv_states[j] @ w.key.data) for j in range(7)
        ]) / np.sqrt(d)
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        assert np.max(np.abs(att.data[r] - a)) <= 1e-10
        want = sum(a[j] * (kv_states[j] @ w.value.data) for j in range(7))
        assert np.max(np.abs(msgs.data[r] - want)) <= 1e-10


def test_nonlocal_empty_neighborhood_rejected():
    w = nl_weights(4)
    with pytest.raises(ValidationError):
        pa.nonlocal_messages(Tensor(np.ones((1, 4))), Tensor(np.zeros((0, 4))), w)


def gat_weights(d, seed=0, zero_score=False):
    rng = np.random.default_rng(seed)
    score = np.zeros(2 * d) if zero_score else rng.uniform(-1, 1, size=2 * d)
    return pa.GatWeights(Tensor(rng.uniform(-1, 1, size=(d, d))), Tensor(score))


def gat_formula(h_v, nbrs, w):
    """One receiver's GAT attention and message, straight from the definition."""
    scores = np.array([max(0.0, np.concatenate([h_v, nb]) @ w.score.data) for nb in nbrs])
    e = np.exp(scores - scores.max())
    a = e / e.sum()
    return a, np.maximum(sum(a[j] * nbrs[j] for j in range(len(nbrs))) @ w.transform.data, 0.0)


def gate_formula(h_v, msgs, gate):
    """One receiver's gate weights and combined message, straight from the definition."""
    scores = np.array([max(0.0, np.concatenate([h_v, m]) @ gate) for m in msgs])
    e = np.exp(scores - scores.max())
    a = e / e.sum()
    return a, sum(a[k] * msgs[k] for k in range(len(msgs)))


def test_gat_single_neighbor_full_attention():
    rng = np.random.default_rng(7)
    h = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    nbr = Tensor(rng.uniform(-1, 1, size=(1, 4)))
    w = gat_weights(4, seed=8)
    msgs, att = pa.gat_messages(h, nbr, w)
    assert att.data.tolist() == [[1.0]] * 3
    want = np.maximum(nbr.data[0] @ w.transform.data, 0.0)
    for r in range(3):
        assert np.max(np.abs(msgs.data[r] - want)) <= 1e-12


def test_gat_zero_score_gives_uniform_attention():
    rng = np.random.default_rng(9)
    h = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    nbrs = Tensor(rng.uniform(-1, 1, size=(4, 4)))
    _, att = pa.gat_messages(h, nbrs, gat_weights(4, seed=10, zero_score=True))
    assert att.data.shape == (3, 4)
    assert np.max(np.abs(att.data - 0.25)) <= 1e-15


def test_gat_empty_neighborhood_rejected():
    with pytest.raises(ValidationError):
        pa.gat_messages(Tensor(np.ones((3, 4))), Tensor(np.zeros((0, 4))), gat_weights(4))
    with pytest.raises(ValidationError):
        pa.gat_messages(Tensor(np.ones(4)), Tensor(np.ones((2, 4))), gat_weights(4))


def test_gat_matches_formula():
    rng = np.random.default_rng(11)
    d = 5
    w = gat_weights(d, seed=12)
    h = rng.uniform(-1, 1, size=(4, d))
    nbrs = rng.uniform(-1, 1, size=(6, d))
    msgs, att = pa.gat_messages(Tensor(h), Tensor(nbrs), w)
    assert msgs.data.shape == (4, d) and att.data.shape == (4, 6)
    for r in range(4):
        a, want = gat_formula(h[r], nbrs, w)
        assert np.max(np.abs(att.data[r] - a)) <= 1e-10
        assert np.max(np.abs(msgs.data[r] - want)) <= 1e-10


def test_combine_single_message_is_exact():
    rng = np.random.default_rng(13)
    m = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    out, wts = pa.combine_parallel([m], Tensor(rng.uniform(-1, 1, size=(3, 6))), None)
    assert out is m
    assert wts.data.tolist() == [[1.0]] * 3


def test_combine_identical_messages_returns_them():
    rng = np.random.default_rng(14)
    m = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    h = Tensor(rng.uniform(-1, 1, size=(3, 6)))
    gate = Tensor(rng.uniform(-1, 1, size=12))
    out, wts = pa.combine_parallel([m, m, m], h, gate)
    assert wts.data.shape == (3, 3)
    assert np.max(np.abs(wts.data.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(out.data - m.data)) <= 1e-12


def test_combine_zero_gate_is_elementwise_mean():
    rng = np.random.default_rng(15)
    msgs = [Tensor(rng.uniform(-1, 1, size=(3, 4))) for _ in range(3)]
    h = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    out, wts = pa.combine_parallel(msgs, h, Tensor(np.zeros(8)))
    assert np.max(np.abs(wts.data - 1.0 / 3.0)) <= 1e-15
    mean = np.mean([m.data for m in msgs], axis=0)
    assert np.max(np.abs(out.data - mean)) <= 1e-12


def test_combine_matches_formula():
    rng = np.random.default_rng(30)
    d, n = 5, 4
    msgs = [rng.uniform(-1, 1, size=(n, d)) for _ in range(3)]
    h = rng.uniform(-1, 1, size=(n, d))
    gate = rng.uniform(-1, 1, size=2 * d)
    out, wts = pa.combine_parallel([Tensor(m) for m in msgs], Tensor(h), Tensor(gate))
    assert out.data.shape == (n, d) and wts.data.shape == (n, 3)
    for r in range(n):
        a, want = gate_formula(h[r], [m[r] for m in msgs], gate)
        assert np.max(np.abs(wts.data[r] - a)) <= 1e-10
        assert np.max(np.abs(out.data[r] - want)) <= 1e-10


def test_combine_requires_gate_for_parallel():
    msgs = [Tensor(np.ones((3, 3))), Tensor(np.zeros((3, 3)))]
    with pytest.raises(ValidationError):
        pa.combine_parallel(msgs, Tensor(np.ones((3, 3))), None)


def test_update_zero_message_is_layer_norm_not_identity():
    rng = np.random.default_rng(16)
    h = Tensor(rng.uniform(1.0, 2.0, size=6))
    scale = Tensor(np.ones(6))
    shift = Tensor(np.zeros(6))
    out = pa.update_node(h, Tensor(np.zeros(6)), scale, shift)
    hn = sp.layer_norm(h, scale, shift)
    assert np.max(np.abs(out.data - hn.data)) <= 1e-15
    assert np.max(np.abs(out.data - h.data)) > 1e-3


def test_update_cancelling_message_returns_shift():
    rng = np.random.default_rng(17)
    h = rng.uniform(-1, 1, size=6)
    shift = rng.uniform(-1, 1, size=6)
    out = pa.update_node(Tensor(h), Tensor(-h), Tensor(np.ones(6)), Tensor(shift))
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


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(tau_c=2).validate()
    with pytest.raises(ConfigError):
        make_config(message_fns=()).validate()
    with pytest.raises(ConfigError):
        make_config(message_fns=("fancy",)).validate()
    with pytest.raises(ConfigError):
        make_config(iterations=0).validate()
    with pytest.raises(ConfigError):
        make_config(tau_s=0).validate()


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
                kf = g.keyframes[pos]
                if phase == pa.PHASE_SPATIAL:
                    nbrs = kf.fg_ids + kf.ctx_ids
                else:
                    nbrs = [j for p in g.temporal[pos] for j in g.keyframes[p].fg_ids]
                for fn in cfg.message_fns:
                    for h in range(cfg.heads):
                        want_att += [(i, phase, fn, h, v, nbrs) for v in kf.fg_ids]
                want_gates += [(i, phase, v) for v in kf.fg_ids]
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
    before = {pos: g.keyframes[pos].ctx_states.data.tobytes() for pos in range(len(g.keyframes))}
    res = pa.run_inference(g, params, cfg)
    for pos, blob in before.items():
        assert res.ctx_states[pos].data.tobytes() == blob
        assert g.keyframes[pos].ctx_states.data.tobytes() == blob


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
        keyframes = [g.keyframes[pos] for pos in span]
        want = reference_inference([kf.fg_states.data for kf in keyframes],
                                   [kf.ctx_states.data for kf in keyframes], weights, ref_cfg)
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
        out = ng.concat_rows([res.fg_states[pos] for pos in sorted(res.fg_states)])
        return sp.mean_all(out)

    with ng.Tape() as tape:
        loss = forward(params)
    analytic = ng.grad(tape, loss, params)
    numeric = ng.finite_difference_grads(lambda p: forward(p).item(), params, step=1e-5)
    for name in params:
        err = ng.max_relative_error(analytic[name].data, numeric[name])
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"


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

    kf = g.keyframes[0]
    weights = pa.message_weights(params, 0, pa.PHASE_SPATIAL, pa.FN_GAT, 0)
    with np.errstate(over="ignore"):
        msgs, att = pa.gat_messages(kf.fg_states, ng.concat_rows([kf.fg_states, kf.ctx_states]),
                                    weights)
    assert np.all(np.isfinite(msgs.data))
    assert np.all(att.data == att.data[0, 0])

    with pytest.raises(NumericError) as err:
        pa.run_inference(g, params, config)
    assert "iteration 0 spatial phase" in str(err.value)
    assert "overflow" in str(err.value)
