from types import SimpleNamespace

import numpy as np
import pytest

from stgraph import graph as gr
from stgraph.errors import ConfigError, ValidationError
from stgraph.numgrad import Tensor


def make_grid(values, keyframe_id=0):
    return gr.FeatureGrid(values=Tensor(np.asarray(values, dtype=float)), keyframe_id=keyframe_id)


def identity_params(c):
    eye = Tensor(np.eye(c))
    return {gr.PROJ_FOREGROUND: eye, gr.PROJ_CONTEXT: eye, gr.PROJ_PROPOSAL: eye}


def test_box_validation():
    with pytest.raises(ValidationError):
        gr.Box(0.5, 0.0, 0.5, 1.0)  # zero width
    with pytest.raises(ValidationError):
        gr.Box(0.6, 0.0, 0.4, 1.0)  # inverted
    with pytest.raises(ValidationError):
        gr.Box(-0.1, 0.0, 0.5, 1.0)  # out of range
    gr.Box(0.0, 0.0, 1.0, 1.0)


def test_pool_frozen_example():
    # 1x2x2x1 grid [[1,2],[3,4]]; box covering the left column averages 1 and 3
    grid = make_grid(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    out = gr.pool_box_features(grid, gr.Box(0.0, 0.0, 0.5, 1.0))
    assert out.tolist() == [2.0]


def test_pool_covers_all_time_steps():
    vals = np.zeros((2, 2, 2, 1))
    vals[0] = [[[1.0], [2.0]], [[3.0], [4.0]]]
    vals[1] = [[[5.0], [6.0]], [[7.0], [8.0]]]
    out = gr.pool_box_features(make_grid(vals), gr.Box(0.0, 0.0, 0.5, 1.0))
    assert out.tolist() == [4.0]  # mean of 1,3,5,7


def test_pool_empty_box_falls_back_to_nearest_center():
    grid = make_grid(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    # strictly inside the top-right cell but missing its center (0.75, 0.25)
    out = gr.pool_box_features(grid, gr.Box(0.8, 0.3, 0.95, 0.45))
    assert out.tolist() == [2.0]


def test_pool_closed_interval_includes_boundary_center():
    grid = make_grid(np.array([[[[1.0], [2.0]]]]))  # 1x1x2x1, centers x = 0.25, 0.75
    out = gr.pool_box_features(grid, gr.Box(0.0, 0.0, 0.25, 1.0))
    assert out.tolist() == [1.0]


def test_init_nodes_counts_and_kinds():
    rng = np.random.default_rng(0)
    grid = make_grid(rng.uniform(-1, 1, size=(2, 2, 3, 4)), keyframe_id=9)
    boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.4, 0.4, 0.9, 0.9)]
    props = [gr.Box(0.1, 0.1, 0.8, 0.8)]
    kf = gr.init_nodes(grid, boxes, props, identity_params(4), None)
    assert len(kf.fg_ids) == 2
    assert len(kf.ctx_ids) == 2 * 3 + 1
    kinds = [kf.nodes[i].kind for i in range(len(kf.nodes))]
    assert kinds == [gr.FOREGROUND] * 2 + [gr.CONTEXT_IMPLICIT] * 6 + [gr.CONTEXT_EXPLICIT]
    assert kf.fg_states.shape == (2, 4)
    assert kf.ctx_states.shape == (7, 4)
    assert all(kf.nodes[i].node_id == i for i in range(len(kf.nodes)))
    assert kf.nodes[0].keyframe_id == 9


def test_init_nodes_requires_foreground():
    grid = make_grid(np.zeros((1, 2, 2, 4)))
    with pytest.raises(ValidationError) as err:
        gr.init_nodes(grid, [], [], identity_params(4), None)
    assert "no foreground" in str(err.value)


def test_implicit_context_is_temporal_mean_per_cell():
    vals = np.zeros((2, 1, 2, 3))
    vals[0, 0, 0] = [1.0, 2.0, 3.0]
    vals[1, 0, 0] = [3.0, 4.0, 5.0]
    vals[0, 0, 1] = [10.0, 10.0, 10.0]
    vals[1, 0, 1] = [20.0, 20.0, 20.0]
    kf = gr.init_nodes(make_grid(vals), [gr.Box(0.0, 0.0, 1.0, 1.0)], [], identity_params(3), None)
    assert kf.ctx_states.data[0].tolist() == [2.0, 3.0, 4.0]
    assert kf.ctx_states.data[1].tolist() == [15.0, 15.0, 15.0]


def test_spatial_neighborhoods_cover_whole_keyframe():
    rng = np.random.default_rng(1)
    grid = make_grid(rng.uniform(-1, 1, size=(1, 2, 2, 4)))
    boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.5, 0.5, 1.0, 1.0)]
    kf = gr.init_nodes(grid, boxes, [gr.Box(0.2, 0.2, 0.7, 0.7)], identity_params(4), None)
    adj = gr.build_spatial_neighborhoods(kf.nodes)
    n_total = len(kf.nodes)
    for i in kf.fg_ids:
        assert len(adj[i]) == n_total
        assert i in adj[i]  # self included
        assert adj[i] == kf.fg_ids + kf.ctx_ids
    for j in kf.ctx_ids:
        assert adj[j] == []


def test_temporal_offsets_examples():
    assert gr.temporal_offsets(3) == [-1, 1]
    assert gr.temporal_offsets(1) == []
    assert gr.temporal_offsets(5) == [-2, -1, 1, 2]
    with pytest.raises(ConfigError):
        gr.temporal_offsets(4)
    with pytest.raises(ConfigError):
        gr.temporal_offsets(0)


def test_temporal_neighborhoods_window_and_stride():
    # tau_c=3, tau_s=7: neighbors at offsets -7 and +7 exactly
    fg = {k: [100 + k] for k in range(15)}
    adj = gr.build_temporal_neighborhoods(fg, 15, tau_c=3, tau_s=7)
    assert adj[100 + 7] == [100 + 0, 100 + 14]
    assert adj[100 + 0] == [100 + 7]   # -7 falls outside and is dropped
    assert adj[100 + 14] == [100 + 7]


def test_temporal_window_one_is_empty():
    fg = {k: [k] for k in range(5)}
    adj = gr.build_temporal_neighborhoods(fg, 5, tau_c=1, tau_s=3)
    assert all(adj[k] == [] for k in range(5))


def test_temporal_boundary_keyframe_keeps_forward_half():
    # tau_c=5, tau_s=2 at position 0 of 0..10: only +2 and +4 remain
    fg = {k: [k * 10] for k in range(11)}
    adj = gr.build_temporal_neighborhoods(fg, 11, tau_c=5, tau_s=2)
    assert adj[0] == [20, 40]
    assert adj[50] == [10, 30, 70, 90]


def test_temporal_stride_validation():
    with pytest.raises(ConfigError):
        gr.build_temporal_neighborhoods({0: [0]}, 1, tau_c=3, tau_s=0)


def build_clip_graph(seed=0, keyframes=3, tau_c=3, tau_s=1, c=4):
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(keyframes):
        grid = make_grid(rng.uniform(-1, 1, size=(1, 2, 2, c)), keyframe_id=k * 5)
        boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.5, 0.5, 1.0, 1.0)]
        props = [gr.Box(0.25, 0.25, 0.75, 0.75)]
        frames.append(gr.featurize_keyframe(grid, boxes, props))
    config = SimpleNamespace(tau_c=tau_c, tau_s=tau_s)
    return gr.build_graph(frames, identity_params(c), config)


def test_build_graph_structure():
    g = build_clip_graph()
    assert g.num_positions == 3
    assert g.num_nodes == 3 * (2 + 4 + 1)
    # temporal neighbors hold only foreground nodes
    fg_ids = {n.node_id for n in g.nodes.values() if n.kind == gr.FOREGROUND}
    for i, nbrs in g.temporal.items():
        assert all(j in fg_ids for j in nbrs)
        if g.node(i).kind != gr.FOREGROUND:
            assert nbrs == []
    # middle keyframe sees both sides, edges see one
    mid_fg = g.by_pos[1].fg_ids
    assert g.temporal_neighbors(mid_fg[0]) == g.by_pos[0].fg_ids + g.by_pos[2].fg_ids
    assert g.temporal_positions(1) == [0, 2]
    assert g.temporal_positions(0) == [1]


def test_node_ids_are_sequential_and_deterministic():
    a = build_clip_graph(seed=3)
    b = build_clip_graph(seed=3)
    assert sorted(a.nodes) == list(range(a.num_nodes))
    for i in a.nodes:
        assert a.node(i).kind == b.node(i).kind
    for ka, kb in zip(a.keyframes, b.keyframes):
        assert ka.fg_states.data.tobytes() == kb.fg_states.data.tobytes()
        assert ka.ctx_states.data.tobytes() == kb.ctx_states.data.tobytes()


def test_spatial_size_property_random_scenes():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(0, 3))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        grid = make_grid(rng.uniform(-1, 1, size=(1, h, w, 4)))
        boxes = []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 0.5, size=2)
            boxes.append(gr.Box(x1, y1, x1 + rng.uniform(0.1, 0.5), y1 + rng.uniform(0.1, 0.5)))
        props = [gr.Box(0.1, 0.1, 0.9, 0.9)] * p
        kf = gr.init_nodes(grid, boxes, props, identity_params(4), None)
        adj = gr.build_spatial_neighborhoods(kf.nodes)
        for i in kf.fg_ids:
            assert len(adj[i]) == n + h * w + p
