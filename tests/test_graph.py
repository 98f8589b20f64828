from types import SimpleNamespace

import numpy as np
import pytest

from stgraph import graph as gr
from stgraph import passing as pa
from stgraph import train
from stgraph.errors import ConfigError, ValidationError
from stgraph.numgrad import Tensor
from stgraph.passing import ModelConfig


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


def project(grid, boxes, props, params):
    """The keyframe of a one-keyframe graph."""
    [kf] = gr.build_graph([gr.featurize_keyframe(grid, boxes, props)], params,
                          SimpleNamespace(tau_c=1, tau_s=1)).keyframes
    return kf


def test_init_nodes_counts_and_kinds():
    rng = np.random.default_rng(0)
    grid = make_grid(rng.uniform(-1, 1, size=(2, 2, 3, 4)), keyframe_id=9)
    boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.4, 0.4, 0.9, 0.9)]
    props = [gr.Box(0.1, 0.1, 0.8, 0.8)]
    kf = project(grid, boxes, props, identity_params(4))
    assert kf.fg_ids == [0, 1]
    assert kf.ctx_ids == list(range(2, 2 + 2 * 3 + 1))
    described = [kf.describe(row) for row in range(9)]
    assert [kind for kind, _, _ in described] == (
        [gr.FOREGROUND] * 2 + [gr.CONTEXT_IMPLICIT] * 6 + [gr.CONTEXT_EXPLICIT])
    assert [box for _, box, _ in described] == boxes + [None] * 6 + props
    assert [cell for _, _, cell in described] == (
        [None] * 2 + [(i, j) for i in range(2) for j in range(3)] + [None])
    assert kf.fg_states.shape == (2, 4)
    assert kf.ctx_states.shape == (7, 4)
    assert kf.keyframe_id == 9
    # ids run on through a clip and restart in the next clip of a batch
    frame = gr.featurize_keyframe(grid, boxes, props)
    batch = gr.build_batch([[frame, frame], [frame]], identity_params(4),
                           SimpleNamespace(tau_c=1, tau_s=1))
    assert [k.first_id for k in batch.keyframes] == [0, 9, 0]
    assert batch.keyframes[1].fg_ids == [9, 10]
    assert batch.keyframes[1].ctx_ids == list(range(11, 18))


def test_init_nodes_requires_foreground():
    grid = make_grid(np.zeros((1, 2, 2, 4)))
    with pytest.raises(ValidationError) as err:
        project(grid, [], [], identity_params(4))
    assert "no foreground" in str(err.value)


def test_implicit_context_is_temporal_mean_per_cell():
    vals = np.zeros((2, 1, 2, 3))
    vals[0, 0, 0] = [1.0, 2.0, 3.0]
    vals[1, 0, 0] = [3.0, 4.0, 5.0]
    vals[0, 0, 1] = [10.0, 10.0, 10.0]
    vals[1, 0, 1] = [20.0, 20.0, 20.0]
    kf = project(make_grid(vals), [gr.Box(0.0, 0.0, 1.0, 1.0)], [], identity_params(3))
    assert kf.ctx_states.data[0].tolist() == [2.0, 3.0, 4.0]
    assert kf.ctx_states.data[1].tolist() == [15.0, 15.0, 15.0]


def spatial_records(frames, c=4):
    """Spatial attention records of one traced inference over frames."""
    config = ModelConfig(state_dim=c, heads=1, feature_channels=c, seed=0)
    params = train.init_params(config)
    g = gr.build_graph(frames, params, config)
    result = pa.run_inference(g, params, config, record_traces=True)
    return g, [r for r in result.attention if r.phase == pa.PHASE_SPATIAL]


def test_spatial_neighborhoods_cover_whole_keyframe():
    rng = np.random.default_rng(1)
    grid = make_grid(rng.uniform(-1, 1, size=(1, 2, 2, 4)))
    boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.5, 0.5, 1.0, 1.0)]
    g, records = spatial_records([gr.featurize_keyframe(grid, boxes, [gr.Box(0.2, 0.2, 0.7, 0.7)])])
    [kf] = g.keyframes
    n_total = 2 + 4 + 1
    # only foreground nodes receive, one record each
    assert [r.node_id for r in records] == kf.fg_ids
    for r in records:
        assert len(r.neighbor_ids) == n_total
        assert r.node_id in r.neighbor_ids  # self included
        assert r.neighbor_ids == kf.fg_ids + kf.ctx_ids


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
    g = build_clip_graph(keyframes=15, tau_c=3, tau_s=7)
    assert g.temporal[7] == [0, 14]
    assert g.temporal[0] == [7]   # -7 falls outside and is dropped
    assert g.temporal[14] == [7]


def test_temporal_window_one_is_empty():
    g = build_clip_graph(keyframes=5, tau_c=1, tau_s=3)
    assert g.temporal == [[]] * 5


def test_temporal_boundary_keyframe_keeps_forward_half():
    # tau_c=5, tau_s=2 at position 0 of 0..10: only +2 and +4 remain
    g = build_clip_graph(keyframes=11, tau_c=5, tau_s=2)
    assert g.temporal[0] == [2, 4]
    assert g.temporal[5] == [1, 3, 7, 9]


def test_temporal_stride_validation():
    with pytest.raises(ConfigError):
        build_clip_graph(keyframes=1, tau_c=3, tau_s=0)


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
    assert len(g.keyframes) == 3
    # ids run keyframe after keyframe: 2 boxes, 4 cells and 1 proposal each
    assert [kf.first_id for kf in g.keyframes] == [0, 7, 14]
    assert [kf.keyframe_id for kf in g.keyframes] == [0, 5, 10]
    assert g.keyframes[1].fg_ids == [7, 8]
    assert g.keyframes[1].ctx_ids == list(range(9, 14))
    # middle keyframe sees both sides, edges see one
    assert g.temporal == [[1], [0, 2], [1]]


def test_node_ids_are_sequential_and_deterministic():
    a = build_clip_graph(seed=3)
    b = build_clip_graph(seed=3)
    ids = [i for kf in a.keyframes for i in kf.fg_ids + kf.ctx_ids]
    assert ids == list(range(3 * (2 + 4 + 1)))
    for ka, kb in zip(a.keyframes, b.keyframes):
        assert ka.first_id == kb.first_id
        assert [ka.describe(r) for r in range(7)] == [kb.describe(r) for r in range(7)]
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
        _, records = spatial_records([gr.featurize_keyframe(grid, boxes, props)])
        assert len(records) == n
        for r in records:
            assert len(r.neighbor_ids) == n + h * w + p
