from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgraph import graph as gr
from stgraph import passing as pa
from stgraph import train
from stgraph.errors import ConfigError, NumericError, ValidationError
from stgraph.numgrad import Tensor
from stgraph.passing import ModelConfig

from reference_eval import keyframe_states
from reference_layout import reference_layout


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


def pool(grid, box):
    """The pooled features of one box, through featurize_keyframe."""
    return gr.featurize_keyframe(grid, [box]).fg_feats[0]


def test_pool_frozen_example():
    # 1x2x2x1 grid [[1,2],[3,4]]; box covering the left column averages 1 and 3
    grid = make_grid(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    out = pool(grid, gr.Box(0.0, 0.0, 0.5, 1.0))
    assert out.tolist() == [2.0]


def test_pool_covers_all_time_steps():
    vals = np.zeros((2, 2, 2, 1))
    vals[0] = [[[1.0], [2.0]], [[3.0], [4.0]]]
    vals[1] = [[[5.0], [6.0]], [[7.0], [8.0]]]
    out = pool(make_grid(vals), gr.Box(0.0, 0.0, 0.5, 1.0))
    assert out.tolist() == [4.0]  # mean of 1,3,5,7


def test_pool_empty_box_falls_back_to_nearest_center():
    grid = make_grid(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
    # strictly inside the top-right cell but missing its center (0.75, 0.25)
    out = pool(grid, gr.Box(0.8, 0.3, 0.95, 0.45))
    assert out.tolist() == [2.0]


def test_pool_closed_interval_includes_boundary_center():
    grid = make_grid(np.array([[[[1.0], [2.0]]]]))  # 1x1x2x1, centers x = 0.25, 0.75
    out = pool(grid, gr.Box(0.0, 0.0, 0.25, 1.0))
    assert out.tolist() == [1.0]


def reference_pool(arr, box):
    """One box's features as a per-box mask and mean compute them."""
    t, h, w, c = arr.shape
    cx = (np.arange(w) + 0.5) / w
    cy = (np.arange(h) + 0.5) / h
    mask = np.outer((cy >= box.y1) & (cy <= box.y2), (cx >= box.x1) & (cx <= box.x2))
    if mask.any():
        return arr[:, mask, :].mean(axis=(0, 1))
    bx, by = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
    d2 = (cy[:, None] - by) ** 2 + (cx[None, :] - bx) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return arr[:, i, j, :].mean(axis=0)


def random_span(rng, n):
    """An interval inside [0, 1] over n cells: random, ending on cell centers, or missing them."""
    centers = (np.arange(n) + 0.5) / n
    kind = rng.integers(4)
    if kind == 0:
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
    elif kind == 1:  # both ends on centers, or one end on the only center
        a, b = np.sort(rng.choice(n, size=2)) if n > 1 else (0, 0)
        lo, hi = (centers[a], centers[b]) if a < b else (centers[a], 1.0)
    elif kind == 2:  # between a cell's edge and its center
        j = rng.integers(n)
        lo, hi = (j + np.sort(rng.uniform(0.05, 0.45, size=2))) / n
    else:  # around a cell edge, equally far from two centers
        edge = rng.integers(n + 1) / n
        lo, hi = max(edge - 0.2 / n, 0.0), min(edge + 0.2 / n, 1.0)
    if hi <= lo:
        lo, hi = 0.0, 1.0
    return float(lo), float(hi)


def test_pooling_matches_per_box_means_byte_for_byte():
    rng = np.random.default_rng(2024)
    fallbacks = on_centers = 0
    for _ in range(300):
        t, h, w = (int(v) for v in rng.integers(1, 9, size=3))
        c = int(rng.integers(1, 17))
        values = rng.normal(size=(t, h, w, c)) * 10.0 ** rng.integers(-6, 7, size=(t, h, w, c))
        grid = make_grid(values)
        boxes = []
        for _ in range(int(rng.integers(1, 9))):
            (x1, x2), (y1, y2) = random_span(rng, w), random_span(rng, h)
            boxes.append(gr.Box(x1, y1, x2, y2))
        props = boxes[: int(rng.integers(0, 3))]
        frame = gr.featurize_keyframe(grid, boxes[::-1], props)
        assert frame.fg_feats.tobytes() == np.stack(
            [reference_pool(values, b) for b in boxes[::-1]]).tobytes()
        if props:
            assert frame.prop_feats.tobytes() == np.stack(
                [reference_pool(values, b) for b in props]).tobytes()
        cx, cy = (np.arange(w) + 0.5) / w, (np.arange(h) + 0.5) / h
        for b in boxes:
            in_x = (cx >= b.x1) & (cx <= b.x2)
            in_y = (cy >= b.y1) & (cy <= b.y2)
            fallbacks += not (in_x.any() and in_y.any())
            on_centers += bool(np.isin([b.x1, b.x2], cx).any() or np.isin([b.y1, b.y2], cy).any())
    assert fallbacks > 100 and on_centers > 100  # both edge cases were exercised


def project(grid, boxes, props, params):
    """A one-keyframe graph."""
    return gr.build_graph([gr.featurize_keyframe(grid, boxes, props)], params,
                          SimpleNamespace(tau_c=1, tau_s=1))


def test_init_nodes_counts_and_kinds():
    rng = np.random.default_rng(0)
    grid = make_grid(rng.uniform(-1, 1, size=(2, 2, 3, 4)), keyframe_id=9)
    boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.4, 0.4, 0.9, 0.9)]
    props = [gr.Box(0.1, 0.1, 0.8, 0.8)]
    frame = gr.featurize_keyframe(grid, boxes, props)
    g = gr.build_graph([frame], identity_params(4), SimpleNamespace(tau_c=1, tau_s=1))
    [kf] = g.keyframes
    assert kf is frame  # the graph keeps the frames it was built from
    assert g.first_ids == [0]
    assert gr.node_ids(g, 0) == [0, 1]
    assert gr.node_ids(g, 0, context=True) == list(range(2 + 2 * 3 + 1))
    described = [kf.describe(row) for row in range(9)]
    assert [kind for kind, _, _ in described] == (
        [gr.FOREGROUND] * 2 + [gr.CONTEXT_IMPLICIT] * 6 + [gr.CONTEXT_EXPLICIT])
    assert [box for _, box, _ in described] == boxes + [None] * 6 + props
    assert [cell for _, _, cell in described] == (
        [None] * 2 + [(i, j) for i in range(2) for j in range(3)] + [None])
    fg, ctx = keyframe_states(g, 0)
    assert fg.shape == (2, 4)
    assert ctx.shape == (7, 4)
    assert kf.keyframe_id == 9
    # ids run on through a clip and restart in the next clip of a batch
    batch = gr.build_batch([[frame, frame], [frame]], identity_params(4),
                           SimpleNamespace(tau_c=1, tau_s=1))
    assert batch.first_ids == [0, 9, 0]
    assert gr.node_ids(batch, 1) == [9, 10]
    assert gr.node_ids(batch, 1, context=True) == list(range(9, 18))
    assert gr.node_ids(batch, 2, context=True) == list(range(9))


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
    g = project(make_grid(vals), [gr.Box(0.0, 0.0, 1.0, 1.0)], [], identity_params(3))
    _, ctx = keyframe_states(g, 0)
    assert ctx[0].tolist() == [2.0, 3.0, 4.0]
    assert ctx[1].tolist() == [15.0, 15.0, 15.0]


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
    n_total = 2 + 4 + 1
    # only foreground nodes receive, one record each
    assert [r.node_id for r in records] == gr.node_ids(g, 0) == [0, 1]
    for r in records:
        assert len(r.neighbor_ids) == n_total
        assert r.node_id in r.neighbor_ids  # self included
        assert r.neighbor_ids == gr.node_ids(g, 0, context=True) == list(range(n_total))


def test_temporal_offsets_examples():
    assert gr.temporal_offsets(3) == [-1, 1]
    assert gr.temporal_offsets(1) == []
    assert gr.temporal_offsets(5) == [-2, -1, 1, 2]
    with pytest.raises(ConfigError):
        gr.temporal_offsets(4)
    with pytest.raises(ConfigError):
        gr.temporal_offsets(0)


def test_windows_list_the_offsets_that_stay_inside_the_clip():
    # the table against its definition: position i of a clip of length
    # keyframes reads i + t * tau_s for each window offset t inside the clip
    for tau_c in range(1, 10, 2):
        for tau_s in (1, 2, 3):
            offsets = tuple(t * tau_s for t in gr.temporal_offsets(tau_c))
            for length in range(1, 11):
                span = range(length)
                assert gr._windows(length, offsets) == tuple(
                    tuple(t for t in offsets if i + t in span) for i in span)


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


def build_clip_graph_frames(seed=0, keyframes=3, c=4):
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(keyframes):
        grid = make_grid(rng.uniform(-1, 1, size=(1, 2, 2, c)), keyframe_id=k * 5)
        boxes = [gr.Box(0.0, 0.0, 0.5, 0.5), gr.Box(0.5, 0.5, 1.0, 1.0)]
        props = [gr.Box(0.25, 0.25, 0.75, 0.75)]
        frames.append(gr.featurize_keyframe(grid, boxes, props))
    return frames


def build_clip_graph(seed=0, keyframes=3, tau_c=3, tau_s=1, c=4):
    config = SimpleNamespace(tau_c=tau_c, tau_s=tau_s)
    return gr.build_graph(build_clip_graph_frames(seed, keyframes, c), identity_params(c), config)


def test_build_graph_structure():
    g = build_clip_graph()
    assert len(g.keyframes) == 3
    # ids run keyframe after keyframe: 2 boxes, 4 cells and 1 proposal each
    assert g.first_ids == [0, 7, 14]
    assert [kf.keyframe_id for kf in g.keyframes] == [0, 5, 10]
    assert gr.node_ids(g, 1) == [7, 8]
    assert gr.node_ids(g, 1, context=True) == list(range(7, 14))
    # middle keyframe sees both sides, edges see one
    assert g.temporal == [[1], [0, 2], [1]]


def test_blocks_do_not_mix_keyframes_with_and_without_temporal_neighbors():
    # four keyframes of one shape, as a 3-keyframe and a 1-keyframe clip: at
    # tau_c=3 the lone keyframe has no temporal neighbors and a block of its own
    frames = build_clip_graph_frames(keyframes=4)
    params = identity_params(4)
    g = gr.build_batch([frames[:3], frames[3:]], params, SimpleNamespace(tau_c=3, tau_s=1))
    assert g.temporal == [[1], [0, 2], [1], []]
    assert [b.positions for b in g.blocks] == [[0, 1, 2], [3]]
    for block in g.blocks:
        assert len({bool(g.temporal[pos]) for pos in block.positions}) == 1
    assert g.where == [(0, 0), (0, 1), (0, 2), (1, 0)]
    # at tau_c=1 no keyframe has temporal neighbors, and all four share a block
    g1 = gr.build_batch([frames[:3], frames[3:]], params, SimpleNamespace(tau_c=1, tau_s=1))
    assert [b.positions for b in g1.blocks] == [[0, 1, 2, 3]]


def test_node_ids_are_sequential_and_deterministic():
    a = build_clip_graph(seed=3)
    b = build_clip_graph(seed=3)
    ids = [i for pos in range(3) for i in gr.node_ids(a, pos, context=True)]
    assert ids == list(range(3 * (2 + 4 + 1)))
    assert a.first_ids == b.first_ids
    for pos, (ka, kb) in enumerate(zip(a.keyframes, b.keyframes)):
        assert [ka.describe(r) for r in range(7)] == [kb.describe(r) for r in range(7)]
        for sa, sb in zip(keyframe_states(a, pos), keyframe_states(b, pos)):
            assert sa.tobytes() == sb.tobytes()


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", ["fg_feats", "ctx_feats", "prop_feats"])
def test_non_finite_features_fail_the_input_projection(kind, bad):
    # the feature stacks are not scanned on their way in; the projection's
    # checks name the layer, whatever the weights (a zero weight row included)
    box = gr.Box(0.0, 0.0, 1.0, 1.0)
    feats = {"fg_feats": np.ones((2, 3)), "ctx_feats": np.ones((4, 3)),
             "prop_feats": np.ones((1, 3))}
    feats[kind][-1, 1] = bad
    frame = gr.KeyframeFeatures(keyframe_id=0, fg_boxes=[box] * 2, grid_hw=(2, 2),
                                prop_boxes=[box], **feats)
    weights = np.ones((3, 4))
    weights[1, 0] = 0.0
    params = {name: Tensor(weights) for name in (gr.PROJ_FOREGROUND, gr.PROJ_CONTEXT,
                                                  gr.PROJ_PROPOSAL)}
    with pytest.raises(NumericError, match="input projection"):
        gr.build_graph([frame], params, SimpleNamespace(tau_c=1, tau_s=1))


@pytest.mark.parametrize("kind", ["fg_feats", "ctx_feats", "prop_feats"])
def test_a_block_of_keyframes_whose_feature_widths_differ_fails_to_stack(kind):
    # the block key fixes row counts, not widths; a block's stacks are one
    # concatenate each, which refuses arrays of differing widths, so no
    # keyframe's features are ever cut across rows
    box = gr.Box(0.0, 0.0, 1.0, 1.0)
    rows = {"fg_feats": 2, "ctx_feats": 4, "prop_feats": 1}
    clip = []
    for width in (3, 1):
        feats = {name: np.ones((n, width if name == kind else 3)) for name, n in rows.items()}
        clip.append(gr.KeyframeFeatures(keyframe_id=len(clip), fg_boxes=[box] * 2,
                                        grid_hw=(2, 2), prop_boxes=[box], **feats))
    params = dict.fromkeys((gr.PROJ_FOREGROUND, gr.PROJ_CONTEXT, gr.PROJ_PROPOSAL),
                           Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError):
        gr.build_graph(clip, params, SimpleNamespace(tau_c=1, tau_s=1))


# a keyframe as (boxes, grid rows, grid columns, proposals)
_KEYFRAME = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(clips=st.lists(st.lists(_KEYFRAME, min_size=1, max_size=9), min_size=1, max_size=4),
       tau_c=st.sampled_from([1, 3, 5, 7]), tau_s=st.sampled_from([1, 2]),
       seed=st.integers(0, 99))
def test_layout_matches_the_per_keyframe_oracle(clips, tau_c, tau_s, seed):
    # the one-pass build against the keyframe-by-keyframe one, on ragged
    # batches: every list equal, every group's slices, rows and plan equal,
    # and every block stack byte for byte; windows may be wider than a
    # clip, and a long clip's interior keyframes read every offset
    rng = np.random.default_rng(seed)
    c, d = 3, 4
    box = gr.Box(0.0, 0.0, 1.0, 1.0)
    frames = [[gr.KeyframeFeatures(
        keyframe_id=i, fg_boxes=[box] * n, fg_feats=rng.normal(size=(n, c)),
        ctx_feats=rng.normal(size=(h * w, c)), grid_hw=(h, w), prop_boxes=[box] * p,
        prop_feats=rng.normal(size=(p, c)) if p else None)
        for i, (n, h, w, p) in enumerate(clip)] for clip in clips]
    weights = {"foreground": rng.normal(size=(c, d)), "context": rng.normal(size=(c, d)),
               "proposal": rng.normal(size=(c, d))}
    params = {gr.PROJ_FOREGROUND: Tensor(weights["foreground"]),
              gr.PROJ_CONTEXT: Tensor(weights["context"]),
              gr.PROJ_PROPOSAL: Tensor(weights["proposal"])}
    g = gr.build_batch(frames, params, SimpleNamespace(tau_c=tau_c, tau_s=tau_s))
    want = reference_layout(frames, weights, tau_c, tau_s)

    assert g.clips == want["spans"]
    assert g.where == want["where"]
    assert [b.positions for b in g.blocks] == want["positions"]
    assert g.temporal == want["temporal"]
    assert g.first_ids == want["first_ids"]
    # each temporal layout pair with its Gather, as the oracle's (slices, rows, plan)
    assert [[(slices, gather.rows.tolist(), gather.plan)
             for slices, gather in zip(temporal.slices if gathers else (), gathers)]
            for (_, temporal), gathers in zip(g.layouts, g.gathers)] == want["groups"]
    for block, (fg, ctx) in zip(g.blocks, want["stacks"]):
        assert block.fg_states.data.tobytes() == fg.tobytes()
        assert block.ctx_states.data.tobytes() == ctx.tobytes()
    # each block's layouts fix its Gathers' shapes, and its own rows then context
    rows = sum(b.fg_states.shape[0] * b.fg_states.shape[1] for b in g.blocks)
    for block, (spatial, temporal), gathers in zip(g.blocks, g.layouts, g.gathers):
        count, n = block.fg_states.shape[:2]
        assert spatial.shapes == [(count, n + block.ctx_states.shape[1])]
        if not gathers:
            assert temporal is None
            continue
        assert temporal.shapes == [gather.rows.shape for gather in gathers]
        assert all(gather.sources == rows for gather in gathers)
