"""Acceptance suite: the ten shipping criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Every tolerance is
pinned in the assertion itself; timing budgets are asserted where the
criterion carries one.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from reference_eval import keyframe_states, reference_inference

import stgraph.numgrad as ng
from stgraph import data, graph as gr, metrics as mt, passing as pa, train
from stgraph.cli import main as cli_main
from stgraph.flops import estimate_flops
from stgraph.heads import SceneGraphPrediction, action_loss, pair_index, sg_loss
from stgraph.numgrad import Tensor, sigmoid_values
from stgraph.passing import ModelConfig
from stgraph.train import Schedule, lr_at


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


def make_frames(config, seed=0, keyframes=3, n_boxes=2, n_props=1, hw=(1, 2)):
    rng = np.random.default_rng(seed)
    h, w = hw
    frames = []
    for k in range(keyframes):
        grid = gr.FeatureGrid(
            values=Tensor(rng.uniform(-1, 1, size=(2, h, w, config.feature_channels))),
            keyframe_id=k)
        boxes = []
        for _ in range(n_boxes):
            x1, y1 = rng.uniform(0.0, 0.45, size=2)
            boxes.append(gr.Box(x1, y1, x1 + rng.uniform(0.2, 0.5), y1 + rng.uniform(0.2, 0.5)))
        props = [gr.Box(0.2, 0.2, 0.8, 0.8)] * n_props
        frames.append(gr.featurize_keyframe(grid, boxes, props))
    return frames


def test_criterion_01_inference_matches_independent_reference():
    """Full model vs a plain-loop reimplementation, max |diff| <= 1e-8, < 10 s."""
    started = time.monotonic()
    config = ModelConfig(state_dim=6, heads=2, iterations=2,
                         message_fns=(pa.FN_NONLOCAL, pa.FN_GAT),
                         tau_c=3, tau_s=1, task=pa.TASK_ACTION,
                         feature_channels=4, action_classes=2, seed=0)
    params = random_params(config, seed=101)
    # 3 keyframes, each with 2 foreground, 2 implicit, 1 explicit context node
    frames = make_frames(config, seed=101, keyframes=3, n_boxes=2, n_props=1, hw=(1, 2))
    g = gr.build_graph(frames, params, config)
    fg0, ctx0 = zip(*[keyframe_states(g, pos) for pos in range(len(g.keyframes))])
    assert all(fg.shape[0] == 2 for fg in fg0)
    assert all(ctx.shape[0] == 3 for ctx in ctx0)
    result = pa.run_inference(g, params, config)
    weights = {name: t.data for name, t in params.items()}
    want = reference_inference(fg0, ctx0, weights, dict(
        state_dim=config.state_dim, heads=config.heads, iterations=config.iterations,
        message_fns=list(config.message_fns), tau_c=config.tau_c, tau_s=config.tau_s,
        ln_eps=config.ln_eps))
    worst = max(float(np.max(np.abs(result.fg_states[p].data - want[p])))
                for p in range(len(g.keyframes)))
    elapsed = time.monotonic() - started
    assert worst <= 1e-8, f"max deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_gradients_match_finite_differences():
    """Analytic vs central-difference gradients, every parameter, both tasks,
    relative error <= 1e-4 on graphs of at most 8 nodes, < 2 min."""
    started = time.monotonic()
    action = ModelConfig(state_dim=4, heads=1, iterations=1,
                         message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), tau_c=3, tau_s=1,
                         task=pa.TASK_ACTION, feature_channels=3, action_classes=2, seed=11)
    # 2 keyframes x (1 fg + 2 implicit + 1 explicit) = 8 nodes
    assert 2 * (1 + 1 * 2 + 1) == 8
    errs = train.gradient_check(action, seed=11, step=1e-5, keyframes=2,
                                n_boxes=1, grid_hw=(1, 2))
    worst_action = max(errs.values())
    assert worst_action <= 1e-4, f"action worst {worst_action:.3e}"

    scenegraph = ModelConfig(state_dim=4, heads=1, iterations=1,
                             message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), tau_c=3, tau_s=1,
                             task=pa.TASK_SCENEGRAPH, feature_channels=3,
                             object_classes=3, relation_classes=2, seed=12)
    # 2 keyframes x (2 fg + 1 implicit + 1 explicit) = 8 nodes
    assert 2 * (2 + 1 * 1 + 1) == 8
    errs = train.gradient_check(scenegraph, seed=12, step=1e-5, keyframes=2,
                                n_boxes=2, grid_hw=(1, 1))
    worst_sg = max(errs.values())
    elapsed = time.monotonic() - started
    assert worst_sg <= 1e-4, f"scene graph worst {worst_sg:.3e}"
    assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_03_attention_rows_are_distributions():
    """>= 10^4 randomized attention rows: sum to 1 within 1e-10, entries in
    [0, 1], and context states bit-identical before and after inference."""
    variants = [
        dict(message_fns=(pa.FN_NONLOCAL,), heads=2, iterations=2, tau_c=3, tau_s=1),
        dict(message_fns=(pa.FN_GAT,), heads=3, iterations=1, tau_c=5, tau_s=2),
        dict(message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), heads=2, iterations=2, tau_c=3, tau_s=1),
        dict(message_fns=(pa.FN_NONLOCAL, pa.FN_GAT), heads=1, iterations=2, tau_c=1, tau_s=1),
    ]
    rows = 0
    trial = 0
    while rows < 10_000:
        kw = variants[trial % len(variants)]
        config = ModelConfig(state_dim=5, task=pa.TASK_ACTION, feature_channels=3,
                             action_classes=2, seed=0, **kw)
        params = random_params(config, seed=1000 + trial)
        frames = make_frames(config, seed=2000 + trial, keyframes=4, n_boxes=2,
                             n_props=1, hw=(1, 2))
        g = gr.build_graph(frames, params, config)
        before = [keyframe_states(g, p)[1].tobytes() for p in range(len(g.keyframes))]
        result = pa.run_inference(g, params, config, record_traces=True)
        for rec in result.attention:
            w = rec.weights
            assert abs(float(w.sum()) - 1.0) <= 1e-10
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            rows += 1
        for rec in result.gates:
            w = rec.weights
            assert abs(float(w.sum()) - 1.0) <= 1e-10
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
        assert [keyframe_states(g, p)[1].tobytes() for p in range(len(g.keyframes))] == before
        trial += 1
    assert rows >= 10_000


def test_criterion_04_learning_rate_schedule_is_exact():
    """Warmup and decay values match the published schedule to 1e-12."""
    s = Schedule()
    assert abs(lr_at(0.0, s) - 1.25e-4) <= 1e-12
    assert abs(lr_at(2.5, s) - 0.0500625) <= 1e-12
    assert abs(lr_at(5.0, s) - 0.1) <= 1e-12
    assert abs(lr_at(12.0, s) - 0.01) <= 1e-12
    assert abs(lr_at(16.0, s) - 0.001) <= 1e-12
    assert abs(lr_at(19.99, s) - 0.001) <= 1e-12
    # proportional rescaling: positions stretch, values match
    doubled = s.scaled(40.0)
    assert doubled.warmup_epochs == 10.0
    assert doubled.decay_epochs == (20.0, 30.0)
    for e in (0.0, 1.0, 2.5, 5.0, 9.0, 12.0, 16.0, 19.5):
        assert abs(lr_at(2.0 * e, doubled) - lr_at(e, s)) <= 1e-12


def test_criterion_05_loss_hand_values_and_weighting():
    """Frozen loss values to 1e-12 and the object/relation mix honored."""
    # each loss over one clip of one keyframe: a stack of one (n, C) slice
    one_keyframe = [[(0, 0)]]
    # binary cross entropy at zero logits is ln 2 regardless of labels
    logits = Tensor(np.zeros((1, 2, 3)))
    labels = np.array([[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]])
    assert abs(action_loss([logits], [labels], one_keyframe).item() - math.log(2.0)) <= 1e-12
    # frozen two-element case: x=[1,-1], z=[1,0] -> mean log1p(exp(-1))
    v = action_loss([Tensor(np.array([[[1.0, -1.0]]]))], [np.array([[[1.0, 0.0]]])],
                    one_keyframe).item()
    assert abs(v - math.log1p(math.exp(-1.0))) <= 1e-12

    # scene graph: uniform object logits give ln C, zero relation logits ln 2
    obj = [Tensor(np.zeros((1, 2, 7)))]
    onehot = [np.array([[[1.0] + [0.0] * 6, [0.0] * 6 + [1.0]]])]
    rel = [Tensor(np.zeros((1, 1, 4)))]
    rel_t = [np.zeros((1, 1, 4))]
    for lam in (0.0, 0.25, 0.5, 1.0):
        got = sg_loss(obj, onehot, rel, rel_t, one_keyframe, lam=lam).item()
        want = lam * math.log(7.0) + math.log(2.0)
        assert abs(got - want) <= 1e-12, f"lam={lam}"
    # without a relation term the object part stands alone
    got = sg_loss(obj, onehot, [None], [None], one_keyframe, lam=0.5).item()
    assert abs(got - 0.5 * math.log(7.0)) <= 1e-12

    # gradient of the stable form is exactly (sigmoid(x) - z) / count
    x = np.array([[[0.7, -1.3], [2.0, 0.0]]])
    z = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    xt = Tensor(x, requires_grad=True, name="x")
    with ng.Tape() as tape:
        loss = action_loss([xt], [z], one_keyframe)
    g = ng.grad(tape, loss, {"x": xt})["x"].data
    assert np.max(np.abs(g - (sigmoid_values(x) - z) / 4.0)) <= 1e-12


def test_criterion_06_metric_hand_cases_and_invariance():
    """Frame AP equals the enumerated 5/6 case, survives monotone score
    transforms, and recall matches a brute-force oracle."""
    box_a = gr.Box(0.05, 0.05, 0.45, 0.45)
    box_b = gr.Box(0.55, 0.55, 0.95, 0.95)
    box_far = gr.Box(0.05, 0.55, 0.45, 0.95)
    gts = [mt.GroundTruthBox("c", 0, box_a, 0), mt.GroundTruthBox("c", 1, box_b, 0)]
    dets = [mt.Detection("c", 0, box_a, 0, 0.9),
            mt.Detection("c", 0, box_far, 0, 0.6),
            mt.Detection("c", 1, box_b, 0, 0.3)]
    per_class, mean = mt.frame_ap(dets, gts)
    assert abs(mean - 5.0 / 6.0) <= 1e-12

    # ten random strictly monotone transforms leave AP untouched
    rng = np.random.default_rng(60)
    many_gts, many_dets = [], []
    for f in range(8):
        many_gts.append(mt.GroundTruthBox("c", f, box_a, f % 2))
        for _ in range(3):
            box = box_a if rng.uniform() < 0.5 else box_b
            many_dets.append(mt.Detection("c", f, box, int(rng.integers(2)),
                                          float(rng.uniform())))
    _, base = mt.frame_ap(many_dets, many_gts)
    for _ in range(10):
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(0.1, 2.0))
        moved = [mt.Detection(d.clip_id, d.keyframe_id, d.box, d.class_id,
                              a * math.atan(c * d.score) + b) for d in many_dets]
        _, m = mt.frame_ap(moved, many_gts)
        assert m == base

    # recall against brute-force enumeration of all pair x relation candidates
    def softmax_rows(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    for trial in range(20):
        n, n_obj, n_rel = 3, 4, 3
        obj = rng.uniform(-2, 2, size=(n, n_obj))
        pairs = pair_index(n)
        rel = rng.uniform(-2, 2, size=(len(pairs), n_rel))
        pred = SceneGraphPrediction(Tensor(obj), pairs, Tensor(rel))
        probs = softmax_rows(obj)
        cls = probs.argmax(axis=1)
        rel_probs = sigmoid_values(rel)
        candidates = []
        for row, (i, j) in enumerate(pairs):
            for r in range(n_rel):
                score = probs[i, cls[i]] * rel_probs[row, r] * probs[j, cls[j]]
                candidates.append((score, (i, j, int(cls[i]), int(cls[j]), r)))
        candidates.sort(key=lambda t: -t[0])
        gt = [mt.Triplet(2, 0, int(cls[2]), int(cls[0]), int(rng.integers(n_rel))),
              mt.Triplet(1, 0, int(cls[1]), int(cls[0]), int(rng.integers(n_rel)))]
        for k in (1, 3, 9):
            top = {c for _, c in candidates[:k]}
            want = sum((t.subject_index, t.object_index, t.subject_class,
                        t.object_class, t.predicate_class) in top for t in gt) / len(gt)
            got = mt.recall_at_k(pred, gt, k, mt.MODE_SGCLS)
            assert abs(got - want) <= 1e-12


def test_criterion_07_action_overfit(tmp_path):
    """24 synthetic clips, 3 classes, state dim 16: training mAP >= 0.99
    inside 200 epochs, deterministic, < 5 min."""
    started = time.monotonic()
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=0,
                                         clips=24, classes=3, keyframes=2, channels=8)
    info, records = data.load_dataset(manifest)
    clips = [data.featurize_clip(r, info, mode=data.TRAIN_MODE) for r in records]
    config = ModelConfig(state_dim=16, heads=2, iterations=1,
                         message_fns=(pa.FN_NONLOCAL,), tau_c=1, tau_s=1,
                         task=pa.TASK_ACTION, feature_channels=8, action_classes=3, seed=0)
    schedule = Schedule()   # 20 epochs, well inside the 200-epoch budget
    result = train.train_loop(clips, config, schedule, seed=0, batch_size=8)
    _, mean_ap = train.evaluate_action(clips, result.params, config)
    assert mean_ap >= 0.99, f"train mAP {mean_ap:.4f}"
    # a second run from the same seed reproduces every parameter bit
    again = train.train_loop(clips, config, schedule, seed=0, batch_size=8)
    assert all(np.array_equal(result.params[k].data, again.params[k].data)
               for k in result.params)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_08_temporal_edges_carry_the_signal(tmp_path, seed):
    """Labels depend only on the keyframes tau_s away: spatial-only held-out
    mAP <= 0.6, spatio-temporal >= 0.9."""
    train_man = data.synth_temporal_pairs(str(tmp_path / "train"), seed=seed, split=0,
                                          clips=32, keyframes=5, channels=6,
                                          tau_s=1, margin=0.4)
    held_man = data.synth_temporal_pairs(str(tmp_path / "held"), seed=seed, split=1,
                                         clips=48, keyframes=7, channels=6,
                                         tau_s=1, margin=0.4)
    info, records = data.load_dataset(train_man)
    clips = [data.featurize_clip(r, info, mode=data.TRAIN_MODE) for r in records]
    info_h, records_h = data.load_dataset(held_man)
    held = [data.featurize_clip(r, info_h, mode=data.EVAL_MODE) for r in records_h]
    base = dict(state_dim=12, heads=1, iterations=1, message_fns=(pa.FN_NONLOCAL,),
                tau_s=1, task=pa.TASK_ACTION, feature_channels=6,
                action_classes=2, seed=seed)
    schedule = Schedule()
    spatial = ModelConfig(tau_c=1, **base)
    r = train.train_loop(clips, spatial, schedule, seed=seed, batch_size=8)
    _, ap_spatial = train.evaluate_action(held, r.params, spatial)
    temporal = ModelConfig(tau_c=3, **base)
    r = train.train_loop(clips, temporal, schedule, seed=seed, batch_size=8)
    _, ap_temporal = train.evaluate_action(held, r.params, temporal)
    assert ap_spatial <= 0.6, f"spatial-only held-out mAP {ap_spatial:.3f}"
    assert ap_temporal >= 0.9, f"spatio-temporal held-out mAP {ap_temporal:.3f}"


def test_criterion_09_flops_estimate_exact_linear_stride_free():
    """Hand-counted totals, exact linearity in keyframes, no stride term."""
    config = ModelConfig(state_dim=4, heads=1, iterations=1, message_fns=(pa.FN_NONLOCAL,),
                         tau_c=3, tau_s=1, task=pa.TASK_ACTION, feature_channels=3,
                         action_classes=2, seed=0)
    out = estimate_flops(config, n_fg=2, n_context=3, keyframes=4)
    assert out["input_projection"] == 240
    # per keyframe, nonlocal as it runs: 3 n d^2 on the query rows plus
    # 2 n s d for scores and pooling, n=2, d=4, s=5 (spatial) or 4 (temporal)
    assert out["spatial_messages"] == 4 * (3 * 2 * 16 + 2 * 2 * 5 * 4) == 704
    assert out["temporal_messages"] == 4 * (3 * 2 * 16 + 2 * 2 * 4 * 4) == 640
    assert out["gating"] == 0
    assert out["readout"] == 64
    assert out["total"] == 1648
    one = estimate_flops(config, n_fg=2, n_context=3, keyframes=1)
    for k in (2, 3, 7, 25):
        got = estimate_flops(config, n_fg=2, n_context=3, keyframes=k)
        assert got["total"] == k * one["total"]
    for stride in (1, 2, 5, 50):
        cfg = ModelConfig(state_dim=4, heads=1, iterations=1,
                          message_fns=(pa.FN_NONLOCAL,), tau_c=3, tau_s=stride,
                          task=pa.TASK_ACTION, feature_channels=3,
                          action_classes=2, seed=0)
        assert estimate_flops(cfg, n_fg=2, n_context=3, keyframes=4) == out


def test_criterion_10_training_and_reports_are_byte_deterministic(tmp_path):
    """Two identical train + eval command runs produce byte-identical
    checkpoints and reports."""
    ds = str(tmp_path / "ds")
    manifest = data.synth_action_overfit(ds, seed=0, clips=6, classes=2,
                                         keyframes=2, channels=6)
    outputs = {}
    for tag in ("first", "second"):
        run = str(tmp_path / tag)
        code = cli_main(["train", "--data", manifest, "--out", run,
                         "--state-dim", "10", "--heads", "2", "--epochs", "6",
                         "--seed", "0"])
        assert code == 0
        ev = str(tmp_path / f"{tag}_eval")
        code = cli_main(["eval", "--data", manifest,
                         "--checkpoint", os.path.join(run, "checkpoint.safetensors"),
                         "--out", ev])
        assert code == 0
        att = str(tmp_path / f"{tag}_att.jsonl")
        code = cli_main(["dump-attention", "--data", manifest,
                         "--checkpoint", os.path.join(run, "checkpoint.safetensors"),
                         "--out", att])
        assert code == 0
        outputs[tag] = {
            "checkpoint": open(os.path.join(run, "checkpoint.safetensors"), "rb").read(),
            "train_report_json": open(os.path.join(run, "report.json"), "rb").read(),
            "train_report_txt": open(os.path.join(run, "report.txt"), "rb").read(),
            "eval_report_json": open(os.path.join(ev, "report.json"), "rb").read(),
            "eval_report_txt": open(os.path.join(ev, "report.txt"), "rb").read(),
            "attention": open(att, "rb").read(),
        }
    for key in outputs["first"]:
        assert outputs["first"][key] == outputs["second"][key], key
    # and the checkpoint's header gives its format, version and a config echo
    raw = outputs["first"]["checkpoint"]
    meta = json.loads(raw[8:8 + int.from_bytes(raw[:8], "little")])["__metadata__"]
    assert meta["format"] == "stgraph-checkpoint"
    assert meta["version"] == "3"
    assert json.loads(meta["config"])["state_dim"] == 10
