"""Schedule, SGD, initialization, training loop, and checkpoint tests."""

import base64
import ctypes
import dataclasses
import hashlib
import json
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stgraph.numgrad as ng
from stgraph import data, metrics, train
from stgraph.errors import ConfigError, NumericError, ValidationError
from stgraph.graph import (Box, FeatureGrid, KeyframeFeatures, SpatioTemporalGraph, build_batch,
                           build_graph, featurize_keyframe)
from stgraph.numgrad import Tape, Tensor, grad
from stgraph.heads import action_readout, sg_readout
from stgraph.passing import ModelConfig, param_shapes, run_inference
from stgraph.train import (Schedule, SgdState, effective_batch_size, init_params,
                           load_checkpoint, lr_at, save_checkpoint, sgd_step, train_loop)

from json_fuzz import json_values, pick_path, set_at
from reference_eval import reference_frame_ap, reference_iou, reference_recall


def small_config(**overrides) -> ModelConfig:
    base = dict(state_dim=8, heads=1, iterations=1, message_fns=("nonlocal",),
                tau_c=1, tau_s=1, task="action", feature_channels=6,
                action_classes=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_clips(tmp_path, seed=0, clips=4, classes=2, channels=6):
    manifest = data.synth_action_overfit(str(tmp_path / f"ds{seed}"), seed=seed,
                                         clips=clips, classes=classes, channels=channels)
    info, records = data.load_dataset(manifest)
    return [data.featurize_clip(c, info, mode="train") for c in records]


# ---------------------------------------------------------------------------
# schedule


def test_schedule_frozen_values():
    s = Schedule()
    assert abs(lr_at(0.0, s) - 1.25e-4) < 1e-12
    assert abs(lr_at(5.0, s) - 0.1) < 1e-12
    assert abs(lr_at(12.0, s) - 0.01) < 1e-12
    assert abs(lr_at(16.0, s) - 0.001) < 1e-12
    assert abs(lr_at(2.5, s) - 0.0500625) < 1e-12


def test_schedule_warmup_is_linear_and_continuous():
    s = Schedule()
    for e in np.linspace(0.0, 5.0, 11):
        expect = 1.25e-4 + (0.1 - 1.25e-4) * (e / 5.0)
        assert abs(lr_at(float(e), s) - expect) < 1e-15
    # approaching the warmup boundary from below converges to the base rate
    assert abs(lr_at(5.0 - 1e-9, s) - 0.1) < 1e-9


def test_schedule_decay_boundaries_inclusive():
    s = Schedule()
    assert lr_at(10.0 - 1e-9, s) == 0.1
    assert abs(lr_at(10.0, s) - 0.01) < 1e-15
    assert lr_at(15.0 - 1e-9, s) == pytest.approx(0.01, abs=1e-15)
    assert abs(lr_at(15.0, s) - 0.001) < 1e-15


def test_schedule_scaling_is_proportional():
    s = Schedule().scaled(40.0)
    assert s.warmup_epochs == 10.0
    assert s.decay_epochs == (20.0, 30.0)
    assert s.total_epochs == 40.0
    # positions scale with the ratio, values match the unscaled schedule
    base = Schedule()
    for e in (0.0, 2.5, 5.0, 12.0, 16.0, 19.9):
        assert abs(lr_at(2.0 * e, s) - lr_at(e, base)) < 1e-15


def test_schedule_rejects_non_finite_values():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            Schedule().scaled(bad)
        for name in ("base_lr", "total_epochs"):
            with pytest.raises(ConfigError, match="finite"):
                Schedule(**{name: bad})


def test_schedule_validation():
    # a schedule checks itself when it is made, dataclasses.replace included
    with pytest.raises(ConfigError, match="^base_lr must be finite and positive, got 0.0$"):
        Schedule(base_lr=0.0)
    with pytest.raises(ConfigError, match="^total_epochs must be finite and positive, got -1.0$"):
        dataclasses.replace(Schedule(), total_epochs=-1.0)
    with pytest.raises(ConfigError):
        Schedule().scaled(0.0)
    with pytest.raises(ConfigError):
        lr_at(-1.0, Schedule())
    # the rest of the recipe is constant
    for name in ("warmup_start_lr", "warmup_epochs", "decay_epochs", "decay_factor"):
        with pytest.raises(TypeError):
            Schedule(**{name: 1.0})


def test_schedule_bits_are_frozen():
    # the breakpoints and 37 learning rates per epoch of the default and
    # eight scaled schedules, as float64 bytes, digested when warmup and
    # decays were still settable fields that scaled() multiplied by t / 20
    values = []
    for s in [Schedule()] + [Schedule().scaled(t) for t in (0.5, 1, 2, 3, 4, 6, 40, 7.3)]:
        values += [s.warmup_epochs, *s.decay_epochs, s.total_epochs]
        values += [lr_at(e + i / 37, s)
                   for e in range(math.ceil(s.total_epochs) + 1) for i in range(37)]
    assert hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest() == (
        "8baad72ca77d74afd280b01f56725830d0c4785ddf8bed22ed8eab20de4c0074")


# ---------------------------------------------------------------------------
# sgd


def test_sgd_single_step_by_hand():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    params = {"w": Tensor(p, requires_grad=True, name="w")}
    grads = {"w": Tensor(g)}
    state = SgdState()
    sgd_step(params, grads, lr=0.1, state=state)
    v = g + 1e-7 * p
    expect = p - 0.1 * v
    assert np.allclose(params["w"].data, expect, atol=1e-15)
    assert state.step == 1


def test_sgd_momentum_accumulates_across_steps():
    p0 = np.array([1.0])
    g = np.array([1.0])
    params = {"w": Tensor(p0, requires_grad=True, name="w")}
    state = SgdState()
    sgd_step(params, {"w": Tensor(g)}, lr=0.1, state=state)
    v1 = g + 1e-7 * p0
    p1 = p0 - 0.1 * v1
    sgd_step(params, {"w": Tensor(g)}, lr=0.1, state=state)
    v2 = 0.9 * v1 + (g + 1e-7 * p1)
    p2 = p1 - 0.1 * v2
    assert np.allclose(params["w"].data, p2, atol=1e-15)


def test_sgd_zero_lr_keeps_params_bitwise():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 3))
    params = {"w": Tensor(p, requires_grad=True, name="w")}
    state = SgdState()
    sgd_step(params, {"w": Tensor(rng.normal(size=(4, 3)))}, lr=0.0, state=state)
    assert np.array_equal(params["w"].data, p)


def test_sgd_rejects_non_finite_gradient():
    params = {"w": Tensor(np.ones(2), requires_grad=True, name="w")}
    bad = Tensor.__new__(Tensor)  # bypass the constructor's finiteness check
    object.__setattr__(bad, "data", np.array([1.0, np.nan]))
    object.__setattr__(bad, "requires_grad", False)
    object.__setattr__(bad, "name", None)
    state = SgdState()
    state.step = 7
    with pytest.raises(NumericError) as err:
        sgd_step(params, {"w": bad}, lr=0.1, state=state)
    assert "'w'" in str(err.value) and "7" in str(err.value)


@pytest.mark.parametrize("stepped", [False, True])
def test_sgd_rejected_gradient_changes_nothing(stepped):
    # a NaN in the second tensor's gradient must not leave the first updated
    params = {"a": Tensor([1.0, 2.0], requires_grad=True, name="a"),
              "b": Tensor([3.0], requires_grad=True, name="b")}
    state = SgdState()
    if stepped:
        sgd_step(params, {"a": Tensor([0.5, -0.5]), "b": Tensor([0.25])}, lr=0.1, state=state)
    before = dict(params)
    velocity = None if state.velocity is None else state.velocity.copy()
    grads = {"a": Tensor([1.0, 1.0]), "b": ng._wrap(np.array([np.nan]))}
    with pytest.raises(NumericError, match=rf"^non-finite gradient for 'b' at step {int(stepped)}$"):
        sgd_step(params, grads, lr=0.1, state=state)
    assert all(params[name] is before[name] for name in before)
    assert state.step == int(stepped)
    if stepped:
        assert state.velocity.tobytes() == velocity.tobytes()
    else:
        assert state.velocity is None


def test_sgd_overflowing_update_names_parameter_and_step():
    params = {"v": Tensor([0.0], requires_grad=True, name="v"),
              "w": Tensor([1e308], requires_grad=True, name="w")}
    state = SgdState()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(NumericError, match=r"^non-finite update for 'w' at step 0$"):
            sgd_step(params, {"v": Tensor([1.0]), "w": Tensor([-1e308])}, lr=10.0, state=state)
    assert params["v"].data.tolist() == [0.0] and params["w"].data.tolist() == [1e308]
    assert state.velocity is None and state.step == 0


def test_sgd_step_keeps_held_tensors_and_makes_read_only_views():
    rng = np.random.default_rng(5)
    params = init_params(small_config(tau_c=3))
    held = dict(params)
    values = {name: t.data.copy() for name, t in held.items()}
    state = SgdState()
    for _ in range(2):
        sgd_step(params, {name: Tensor(rng.normal(size=t.shape)) for name, t in params.items()},
                 lr=0.1, state=state)
    for name, t in params.items():
        assert held[name].data.tobytes() == values[name].tobytes()
        assert t.data.shape == held[name].shape and t.name == name and t.requires_grad
        assert not t.data.flags.writeable
        with pytest.raises(ValueError):
            t.data[...] = 0.0
    assert state.velocity.shape == (sum(t.data.size for t in params.values()),)



def test_sgd_step_reads_a_parameter_replaced_between_steps():
    # after a step the parameters are views of one vector, which the next
    # step reads as it stands; a tensor swapped in between must be read instead
    params = {"a": Tensor([1.0, 2.0], requires_grad=True, name="a"),
              "b": Tensor([3.0], requires_grad=True, name="b")}
    grads = {"a": Tensor([0.5, -0.5]), "b": Tensor([0.25])}
    state = SgdState()
    sgd_step(params, grads, lr=0.1, state=state)
    params["b"] = Tensor([-4.0], requires_grad=True, name="b")
    p = np.concatenate([params["a"].data, [-4.0]])
    v = 0.9 * state.velocity + (np.array([0.5, -0.5, 0.25]) + 1e-7 * p)
    sgd_step(params, grads, lr=0.1, state=state)
    assert np.concatenate([params["a"].data, params["b"].data]).tobytes() == (p - 0.1 * v).tobytes()

def test_train_loop_matches_per_tensor_sgd_reference(tmp_path):
    # the flat-vector update against momentum SGD written tensor by tensor
    manifest = data.synth_temporal_pairs(str(tmp_path / "tp"), seed=2, clips=6, keyframes=4,
                                         channels=6)
    info, records = data.load_dataset(manifest)
    clips = [data.featurize_clip(r, info, mode="train") for r in records]
    config = small_config(tau_c=3)
    schedule = Schedule().scaled(3.0)
    trained = train_loop(clips, config, schedule, seed=4, batch_size=6).params

    params = init_params(config, 4)
    velocity = {name: np.zeros(t.shape) for name, t in params.items()}
    batch = effective_batch_size(6, config.tau_c)
    steps = math.ceil(len(clips) / batch)
    shuffle = np.random.default_rng([4, 9173])
    for epoch in range(3):
        order = shuffle.permutation(len(clips))
        for b in range(steps):
            members = [clips[i] for i in order[b * batch:(b + 1) * batch]]
            with Tape() as tape:
                loss = train._batch_loss(members, build_batch([c.frames for c in members],
                                                              params, config), params, config)
            grads = grad(tape, loss, params)
            lr = lr_at(epoch + b / steps, schedule)
            for name, p in params.items():
                velocity[name] = 0.9 * velocity[name] + (grads[name].data + 1e-7 * p.data)
                params[name] = Tensor(p.data - lr * velocity[name], requires_grad=True, name=name)
    assert list(trained) == list(params)
    for name, t in params.items():
        assert trained[name].data.tobytes() == t.data.tobytes(), name


def test_grad_names_parameter_with_non_finite_gradient():
    # All-zero input projections make every pre-norm row constant, so each
    # layer norm divides by sqrt(ln_eps) = 1e-150: the forward pass stays
    # finite, but three such layers scale the backward pass by 1e450.
    config = small_config(state_dim=4, iterations=3, feature_channels=3, ln_eps=1e-300)
    params = init_params(config, seed=0)
    for name in ("input.foreground.weight", "input.context.weight", "input.proposal.weight"):
        params[name] = Tensor(np.zeros(params[name].shape), requires_grad=True, name=name)
    rng = np.random.default_rng(0)
    grid = FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(1, 2, 2, 3))), keyframe_id=0)
    clip = data.ClipFeatures(
        clip_id="c",
        frames=[featurize_keyframe(grid, [Box(0.0, 0.0, 0.6, 0.6), Box(0.4, 0.4, 1.0, 1.0)])],
        action_labels=[np.eye(2)],
    )
    with Tape() as tape:
        loss = train.clip_loss(clip, params, config)
    assert np.isfinite(loss.item())
    with pytest.raises(NumericError) as err:
        grad(tape, loss, params)
    assert "'input.foreground.weight'" in str(err.value)


def test_effective_batch_size_scales_with_window():
    assert effective_batch_size(8, 1) == 8
    assert effective_batch_size(8, 3) == 2
    assert effective_batch_size(8, 5) == 1
    assert effective_batch_size(2, 7) == 1
    with pytest.raises(ConfigError):
        effective_batch_size(0, 1)


# ---------------------------------------------------------------------------
# initialization


def test_init_params_covers_layout_exactly():
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, iterations=2)
    params = init_params(config, seed=0)
    shapes = param_shapes(config)
    assert set(params) == set(shapes)
    for name, t in params.items():
        assert t.shape == shapes[name]
        assert t.requires_grad
        assert t.name == name


def test_init_params_norm_and_bias_values():
    params = init_params(small_config(), seed=0)
    for name, t in params.items():
        if name.endswith("norm.scale"):
            assert np.array_equal(t.data, np.ones(t.shape))
        elif name.endswith("norm.shift") or name.endswith(".bias"):
            assert np.array_equal(t.data, np.zeros(t.shape))


def test_init_params_deterministic_per_seed():
    a = init_params(small_config(), seed=5)
    b = init_params(small_config(), seed=5)
    c = init_params(small_config(), seed=6)
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_init_params_glorot_moments():
    # one large matrix: uniform on [-a, a] has mean 0 and var a^2/3
    config = small_config(state_dim=64, feature_channels=36)
    params = init_params(config, seed=11)
    w = params["input.foreground.weight"].data  # (36, 64) -> 2304 draws
    a = math.sqrt(6.0 / (36 + 64))
    assert np.all(np.abs(w) <= a)
    n = w.size
    sigma = a / math.sqrt(3.0)
    assert abs(w.mean()) < 3.0 * sigma / math.sqrt(n)
    assert abs(w.var() - sigma ** 2) < 3.0 * sigma ** 2 * math.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# training loop


def test_train_loop_loss_decreases(tmp_path):
    clips = tiny_clips(tmp_path)
    res = train_loop(clips, small_config(), Schedule().scaled(6.0), seed=0, batch_size=2)
    assert len(res.log) == 6
    assert res.log[-1]["loss"] < res.log[0]["loss"] * 0.7


def test_train_loop_is_bit_deterministic(tmp_path):
    clips = tiny_clips(tmp_path)
    a = train_loop(clips, small_config(), Schedule().scaled(3.0), seed=0, batch_size=2)
    b = train_loop(clips, small_config(), Schedule().scaled(3.0), seed=0, batch_size=2)
    assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)
    assert a.log == b.log


def test_train_loop_seed_changes_result(tmp_path):
    clips = tiny_clips(tmp_path)
    a = train_loop(clips, small_config(), Schedule().scaled(2.0), seed=0, batch_size=2)
    b = train_loop(clips, small_config(), Schedule().scaled(2.0), seed=1, batch_size=2)
    assert any(not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


def test_train_loop_rejects_empty():
    with pytest.raises(ValidationError):
        train_loop([], small_config(), Schedule())


def test_warm_start_merge_carries_weights(tmp_path):
    clips = tiny_clips(tmp_path)
    stage1 = train_loop(clips, small_config(), Schedule().scaled(2.0), seed=0, batch_size=2)
    temporal = small_config(tau_c=3)
    fresh = init_params(temporal, seed=0)
    merged = train.merge_warm_start(fresh, stage1.params)
    shared = [k for k in stage1.params if k in fresh]
    assert shared
    for k in shared:
        assert np.array_equal(merged[k].data, stage1.params[k].data)
    extra = set(fresh) - set(stage1.params)
    assert any("temporal" in k for k in extra)
    for k in extra:
        assert np.array_equal(merged[k].data, fresh[k].data)
    # the loop applies the same merge and still trains
    warm = train_loop(clips, temporal, Schedule().scaled(1.0), seed=0,
                      batch_size=2, init_from=stage1.params)
    assert set(warm.params) == set(fresh)


def test_train_loop_warm_start_shape_mismatch_fails(tmp_path):
    clips = tiny_clips(tmp_path)
    donor = {"input.foreground.weight": Tensor(np.zeros((3, 3)))}
    with pytest.raises(ValidationError):
        train_loop(clips, small_config(), Schedule().scaled(1.0), seed=0, init_from=donor)


def test_gradient_check_config_fails_when_built():
    # it used to get as far as numpy's "negative dimensions are not allowed"
    # while drawing the random clip
    with pytest.raises(ConfigError, match="^feature_channels must be positive, got -1$"):
        train.gradient_check(ModelConfig(feature_channels=-1, state_dim=4, heads=1))


def test_gradient_check_both_tasks():
    action = ModelConfig(state_dim=5, heads=1, iterations=1, message_fns=("nonlocal", "gat"),
                         tau_c=3, tau_s=1, task="action", feature_channels=4,
                         action_classes=2, seed=3)
    errs = train.gradient_check(action, seed=3)
    assert max(errs.values()) <= 1e-4
    sg = ModelConfig(state_dim=5, heads=2, iterations=1, message_fns=("gat",),
                     tau_c=1, tau_s=1, task="scenegraph", feature_channels=4,
                     object_classes=3, relation_classes=2, seed=4)
    errs = train.gradient_check(sg, seed=4)
    assert max(errs.values()) <= 1e-4


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_action_perfect_and_threading(tmp_path):
    clips = tiny_clips(tmp_path, clips=6)
    config = small_config()
    res = train_loop(clips, config, Schedule(), seed=0, batch_size=4)
    per_class, mean_ap = train.evaluate_action(clips, res.params, config)
    assert mean_ap > 0.95
    per_class2, mean_ap2 = train.evaluate_action(clips, res.params, config, workers=4)
    assert mean_ap2 == mean_ap
    assert per_class2 == per_class


def _loop_detections(clips, params, config) -> tuple[list, list]:
    """The per-object loops evaluate_action replaced, one clip at a time:
    (a Detection per scored box and class, a GroundTruthBox per label)."""
    detections, truth = [], []
    for clip in clips:
        graph = build_graph(clip.frames, params, config)
        states = run_inference(graph, params, config).states
        for pos, frame in enumerate(clip.frames):
            k, j = graph.where[pos]
            probs = ng.sigmoid_values(action_readout(
                states[k], params["readout.action.weight"], params["readout.action.bias"]).data)
            for row, box in enumerate(frame.fg_boxes):
                for cls in range(config.action_classes):
                    detections.append(metrics.Detection(clip.clip_id, frame.keyframe_id, box,
                                                        cls, float(probs[j, row, cls])))
            for row, box in enumerate(clip.gt_boxes[pos]):
                for cls in np.flatnonzero(clip.gt_action_labels[pos][row]):
                    truth.append(metrics.GroundTruthBox(clip.clip_id, clip.keyframe_ids[pos],
                                                        box, int(cls)))
    return detections, truth


def test_evaluate_action_scores_detections_like_the_loops(tmp_path):
    # evaluation mode scores each keyframe's detections, here three
    # shifted copies of every annotated box, so overlaps fall below 1 and
    # some below the threshold
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=3, clips=18, classes=3,
                                         channels=6)
    info, records = data.load_dataset(manifest)
    shifts = [(0.05, 0.0), (-0.1, 0.05), (0.2, 0.2)]
    for clip in records:
        clip.keyframes = [dataclasses.replace(kf, detections=[
            Box(max(b.x1 + dx, 0.0), max(b.y1 + dy, 0.0), min(b.x2 + dx, 1.0), min(b.y2 + dy, 1.0))
            for b in kf.fg_boxes for dx, dy in shifts]) for kf in clip.keyframes]
    clips = [data.featurize_clip(c, info, mode=data.EVAL_MODE) for c in records]
    config = small_config(action_classes=3)
    params = train_loop([data.featurize_clip(c, info) for c in records], config,
                        Schedule().scaled(2.0), seed=0, batch_size=4).params

    per_class, mean_ap = train.evaluate_action(clips, params, config)

    detections, truth = _loop_detections(clips, params, config)
    assert repr((per_class, mean_ap)) == repr(reference_frame_ap(detections, truth))
    overlaps = [reference_iou(d.box, g.box) for d in detections[::3] for g in truth
                if (d.clip_id, d.keyframe_id) == (g.clip_id, g.keyframe_id)]
    assert min(o for o in overlaps if o > 0.0) < 0.5 and max(overlaps) < 1.0
    assert 0.0 < mean_ap < 1.0
    # cmd_eval prints mean_ap with repr, so a numpy scalar would change its bytes
    assert [type(c) for c in per_class] == [int] * 3
    assert {type(v) for v in per_class.values()} == {float} and type(mean_ap) is float


def entry_message(clip, pos, what, task, boxes, want):
    """The message _check_fields raises for one keyframe's entry of a per-box field."""
    return (f"clip {clip!r} has {what} at keyframe {pos}, which the {task} task reads "
            f"as shape {want} for its {want[0]} {boxes}")


def test_evaluate_action_needs_one_label_row_per_box(tmp_path, monkeypatch):
    config = small_config()
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))

    def refused(clips, pos, what, clip="clip001"):
        message = entry_message(clip, pos, f"gt_action_labels of {what}", "action", "gt_boxes",
                                (2, 2))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            train.evaluate_action(clips, init_params(config), config)

    clips = tiny_clips(tmp_path, clips=2)
    clips[1].gt_action_labels[0] = clips[1].gt_action_labels[0][:1]
    refused(clips, 0, "shape (1, 2)")
    # 1 label row for 2 boxes, then 3 for 2: the totals agree, the keyframes do not
    clips = tiny_clips(tmp_path, clips=2)
    y0, y1 = clips[1].gt_action_labels
    clips[1].gt_action_labels[:] = [y0[:1], np.concatenate([y1, y0[1:]])]
    refused(clips, 0, "shape (1, 2)")
    # a third label column for a model of 2 action classes, on every keyframe or on one
    clips = tiny_clips(tmp_path, clips=2)
    wide = [[np.pad(y, ((0, 0), (0, 1))) for y in c.gt_action_labels] for c in clips]
    for clip, labels in zip(clips, wide):
        clip.gt_action_labels[:] = labels
    refused(clips, 0, "shape (2, 3)", clip="clip000")
    clips = tiny_clips(tmp_path, clips=2)
    clips[1].gt_action_labels[1] = wide[1][1]
    refused(clips, 1, "shape (2, 3)")
    # a clip of no keyframes, alone or not
    empty = data.ClipFeatures(clip_id="empty", frames=[], gt_boxes=[], gt_action_labels=[])
    for clips in ([empty], [*tiny_clips(tmp_path, clips=2), empty]):
        with pytest.raises(ValidationError, match="^clip 'empty' has no keyframes$"):
            train.evaluate_action(clips, init_params(config), config)


def test_label_fields_need_one_row_per_box(tmp_path):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, task="scenegraph",
                          feature_channels=4, object_classes=3, relation_classes=3)
    clips = ragged_scenegraph_clips()
    clips[1].object_classes[1] = clips[1].object_classes[1][:1]
    message = entry_message("c1", 1, "object_classes of shape (1,)", "scenegraph", "fg_boxes",
                            (2,))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train.evaluate_scenegraph(clips, init_params(config), config, ks=(1,))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train_loop(clips, config, Schedule().scaled(1.0), seed=0)
    clips = tiny_clips(tmp_path, clips=2)
    clips[0].action_labels[1] = np.concatenate([clips[0].action_labels[1]] * 2)
    message = entry_message("clip000", 1, "action_labels of shape (4, 2)", "action", "fg_boxes",
                            (2, 2))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train_loop(clips, small_config(), Schedule().scaled(1.0), seed=0)


def test_train_loop_names_a_keyframe_whose_labels_have_a_column_too_many(tmp_path, monkeypatch):
    # it used to stop in np.stack, or in action_loss with a ShapeError, naming neither
    clips = tiny_clips(tmp_path, clips=3)
    clips[2].action_labels[1] = np.pad(clips[2].action_labels[1], ((0, 0), (0, 1)))
    n = len(clips[2].frames[1].fg_boxes)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    message = entry_message("clip002", 1, f"action_labels of shape ({n}, 3)", "action",
                            "fg_boxes", (n, 2))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train_loop(clips, small_config(), Schedule(), seed=0)


def test_ragged_labels_name_their_keyframe(tmp_path, monkeypatch):
    # a nested list whose rows differ in length used to fail in numpy
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    config = small_config()
    for name, call, boxes in (
            ("gt_action_labels",
             lambda clips: train.evaluate_action(clips, init_params(config), config), "gt_boxes"),
            ("action_labels",
             lambda clips: train_loop(clips, config, Schedule(), seed=0), "fg_boxes")):
        clips = tiny_clips(tmp_path, clips=2)
        getattr(clips[1], name)[1] = [[1.0, 0.0], [1.0]]
        message = entry_message("clip001", 1, f"{name} of ragged rows", "action", boxes, (2, 2))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(clips)


@pytest.mark.parametrize("relations,what", [
    ([(1, 0), (2, 0, 1, 1)], "ragged rows"),  # read as two shifted triples, R@1 0.25
    ([(1, 0)], "shape (1, 2)"),                # stopped in numpy's reshape
    ([(1, 0, 2, 1)], "shape (1, 4)"),
    ([(1, 0, 2), 5], "ragged rows"),
    ([[]], "shape (1, 0)"),
])
def test_relation_rows_need_three_entries(monkeypatch, relations, what):
    # they passed the check; training stopped in relation_target_matrix unpacking them
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, task="scenegraph",
                          feature_channels=4, object_classes=3, relation_classes=3)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    clips = ragged_scenegraph_clips()
    clips[1].relations[2] = relations
    message = (f"clip 'c1' has relations of {what} at keyframe 2, which the scenegraph task "
               f"reads as rows of shape (3,)")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train.evaluate_scenegraph(clips, init_params(config), config, ks=(1,))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        train_loop(clips, config, Schedule().scaled(1.0), seed=0)


def test_relations_may_hold_no_rows(monkeypatch):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, task="scenegraph",
                          feature_channels=4, object_classes=3, relation_classes=3)
    monkeypatch.setattr(train, "build_batch", lambda *a: (_ for _ in ()).throw(_Built()))
    clips = ragged_scenegraph_clips()
    clips[0].relations[0], clips[1].relations[0] = [], np.zeros((0, 3), dtype=int)
    with pytest.raises(_Built):
        train_loop(clips, config, Schedule().scaled(1.0), seed=0)
    with pytest.raises(_Built):
        train.evaluate_scenegraph(clips, init_params(config), config, ks=(1,))


class _Built(Exception):
    """What build_batch raises in place of building, once a check has passed."""


def _fault_entry(entry, fault):
    """One keyframe's per-box entry with one fault: rows are a's first axis."""
    a = np.asarray(entry)
    if fault == "none":
        return None
    if fault == "row missing":
        return a[:-1]
    if fault == "row extra":
        return np.concatenate([a, a[:1]])
    if fault == "column extra":
        columns = a.reshape(len(a), -1)
        return np.concatenate([columns, columns[:, :1]], axis=1)
    if fault == "rank":
        return a.reshape(-1) if a.ndim == 2 else a.reshape(-1, 1)
    # ragged: a last row shorter than the others, or a class that is a list
    rows = a.tolist()
    return rows + [rows[-1][:-1] if a.ndim == 2 else [rows[-1]] * 2]


ENTRY_FAULTS = ("none", "row missing", "row extra", "column extra", "rank", "ragged")


def _action_clip_set():
    """ragged_action_clips with action labels for their scored boxes too."""
    clips = ragged_action_clips(3)
    rng = np.random.default_rng(19)
    for clip in clips:
        clip.action_labels = [(rng.uniform(size=(len(f.fg_boxes), 3)) < 0.5).astype(float)
                              for f in clip.frames]
    return clips


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(task=st.sampled_from(["action", "scenegraph"]), data_=st.data())
def test_every_entry_point_names_the_keyframe_of_an_annotation_fault(task, data_):
    # one fault at one keyframe of a valid clip set, or none, or one column
    # too many on every keyframe: training and the task's evaluation name
    # exactly that clip and keyframe before building a graph, or pass
    if task == "action":
        clips, fields = _action_clip_set(), ["action_labels", "gt_action_labels"]
        config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3,
                              feature_channels=4, action_classes=3)
    else:
        clips, fields = ragged_scenegraph_clips(), ["object_classes", "relations"]
        config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3,
                              task="scenegraph", feature_channels=4, object_classes=3,
                              relation_classes=3)
    picked = data_.draw(st.lists(st.integers(0, len(clips) - 1), min_size=1,
                                 max_size=len(clips), unique=True))
    clips = [clips[i] for i in picked]
    params = init_params(config)
    calls = {"action_labels": [lambda: train_loop(clips, config, Schedule(), seed=0)],
             "gt_action_labels": [lambda: train.evaluate_action(clips, params, config)],
             "object_classes": [lambda: train_loop(clips, config, Schedule(), seed=0),
                                lambda: train.evaluate_scenegraph(clips, params, config)]}
    calls["relations"] = calls["object_classes"]
    field = data_.draw(st.sampled_from(fields))
    fault = data_.draw(st.sampled_from(
        ("none",) if field == "relations" else (None, "everywhere", *ENTRY_FAULTS)))
    c = data_.draw(st.integers(0, len(clips) - 1))
    pos = data_.draw(st.integers(0, len(clips[c].frames) - 1))
    if fault == "everywhere":
        for clip in clips:
            setattr(clip, field, [_fault_entry(y, "column extra") for y in getattr(clip, field)])
        c = pos = 0
    elif fault is not None:
        getattr(clips[c], field)[pos] = _fault_entry(getattr(clips[c], field)[pos], fault)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "build_batch", lambda *a: (_ for _ in ()).throw(_Built()))
        for call in calls[field]:
            if fault is None:
                with pytest.raises(_Built):
                    call()
                continue
            with pytest.raises(ValidationError) as err:
                call()
            assert re.match(rf"clip '{clips[c].clip_id}' has (no {field}|{field} of .+) at "
                            rf"keyframe {pos}, which the {task} task reads", str(err.value))
    if fault is None and task == "action":
        stacked, sizes = train._check_fields(clips, config,
                                             ("keyframe_ids", "gt_boxes", "gt_action_labels"))
        labels = stacked["gt_action_labels"]
        want = np.concatenate([y for clip in clips for y in clip.gt_action_labels])
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()
        assert sizes["gt_boxes"] == [len(b) for clip in clips for b in clip.gt_boxes]


def test_evaluate_scenegraph_modes(tmp_path):
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=2, clips=3,
                                     keyframes=2, objects=3, relations=2, channels=5)
    info, records = data.load_dataset(manifest)
    clips = [data.featurize_clip(c, info) for c in records]
    config = ModelConfig(state_dim=8, heads=1, task="scenegraph", feature_channels=5,
                         object_classes=3, relation_classes=2, seed=0)
    params = init_params(config, seed=0)
    recalls = train.evaluate_scenegraph(clips, params, config, ks=(1, 50), mode="sgcls")
    assert set(recalls) == {1, 50}
    assert 0.0 <= recalls[1] <= recalls[50] <= 1.0
    # predcls uses ground-truth classes, so recall at a huge K is total
    pred = train.evaluate_scenegraph(clips, params, config, ks=(50,), mode="predcls")
    assert pred[50] == 1.0


def ragged_scenegraph_clips():
    """Three clips whose keyframes hold 4, 4, 4, 1 / 5, 2, 5 / 4 boxes;
    the 1-box keyframe and the 2-box one have no relations."""
    rng = np.random.default_rng(11)
    clips = []
    for c, counts in enumerate([(4, 4, 4, 1), (5, 2, 5), (4,)]):
        frames, classes, relations = [], [], []
        for k, n in enumerate(counts):
            grid = FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(1, 3, 3, 4))),
                               keyframe_id=k)
            corners = rng.uniform(0.0, 0.5, size=(n, 2))
            frames.append(featurize_keyframe(grid, [Box(x, y, x + 0.4, y + 0.4)
                                                    for x, y in corners]))
            classes.append(rng.integers(0, 3, size=n))
            pairs = [(i, j) for i in range(n) for j in range(i)]
            picked = rng.permutation(len(pairs))[:4] if n > 2 else []
            relations.append([(*pairs[p], int(rng.integers(3))) for p in picked])
        clips.append(data.ClipFeatures(clip_id=f"c{c}", frames=frames, object_classes=classes,
                                       relations=relations))
    return clips


@pytest.mark.parametrize("mode", ["sgcls", "predcls"])
def test_ragged_evaluation_matches_reference_recall_per_clip(mode):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, task="scenegraph",
                          feature_channels=4, object_classes=3, relation_classes=3)
    params = init_params(config, seed=1)
    clips = ragged_scenegraph_clips()
    # blocks of three 4-box and two 5-box keyframes, and three of one keyframe
    blocks = build_batch([c.frames for c in clips], params, config).blocks
    assert sorted(len(block.positions) for block in blocks) == [1, 1, 1, 2, 3]
    ks = (1, 3, 8, 50)
    want = _mean_keyframe_recall(clips, params, config, ks, lambda *args: {
        cutoff: reference_recall(*args[:3], cutoff, mode, args[3]) for cutoff in ks})
    assert 0.0 < want[1] < want[50]
    assert train.evaluate_scenegraph(clips, params, config, ks=ks, mode=mode) == want


def _mean_keyframe_recall(clips, params, config, ks, recall) -> dict:
    """Mean of recall(object logits, relation logits, gt rows, classes) over keyframes.

    Each clip runs alone and is read back keyframe by keyframe; the
    recalls are added in keyframe order.
    """
    totals, count = dict.fromkeys(ks, 0.0), 0
    for clip in clips:
        graph = build_graph(clip.frames, params, config)
        preds = [sg_readout(stack, params["readout.object.weight"],
                            params["readout.object.bias"], params["readout.relation.weight"],
                            params["readout.relation.bias"])
                 for stack in run_inference(graph, params, config).states]
        for pos, (classes, relations) in enumerate(zip(clip.object_classes, clip.relations)):
            k, j = graph.where[pos]
            rel = preds[k].relation_logits
            gt = [(s, o, int(classes[s]), int(classes[o]), r) for s, o, r in relations]
            got = recall(preds[k].object_logits.data[j], None if rel is None else rel.data[j],
                         gt, classes)
            count += 1
            for cutoff in totals:
                totals[cutoff] += got[cutoff]
    return {cutoff: totals[cutoff] / count for cutoff in ks}


def clip_cost(clip, config) -> int:
    """A clip's float64 values in its keyframes' spatial score and state stacks."""
    cost = 0
    for f in clip.frames:
        n = f.fg_feats.shape[0]
        rows = n + f.ctx_feats.shape[0] + (0 if f.prop_feats is None else f.prop_feats.shape[0])
        cost += config.heads * n * rows + rows * config.state_dim
    return cost


def run_lengths(clips, config, multiple: int, monkeypatch) -> list[int]:
    """Set EVAL_BUDGET to multiple times the costliest clip's cost; the clip counts of its runs."""
    monkeypatch.setattr(train, "EVAL_BUDGET", multiple * max(clip_cost(c, config) for c in clips))
    return [len(run) for run in train.eval_runs(clips, config)]


# budgets, in units of the costliest clip, that on the ragged clips below
# cut one clip per run, uneven runs, and one run
MULTIPLES = [1, 2, 16]


@pytest.mark.parametrize("multiple", MULTIPLES)
@pytest.mark.parametrize("mode", ["sgcls", "predcls"])
def test_scenegraph_report_equals_one_keyframe_recall_in_repr(mode, multiple, monkeypatch):
    # recall scores a run's blocks at once; the report must be what
    # scoring keyframe by keyframe gives, Python floats added in keyframe
    # order, with runs that split clips' blocks apart or hold them all
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, task="scenegraph",
                          feature_channels=4, object_classes=3, relation_classes=3)
    params = init_params(config, seed=2)
    clips = ragged_scenegraph_clips()
    ks = (2, 8, 1, 8)
    want = _mean_keyframe_recall(clips, params, config, ks, lambda obj, rel, gt, classes: (
        metrics.triplet_recall(obj, rel, np.array(gt, dtype=np.int64).reshape(-1, 5), ks, mode,
                               gt_object_classes=classes)))
    assert run_lengths(clips, config, multiple, monkeypatch) == {
        1: [1, 1, 1], 2: [2, 1], 16: [3]}[multiple]
    got = train.evaluate_scenegraph(clips, params, config, ks=ks, mode=mode)
    assert repr(got) == repr(want)
    assert all(type(v) is float for v in got.values()) and 0.0 < got[1] < 1.0


def ragged_action_clips(classes: int):
    """Four clips of 1, 4, 2 and 3 keyframes over 3x3 or 2x3 grids, each
    keyframe scoring 1 to 3 detections next to 0 to 2 proposals, against
    1 or 2 annotated boxes with random labels."""
    rng = np.random.default_rng(17)

    def boxes(count):
        return [Box(x, y, x + 0.4, y + 0.4) for x, y in rng.uniform(0.0, 0.55, size=(count, 2))]

    clips = []
    for c, keyframes in enumerate([1, 4, 2, 3]):
        frames, truth, labels = [], [], []
        for k in range(keyframes):
            grid = FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(2, 3 - c % 2, 3, 4))),
                               keyframe_id=10 * k)
            frames.append(featurize_keyframe(grid, boxes(1 + (c + 2 * k) % 3), boxes((c + k) % 3)))
            truth.append(boxes(1 + (c + k) % 2))
            labels.append((rng.uniform(size=(len(truth[-1]), classes)) < 0.5).astype(float))
        clips.append(data.ClipFeatures(clip_id=f"a{c}", frames=frames, gt_boxes=truth,
                                       gt_action_labels=labels,
                                       keyframe_ids=[10 * k for k in range(keyframes)]))
    return clips


@pytest.mark.parametrize("multiple", MULTIPLES)
def test_action_report_does_not_depend_on_the_budget(multiple, monkeypatch):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, feature_channels=4,
                          action_classes=3)
    params = init_params(config, seed=4)
    clips = ragged_action_clips(config.action_classes)
    # keyframes of 1 to 3 boxes, 6 or 9 cells and 0 to 2 proposals make
    # blocks that mix clips; the report is the loops' over one clip at a time
    assert len(build_batch([c.frames for c in clips], params, config).blocks) > 4
    want = reference_frame_ap(*_loop_detections(clips, params, config))
    assert run_lengths(clips, config, multiple, monkeypatch) == {
        1: [1, 1, 1, 1], 2: [3, 1], 16: [4]}[multiple]
    got = train.evaluate_action(clips, params, config)
    assert repr(got) == repr(want)
    assert 0.0 < got[1] < 1.0


def test_evaluate_action_keys_frames_by_clip_and_keyframe_id():
    # a frame is a (clip_id, keyframe_id): two clips that share an id share
    # their frames of one keyframe id, and a scored keyframe whose id
    # differs from its annotated one is scored as the frame its own id names
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, feature_channels=4,
                          action_classes=3)
    params = init_params(config, seed=4)
    clips = ragged_action_clips(config.action_classes)
    distinct = train.evaluate_action(clips, params, config)
    clips[2] = dataclasses.replace(clips[2], clip_id=clips[0].clip_id)
    frames = clips[1].frames
    # keyframe ids 0, 10, 20 and 30: one scored as a keyframe its clip
    # annotates elsewhere, one as a keyframe no clip annotates
    frames[2] = dataclasses.replace(frames[2], keyframe_id=0)
    frames[3] = dataclasses.replace(frames[3], keyframe_id=99)
    got = train.evaluate_action(clips, params, config)
    assert repr(got) == repr(reference_frame_ap(*_loop_detections(clips, params, config)))
    assert repr(got) != repr(distinct)


def test_graph_order_and_fg_rows_put_block_stacks_in_position_order():
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3, feature_channels=4,
                          action_classes=3)
    graph = build_batch([c.frames for c in ragged_action_clips(3)], init_params(config), config)
    assert len(graph.blocks) > 4
    # order inverts where: the slices laid end to end, read through it, are where
    slices = [(k, j) for k, block in enumerate(graph.blocks) for j in range(len(block.positions))]
    assert [slices[i] for i in graph.order] == graph.where
    rows = np.concatenate([b.fg_states.data.reshape(-1, config.state_dim) for b in graph.blocks])
    want = np.concatenate([graph.blocks[k].fg_states.data[j] for k, j in graph.where])
    assert rows[graph.fg_rows].tobytes() == want.tobytes()


def test_training_and_forward_passes_derive_no_evaluation_index(tmp_path, monkeypatch):
    for name in ("order", "fg_rows"):
        monkeypatch.setattr(SpatioTemporalGraph, name,
                            property(lambda self: pytest.fail("derived an evaluation index")))
    config = small_config(tau_c=3)
    clips = tiny_clips(tmp_path, clips=2)
    train_loop(clips, config, Schedule().scaled(1.0), seed=0, batch_size=2)
    run_inference(build_graph(clips[0].frames, init_params(config), config),
                  init_params(config), config)


def scenegraph_clips(tmp_path):
    manifest = data.synth_scenegraph(str(tmp_path / "sg"), seed=2, clips=2, keyframes=2,
                                     objects=3, relations=2, channels=6)
    info, records = data.load_dataset(manifest)
    return [data.featurize_clip(c, info, mode=data.EVAL_MODE) for c in records]


def test_evaluate_action_names_a_scenegraph_clip_before_building_a_graph(tmp_path,
                                                                         monkeypatch):
    clips = scenegraph_clips(tmp_path)
    config = small_config()
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ValidationError, match=re.escape(
            f"clip {clips[0].clip_id!r} has no gt_action_labels, which the action task reads")):
        train.evaluate_action(clips, init_params(config), config)


def test_evaluate_scenegraph_names_an_action_clip_before_building_a_graph(tmp_path,
                                                                          monkeypatch):
    clips = tiny_clips(tmp_path, clips=2)
    config = small_config(task="scenegraph", object_classes=3, relation_classes=2)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ValidationError, match=re.escape(
            f"clip {clips[0].clip_id!r} has no object_classes, which the scenegraph task reads")):
        train.evaluate_scenegraph(clips, init_params(config), config)


def test_train_loop_names_a_scenegraph_clip_under_an_action_config(tmp_path, monkeypatch):
    clips = scenegraph_clips(tmp_path)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ValidationError, match=re.escape(
            f"clip {clips[0].clip_id!r} has no action_labels, which the action task reads")):
        train_loop(clips, small_config(), Schedule(), seed=0)


def test_train_loop_names_a_keyframe_featurized_in_evaluation_mode(tmp_path, monkeypatch):
    # evaluation mode scores a keyframe's detections and leaves its action
    # labels None; training must name that keyframe before building a graph,
    # where it used to stop in action_loss with a ShapeError naming neither
    manifest = data.synth_action_overfit(str(tmp_path / "ds"), seed=1, clips=3, classes=2,
                                         channels=6)
    info, records = data.load_dataset(manifest)
    kf = records[2].keyframes[1]
    records[2].keyframes[1] = dataclasses.replace(kf, detections=list(kf.fg_boxes))
    clips = [data.featurize_clip(c, info, mode=data.EVAL_MODE) for c in records]
    assert [y is None for c in clips for y in c.action_labels] == [False] * 5 + [True]
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ValidationError, match=re.escape(
            f"clip {clips[2].clip_id!r} has no action_labels at keyframe 1, "
            "which the action task reads")):
        train_loop(clips, small_config(), Schedule(), seed=0)


def test_evaluate_action_names_a_clip_whose_annotations_miss_a_keyframe():
    config = small_config(action_classes=3, feature_channels=4)
    clips = ragged_action_clips(3)
    clips[3].keyframe_ids.pop()
    with pytest.raises(ValidationError, match=re.escape(
            "clip 'a3' has 2 keyframe_ids for 3 keyframes")):
        train.evaluate_action(clips, init_params(config), config)


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, math.nan])
def test_evaluate_action_checks_the_iou_threshold_before_building_a_graph(threshold,
                                                                          monkeypatch):
    config = small_config(action_classes=3, feature_channels=4)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ConfigError, match=re.escape(
            f"IoU threshold must be in (0, 1], got {threshold}")):
        train.evaluate_action(ragged_action_clips(3), init_params(config), config,
                              iou_threshold=threshold)


def test_eval_runs_keep_clip_order_and_stay_within_the_budget(monkeypatch):
    config = small_config(heads=2, state_dim=5, feature_channels=4)
    rng = np.random.default_rng(23)
    clips = []
    for c in range(40):
        frames = []
        for k in range(int(rng.integers(1, 5))):
            n, cells, props = (int(v) for v in rng.integers((1, 1, 0), (9, 20, 4)))
            frames.append(KeyframeFeatures(k, [Box(0.1, 0.1, 0.5, 0.5)] * n, np.zeros((n, 4)),
                                           np.zeros((cells, 4)), (1, cells),
                                           [Box(0.2, 0.2, 0.6, 0.6)] * props,
                                           np.zeros((props, 4)) if props else None))
        clips.append(data.ClipFeatures(clip_id=f"c{c}", frames=frames))
    costs = {id(clip): clip_cost(clip, config) for clip in clips}
    for budget in [1, 200, 1000, 5000, 10 ** 9]:
        monkeypatch.setattr(train, "EVAL_BUDGET", budget)
        runs = train.eval_runs(clips, config)
        # every clip once, whole, in order
        assert [clip for run in runs for clip in run] == clips
        assert all(run for run in runs)
        for i, run in enumerate(runs):
            held = sum(costs[id(clip)] for clip in run)
            assert held <= budget or len(run) == 1
            # a run ends only where the next clip would not fit
            if i + 1 < len(runs):
                assert held + costs[id(runs[i + 1][0])] > budget
    # a run may hold exactly the budget
    monkeypatch.setattr(train, "EVAL_BUDGET", costs[id(clips[0])] + costs[id(clips[1])])
    assert len(train.eval_runs(clips, config)[0]) >= 2
    assert train.eval_runs([], config) == []
    # the benchmark's wide clips: 8 keyframes of 16 boxes over 7x7 cells, d = 64, 4 heads
    wide = small_config(state_dim=64, heads=4, message_fns=("nonlocal", "gat"), tau_c=3,
                        task="scenegraph", feature_channels=16, object_classes=5,
                        relation_classes=3)
    frames = [KeyframeFeatures(k, [Box(0.1, 0.1, 0.5, 0.5)] * 16, np.zeros((16, 16)),
                               np.zeros((49, 16)), (7, 7)) for k in range(8)]
    clips = [data.ClipFeatures(clip_id=f"w{c}", frames=frames) for c in range(16)]
    assert clip_cost(clips[0], wide) == 66560
    monkeypatch.undo()
    assert [len(run) for run in train.eval_runs(clips[:4], wide)] == [4]
    assert [len(run) for run in train.eval_runs(clips, wide)] == [15, 1]


def test_evaluate_scenegraph_counts_a_repeated_k_once():
    config = small_config(task="scenegraph", feature_channels=4, object_classes=3,
                          relation_classes=3)
    params = init_params(config, seed=1)
    clips = ragged_scenegraph_clips()
    once = train.evaluate_scenegraph(clips, params, config, ks=(50, 3), mode="predcls")
    assert train.evaluate_scenegraph(clips, params, config, ks=(50, 3, 50),
                                     mode="predcls") == once
    assert once[50] == 1.0


@pytest.mark.parametrize("ks, message", [
    ((2.5,), "recall cutoff k must be an integer, got 2.5"),
    ((True,), "recall cutoff k must be an integer, got True"),
    ((20, math.nan), "recall cutoff k must be an integer, got nan"),
    ((np.True_,), "recall cutoff k must be an integer, got np.True_"),
    ((), "recall needs at least one cutoff k"),
    ((3, 0), "recall cutoff k must be positive, got 0"),
])
def test_evaluate_scenegraph_rejects_cutoffs_that_are_not_counts(ks, message, monkeypatch):
    # 2.5 used to report top-3 recall under the key 2.5, True top-1 recall
    # under True, NaN a recall of 0, and no cutoff an empty report
    config = small_config(task="scenegraph", feature_channels=4, object_classes=3,
                          relation_classes=3)
    monkeypatch.setattr(train, "build_batch", lambda *a: pytest.fail("built a graph"))
    with pytest.raises(ConfigError, match=re.escape(message)):
        train.evaluate_scenegraph(ragged_scenegraph_clips(), init_params(config), config, ks=ks)
    with pytest.raises(ConfigError, match=re.escape(message)):
        metrics.triplet_recall(np.zeros((2, 3)), np.zeros((1, 3)),
                               np.array([[1, 0, 0, 0, 0]]), ks, "sgcls")


def test_recall_cutoffs_may_be_numpy_integers():
    config = small_config(task="scenegraph", feature_channels=4, object_classes=3,
                          relation_classes=3)
    params, clips = init_params(config, seed=1), ragged_scenegraph_clips()
    got = train.evaluate_scenegraph(clips, params, config, ks=(np.int64(3), 50), mode="predcls")
    assert got == train.evaluate_scenegraph(clips, params, config, ks=(3, 50), mode="predcls")


# ---------------------------------------------------------------------------
# checkpoints


def _read_v3(path: str) -> tuple[dict, bytes]:
    """A checkpoint's header, parsed, and the bytes after it."""
    with open(path, "rb") as f:
        raw = f.read()
    n = int.from_bytes(raw[:8], "little")
    return json.loads(raw[8:8 + n]), raw[8 + n:]


def _write_v3(path: str, header, body: bytes) -> None:
    """Write header, as JSON padded to a multiple of 8 bytes, and body in the checkpoint layout."""
    text = json.dumps(header).encode()
    text += b" " * (-len(text) % 8)
    with open(path, "wb") as f:
        f.write(len(text).to_bytes(8, "little") + text + body)


def _saved(tmp_path, **overrides) -> str:
    """A tiny model's checkpoint, saved; its path."""
    config = small_config(state_dim=2, feature_channels=2)
    params = init_params(config, seed=0)
    params.update({name: Tensor(values, requires_grad=True, name=name)
                   for name, values in overrides.items()})
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, params, config, seed=0)
    return path


def test_checkpoint_round_trip(tmp_path):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3)
    params = init_params(config, seed=9)
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, params, config, seed=9, log=[{"epoch": 0, "loss": 1.0, "lr": 0.1}])
    loaded, config2, meta = load_checkpoint(path)
    assert config2 == config
    assert meta["seed"] == 9
    assert meta["log"][0]["loss"] == 1.0
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    config = small_config()
    params = init_params(config, seed=2)
    p1, p2 = str(tmp_path / "a.safetensors"), str(tmp_path / "b.safetensors")
    save_checkpoint(p1, params, config, seed=2)
    save_checkpoint(p2, params, config, seed=2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        json.dump({"format": "something-else"}, f)
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: not a model checkpoint$"):
        load_checkpoint(path)
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    for meta in ({**header["__metadata__"], "format": "something-else"}, None, "x"):
        _write_v3(path, {**header, "__metadata__": meta}, body)
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: not a model checkpoint$"):
            load_checkpoint(path)


def test_checkpoint_rejects_tampered_shape(tmp_path):
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    saved = header["input.foreground.weight"]
    # a smaller shape, and the right shape written as floats
    for shape in ([1, 1], [float(n) for n in saved["shape"]]):
        _write_v3(path, {**header, "input.foreground.weight": {**saved, "shape": shape}}, body)
        with pytest.raises(ValidationError) as err:
            load_checkpoint(path)
        assert "input.foreground.weight" in str(err.value)


def test_checkpoint_rejects_missing_param(tmp_path):
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    del header["readout.action.bias"]
    _write_v3(path, header, body)
    with pytest.raises(ValidationError) as err:
        load_checkpoint(path)
    assert "readout.action.bias" in str(err.value)


@pytest.mark.parametrize("fault", ["missing", "non-finite", "shape"])
def test_save_checkpoint_refuses_what_load_refuses_and_writes_nothing(tmp_path, fault):
    config = small_config(state_dim=2, feature_channels=2)
    params = init_params(config, seed=0)
    if fault == "missing":
        del params["readout.action.bias"]
        message = ("parameter names do not match the config "
                   "(missing ['readout.action.bias'], unexpected [])")
    elif fault == "non-finite":
        params["readout.action.bias"] = ng._wrap([0.5, math.nan], name="readout.action.bias")
        message = "'readout.action.bias' holds non-finite values"
    else:
        params["readout.action.bias"] = Tensor([0.5, 0.5, 0.5], name="readout.action.bias")
        message = "'readout.action.bias' has shape (3,), expected (2,)"
    path = str(tmp_path / "model.safetensors")
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: not saved: "
                                              f"{re.escape(message)}$"):
        save_checkpoint(path, params, config, seed=0)
    assert not (tmp_path / "model.safetensors").exists()


CHECKPOINT_VALUES = json_values(None, True, "0.5", 0.5, 10 ** 400, float("nan"), -1, 1, [], {},
                                [2, 2], [0.5, "x"], "F64", "3", [0, 8], "")


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A checkpoint of a tiny model: its path, its header as JSON text with the
    config as an object, and its tensor bytes."""
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path_factory.mktemp("checkpoint") / "model.safetensors")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    header, body = _read_v3(path)
    header["__metadata__"]["config"] = json.loads(header["__metadata__"]["config"])
    return path, json.dumps(header), body


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pick=st.integers(0, 10 ** 4), how=st.sampled_from(["drop", "add", "replace"]),
       value=CHECKPOINT_VALUES, key=st.text(max_size=4))
def test_mutated_checkpoints_load_or_name_the_file(small_checkpoint, pick, how, value, key):
    # a header field goes missing, an extra one appears, or one takes a
    # wrong-typed value; the config is mutated as an object and written
    # back as the JSON text the metadata holds
    path, text, body = small_checkpoint
    header = json.loads(text)
    where = pick_path(header, pick)
    if how == "replace" or not where:
        header = set_at(header, where, value)
    else:
        parent = header
        for step in where[:-1]:
            parent = parent[step]
        if how == "drop":
            del parent[where[-1]]
        elif isinstance(parent[where[-1]], dict):
            parent[where[-1]][key] = value
        elif isinstance(parent[where[-1]], list):
            parent[where[-1]].append(value)
    meta = header.get("__metadata__") if isinstance(header, dict) else None
    if isinstance(meta, dict) and "config" in meta:
        meta["config"] = json.dumps(meta["config"])
    _write_v3(path, header, body)
    try:
        params, loaded_config, _ = load_checkpoint(path)
    except ValidationError as err:
        assert str(err).startswith(f"{path}: "), str(err)
    else:
        assert loaded_config == ModelConfig(**json.loads(meta["config"]))
        assert all(np.isfinite(p.data).all() for p in params.values())


def test_checkpoint_rejects_unreadable_and_non_numeric_files(tmp_path):
    path = _saved(tmp_path)
    with open(path, "rb") as f:
        raw = f.read()
    header, body = _read_v3(path)
    meta = header["__metadata__"]
    n = int.from_bytes(raw[:8], "little")
    blobs = [b"[" * 100_000, b'{"format": "\xff"}', b"", raw[:8] + b"\xff" + raw[9:],
             raw[:8] + b"[" * (n - 1) + b"]" + body]
    for bad in ([1, 2], {**header, "__metadata__": {**meta, "version": 3}},
                {**header, "__metadata__": {**meta, "version": True}},
                {**header, "__metadata__": {**meta, "config": {"state_dim": 2}}},
                {**header, "__metadata__": {**meta, "config": "[2]"}},
                {**header, "__metadata__": {**meta, "seed": 0}},
                {**header, "__metadata__": {**meta, "log": "{"}},
                {**header, "input.context.weight": [0.5, 0.5, 0.5, 0.5]}):
        _write_v3(path, bad, body)
        with open(path, "rb") as f:
            blobs.append(f.read())
    for blob in blobs:
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: "):
            load_checkpoint(path)
    # a config too large to lay out is an invalid config, found before the
    # body is read or anything is allocated: here the file holds no body
    config = json.loads(meta["config"])
    config["state_dim"] = 100_000_000_000
    _write_v3(path, {**header, "__metadata__": {**meta, "config": json.dumps(config)}}, b"")
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: invalid config: state_dim, heads, "):
        load_checkpoint(path)


def test_checkpoint_rejects_version_1(tmp_path):
    # a version-1 file stored each tensor as a list of JSON numbers
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path / "model.json")
    payload = {"format": "stgraph-checkpoint", "version": 1, "seed": 0,
               "config": config.to_dict(),
               "params": {name: {"shape": list(t.shape), "values": t.data.ravel().tolist()}
                          for name, t in init_params(config, seed=0).items()}}
    with open(path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: unsupported checkpoint "
                                              f"version 1$"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_2(tmp_path):
    # a version-2 file was one sorted-key JSON document, each tensor the
    # base64 of its little-endian float64 bytes
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path / "checkpoint.json")
    payload = {"config": config.to_dict(), "format": "stgraph-checkpoint", "seed": 0,
               "version": 2,
               "params": {name: {"data": base64.b64encode(t.data.astype("<f8").tobytes()).decode(),
                                 "shape": list(t.shape)}
                          for name, t in init_params(config, seed=0).items()}}
    with open(path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: unsupported checkpoint "
                                              f"version 2$"):
        load_checkpoint(path)


def _respan(path: str, name: str, raw: bytes) -> tuple[int, int]:
    """Put raw in place of name's bytes, with its data_offsets and the later tensors' moved to
    match; name's saved [begin, end)."""
    header, body = _read_v3(path)
    begin, end = header[name]["data_offsets"]
    shift = len(raw) - (end - begin)
    for entry in header.values():
        offsets = entry.get("data_offsets", [-1])
        if offsets[0] >= end:
            entry["data_offsets"] = [offsets[0] + shift, offsets[1] + shift]
    header[name]["data_offsets"] = [begin, begin + len(raw)]
    _write_v3(path, header, body[:begin] + raw + body[end:])
    return begin, end


@pytest.mark.parametrize("raw", [
    struct.pack("<3d", 0.5, 0.5, 0.5),
    struct.pack("<5d", *[0.5] * 5),
    struct.pack("<4d", *[0.5] * 4) + b"\0",
], ids=["value-short", "value-extra", "byte-extra"])
def test_checkpoint_rejects_wrong_byte_counts(tmp_path, raw):
    # data_offsets spanning another byte count than the shape's, the file
    # itself consistent with them
    path = _saved(tmp_path)
    begin, end = _respan(path, "input.context.weight", raw)
    with pytest.raises(ValidationError, match=(
            f"^{re.escape(path)}: 'input.context.weight' has data_offsets "
            f"\\[{begin}, {begin + len(raw)}\\], expected \\[{begin}, {end}\\]$")):
        load_checkpoint(path)


@pytest.mark.parametrize("move", ["gap", "overlap", "out-of-range", "swapped"])
def test_checkpoint_rejects_gapped_overlapping_or_out_of_range_offsets(tmp_path, move):
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    names = sorted(set(header) - {"__metadata__"})
    name = names[2] if move != "out-of-range" else names[-1]
    begin, end = header[name]["data_offsets"]
    if move == "gap":
        # 8 unused bytes before name's tensor
        for later in names[2:]:
            header[later]["data_offsets"] = [o + 8 for o in header[later]["data_offsets"]]
        body = body[:begin] + bytes(8) + body[begin:]
        got = [begin + 8, end + 8]
    elif move == "overlap":
        got = header[name]["data_offsets"] = [begin - 8, end - 8]
    elif move == "out-of-range":
        got = header[name]["data_offsets"] = [begin, len(body) + 8]
    else:
        # two tensors of one size, each at the other's offsets
        other = next(n for n in names[3:] if header[n]["shape"] == header[name]["shape"])
        got = header[other]["data_offsets"]
        header[name]["data_offsets"], header[other]["data_offsets"] = got, [begin, end]
    _write_v3(path, header, body)
    with pytest.raises(ValidationError, match=(
            f"^{re.escape(path)}: {re.escape(repr(name))} has data_offsets "
            f"{re.escape(str(got))}, expected \\[{begin}, {end}\\]$")):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    for extra in (b"\0", bytes(8), struct.pack("<d", 0.5)):
        _write_v3(path, header, body + extra)
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(path)}: the tensors take {len(body)} bytes, "
                f"but {len(body) + len(extra)} follow the header$")):
            load_checkpoint(path)


@pytest.mark.parametrize("dtype", ["F32", "BF16", "f64", "<f8", 64])
def test_checkpoint_rejects_a_wrong_dtype(tmp_path, dtype):
    path = _saved(tmp_path)
    header, body = _read_v3(path)
    header["readout.action.bias"]["dtype"] = dtype
    _write_v3(path, header, body)
    with pytest.raises(ValidationError, match=(
            f"^{re.escape(path)}: 'readout.action.bias' has dtype {re.escape(repr(dtype))}, "
            f"expected 'F64'$")):
        load_checkpoint(path)


def test_checkpoint_truncated_at_any_length_names_the_file(tmp_path):
    path = _saved(tmp_path)
    with open(path, "rb") as f:
        raw = f.read()
    n = int.from_bytes(raw[:8], "little")
    for length in range(len(raw)):
        with open(path, "wb") as f:
            f.write(raw[:length])
        if length < 8:
            message = f"{length} bytes hold no 8-byte header length"
        elif length < 8 + n:
            message = f"header length {n} runs past the end of the {length}-byte file"
        else:
            message = (f"the tensors take {len(raw) - 8 - n} bytes, "
                       f"but {length - 8 - n} follow the header")
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: {re.escape(message)}$"):
            load_checkpoint(path)


def test_checkpoint_header_length_past_the_end_fails_before_allocating(tmp_path):
    path = str(tmp_path / "model.safetensors")
    with open(path, "wb") as f:
        f.write((2 ** 26).to_bytes(8, "little") + b"{}      ")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(path)}: header length {2 ** 26} runs past the end "
                f"of the 16-byte file$")):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # reading the 64 MiB the length claims would have allocated them first
    assert peak < 2 ** 20


@pytest.mark.parametrize("char", [" ", "\n", "-", "_", "=", "é"])
def test_checkpoint_rejects_a_header_that_is_not_json(tmp_path, char):
    # the header's opening brace replaced, its length kept consistent
    path = _saved(tmp_path)
    with open(path, "rb") as f:
        raw = f.read()
    n = int.from_bytes(raw[:8], "little")
    text = char.encode() + raw[9:8 + n]
    with open(path, "wb") as f:
        f.write(len(text).to_bytes(8, "little") + text + raw[8 + n:])
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: cannot read checkpoint header: "):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_non_finite_bytes(tmp_path, value):
    path = _saved(tmp_path)
    _respan(path, "readout.action.bias", struct.pack("<2d", 0.5, value))
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: 'readout.action.bias' holds non-finite values"):
        load_checkpoint(path)


def test_checkpoint_loads_the_largest_finite_value(tmp_path):
    top = 1.7976931348623157e308
    path = _saved(tmp_path, **{"readout.action.bias": [top, -top]})
    params, _, _ = load_checkpoint(path)
    assert params["readout.action.bias"].data.tolist() == [top, -top]


def test_checkpoint_round_trips_zero_sign_and_subnormals_bit_for_bit(tmp_path):
    config = small_config(state_dim=2, feature_channels=2)
    params = init_params(config, seed=0)
    special = np.array([[-0.0, 5e-324], [2.2250738585072014e-308, -5e-324]])
    params["input.context.weight"] = Tensor(special, requires_grad=True,
                                            name="input.context.weight")
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, params, config, seed=0)
    loaded, _, _ = load_checkpoint(path)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes(), name


def test_checkpoint_stores_little_endian_float64_in_c_order(tmp_path):
    path = _saved(tmp_path, **{"input.context.weight": [[1.0, -2.5], [0.1, 3e-300]]})
    header, body = _read_v3(path)
    entry = header["input.context.weight"]
    assert entry["shape"] == [2, 2] and entry["dtype"] == "F64"
    begin, end = entry["data_offsets"]
    assert body[begin:end] == struct.pack("<4d", 1.0, -2.5, 0.1, 3e-300)


def test_loaded_parameters_are_read_only_views_of_one_buffer(tmp_path):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3)
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, init_params(config, seed=1), config, seed=1)
    loaded, _, _ = load_checkpoint(path)
    # in param_shapes order, as init_params makes them
    assert list(loaded) == list(param_shapes(config))
    arrays = [loaded[name].data for name in sorted(loaded)]
    assert not any(a.flags.writeable for a in arrays)
    # each tensor's bytes start where the one before it, by name, ends
    starts = [a.__array_interface__["data"][0] for a in arrays]
    assert [s + a.nbytes for s, a in zip(starts, arrays)][:-1] == starts[1:]


def _reference_checkpoint_bytes(params, config, seed, log=None) -> bytes:
    """A checkpoint's bytes, from one json.dumps of its whole header and the tensors' bytes."""
    def dumps(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    meta = {"format": "stgraph-checkpoint", "version": "3", "seed": dumps(seed),
            "config": dumps(config.to_dict())}
    if log is not None:
        meta["log"] = dumps(log)
    header, body = {"__metadata__": meta}, b""
    for name in sorted(params):
        raw = params[name].data.astype("<f8").tobytes(order="C")
        header[name] = {"dtype": "F64", "shape": list(params[name].shape),
                        "data_offsets": [len(body), len(body) + len(raw)]}
        body += raw
    text = dumps(header).encode()
    text += b" " * (-len(text) % 8)
    return struct.pack("<Q", len(text)) + text + body


CHECKPOINT_LOG = [{"epoch": 0, "lr": 1.25e-4, "loss": 0.1 + 0.2},
                  {"epoch": 1, "lr": 0.1, "loss": 5e-324}]


@pytest.mark.parametrize("log", [None, CHECKPOINT_LOG], ids=["no-log", "log"])
@pytest.mark.parametrize("config", [
    small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3),
    small_config(task="scenegraph", feature_channels=4, object_classes=3, relation_classes=3,
                 message_fns=("gat",), iterations=2),
], ids=["action", "scenegraph"])
def test_checkpoint_bytes_are_the_sorted_compact_json_of_the_payload(tmp_path, config, log):
    params = init_params(config, seed=5)
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, params, config, seed=5, log=log)
    with open(path, "rb") as f:
        assert f.read() == _reference_checkpoint_bytes(params, config, 5, log)


def test_checkpoint_writes_non_contiguous_tensors_in_c_order(tmp_path):
    config = small_config(state_dim=3, feature_channels=2)
    params = init_params(config, seed=0)
    rng = np.random.default_rng(3)
    fortran = np.asfortranarray(rng.uniform(-1, 1, size=params["input.context.weight"].shape))
    transposed = rng.uniform(-1, 1, size=params["input.foreground.weight"].shape[::-1]).T
    assert not fortran.flags.c_contiguous and not transposed.flags.c_contiguous
    params["input.context.weight"] = Tensor(fortran, requires_grad=True,
                                            name="input.context.weight")
    params["input.foreground.weight"] = Tensor(transposed, requires_grad=True,
                                               name="input.foreground.weight")
    path = str(tmp_path / "model.safetensors")
    save_checkpoint(path, params, config, seed=0, log=CHECKPOINT_LOG)
    with open(path, "rb") as f:
        assert f.read() == _reference_checkpoint_bytes(params, config, 0, CHECKPOINT_LOG)
    loaded, _, _ = load_checkpoint(path)
    for name, t in loaded.items():
        assert t.data.tobytes() == params[name].data.tobytes(), name
        assert t.data.dtype == np.float64 and not t.data.flags.writeable, name
        assert t.name == name and t.requires_grad, name


def test_clip_loss_tape_length_independent_of_box_count():
    # message passing is batched per keyframe, so more boxes add no tape entries
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3)
    params = init_params(config, seed=0)
    rng = np.random.default_rng(4)
    grids = [FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(1, 3, 3, 6))), keyframe_id=k)
             for k in range(3)]

    def tape_length(boxes):
        corners = rng.uniform(0.0, 0.5, size=(boxes, 2))
        box_list = [Box(x, y, x + 0.4, y + 0.4) for x, y in corners]
        clip = data.ClipFeatures(
            clip_id="c",
            frames=[featurize_keyframe(g, box_list) for g in grids],
            action_labels=[np.eye(2)[np.arange(boxes) % 2] for _ in grids],
        )
        with Tape() as tape:
            train.clip_loss(clip, params, config)
        return len(tape)

    assert tape_length(4) == tape_length(16)


def wide_config(**overrides) -> ModelConfig:
    """The benchmark's wide scene-graph model: 4 heads of nonlocal and GAT, tau_c = 3."""
    return small_config(**{**dict(heads=4, message_fns=("nonlocal", "gat"), tau_c=3,
                                  task="scenegraph", feature_channels=4, object_classes=5,
                                  relation_classes=3), **overrides})


def wide_clip() -> data.ClipFeatures:
    """8 keyframes of 16 boxes over a 7x7 grid of 4 channels."""
    rng = np.random.default_rng(5)
    frames, classes, relations = [], [], []
    for k in range(8):
        grid = FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(1, 7, 7, 4))), keyframe_id=k)
        corners = rng.uniform(0.0, 0.5, size=(16, 2))
        frames.append(featurize_keyframe(grid, [Box(x, y, x + 0.4, y + 0.4) for x, y in corners]))
        classes.append(rng.integers(0, 5, size=16))
        relations.append([(1, 0, 2)])
    return data.ClipFeatures(clip_id="w", frames=frames, object_classes=classes,
                             relations=relations)



def test_scene_graph_targets_are_built_once_per_keyframe(monkeypatch):
    config = wide_config()
    params = init_params(config, seed=0)
    clip = wide_clip()
    calls = []
    build = data.relation_target_matrix
    monkeypatch.setattr(data, "relation_target_matrix",
                        lambda *args: calls.append(args) or build(*args))
    losses = [train.clip_loss(clip, params, config).item() for _ in range(2)]
    assert losses[0] == losses[1] and len(calls) == len(clip.frames)
    for local, (n, relations, classes) in enumerate(calls):
        target = clip.relation_targets(local, config.relation_classes)
        assert target.tobytes() == build(n, relations, classes).tobytes()
        assert not target.flags.writeable
    assert all(not t.flags.writeable for t in clip.one_hots(config.object_classes))
    # a bad predicate fails at first use, and again at the next, with its message
    clip = wide_clip()
    clip.relations[3] = [(1, 0, 3)]
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"^relation \(1, 0, 3\) does not match "
                                                  r"any of 3 predicates$"):
            train.clip_loss(clip, params, config)

def test_clip_loss_tape_length_of_wide_clip():
    # Width, box count and grid size do not change the count, so a narrow
    # model stands in for d = 64.
    config = wide_config()
    params = init_params(config, seed=0)
    clip = wide_clip()
    with Tape() as tape:
        train.clip_loss(clip, params, config)
    # all 8 keyframes are one (16 boxes, 49 cells, no proposal) block
    projection = 2                 # foreground and context matmuls
    # one entry per message function, all four heads in it, then the gate and the update
    slots_gate_update = 1 + 1 + 1 + 1
    spatial = 1 + slots_gate_update  # [own; context] per keyframe, as one stack
    # every keyframe has a temporal neighbor, so the temporal phase runs on
    # that block too; the two edge keyframes (one neighbor) and the six
    # interior ones (two) only gather their neighbor rows apart
    temporal = 2 + slots_gate_update
    readout = 2 + 1                # object logits 2; relation logits of every pair 1
    loss = 1
    assert len(tape) == projection + spatial + temporal + readout + loss == 17


def test_training_steps_reuse_freed_memory():
    # At d = 64 a wide clip's stacked arrays reach 1 MB.  With glibc's
    # adaptive heap thresholds, a step gave the top of the heap back to
    # the kernel when its tape was freed and the next step faulted it in
    # again, over 500 page faults per step.
    resource = pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("no glibc mallopt")
    config = wide_config(state_dim=64)
    params = init_params(config, seed=0)
    clip = wide_clip()

    def step():
        with Tape() as tape:
            loss = train.clip_loss(clip, params, config)
        grad(tape, loss, params)

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3 * 50


def overfit_config() -> ModelConfig:
    """The benchmark's overfit model: two nonlocal heads, spatial only."""
    return small_config(state_dim=16, heads=2, feature_channels=8, action_classes=3)


def test_batch_tape_length_does_not_depend_on_clip_count(tmp_path):
    # overfit clips are uniform (2 keyframes of 2 boxes, 16 cells and one
    # proposal), so a batch of any size is one block
    config = overfit_config()
    clips = tiny_clips(tmp_path, clips=8, classes=3, channels=8)
    params = init_params(config, seed=0)

    def tape_length(count):
        batch = clips[:count]
        with Tape() as tape:
            graph = train.build_batch([c.frames for c in batch], params, config)
            train._batch_loss(batch, graph, params, config)
        return len(tape)

    projection = 3 + 1        # foreground, context and proposal matmuls, [cells; proposals]
    spatial = 1 + 1 + 1 + 1   # [own; context], both heads in one entry, the gate, the update
    readout, loss = 2, 1      # logits and bias, then every clip's loss at once
    assert [tape_length(n) for n in (1, 4, 8)] == [projection + spatial + readout + loss] * 3


def ragged_clips(seed, config):
    """Clips of 1-4 keyframes with 1-3 boxes, 0-2 proposals and 1x1-2x3 grids."""
    rng = np.random.default_rng(seed)
    clips = []
    for c in range(4):
        frames, labels = [], []
        for k in range(int(rng.integers(1, 5))):
            h, w = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            grid = FeatureGrid(values=Tensor(rng.uniform(-1, 1, size=(1, h, w, 6))),
                               keyframe_id=k)
            corners = rng.uniform(0.0, 0.5, size=(int(rng.integers(1, 4)), 2))
            props = [Box(0.2, 0.2, 0.8, 0.8)] * int(rng.integers(0, 3))
            frames.append(featurize_keyframe(grid, [Box(x, y, x + 0.4, y + 0.4)
                                                    for x, y in corners], props))
            labels.append((rng.uniform(size=(len(corners), 2)) < 0.5).astype(float))
        clips.append(data.ClipFeatures(clip_id=f"c{c}", frames=frames, action_labels=labels))
    return clips


def test_batch_mates_do_not_change_a_clip():
    # a clip's states, logits and loss have the same bytes alone and in a
    # ragged batch; only the batch gradient's sums may round differently
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3)
    params = init_params(config, seed=3)
    clips = ragged_clips(3, config)
    weight, bias = params["readout.action.weight"], params["readout.action.bias"]

    def outputs(result, positions):
        states = [result.fg_states[p].data for p in positions]
        return states, [action_readout(Tensor(s), weight, bias).data for s in states]

    batch_graph = train.build_batch([c.frames for c in clips], params, config)
    in_batch = run_inference(batch_graph, params, config)
    summed, total = None, None
    for clip, span in zip(clips, batch_graph.clips):
        alone = run_inference(train.build_graph(clip.frames, params, config), params, config)
        for got, want in zip(outputs(in_batch, span), outputs(alone, range(len(clip.frames)))):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        with Tape() as tape:
            loss = train.clip_loss(clip, params, config)
        grads = grad(tape, loss, params)
        summed = {n: g.data if summed is None else summed[n] + g.data for n, g in grads.items()}
        total = loss.data if total is None else total + loss.data
    with Tape() as tape:
        batch_graph = train.build_batch([c.frames for c in clips], params, config)
        batch_loss = train._batch_loss(clips, batch_graph, params, config)
    batch_grads = grad(tape, batch_loss, params)
    assert batch_loss.data.tobytes() == total.tobytes()
    worst = max(float(np.abs(batch_grads[n].data - summed[n]).max()) for n in params)
    assert worst <= 1e-12


def test_train_loss_gradient_matches_finite_differences(tmp_path):
    # one batch step of the real loop objective against central differences
    clips = tiny_clips(tmp_path, clips=2)
    config = small_config(state_dim=5, feature_channels=6)
    params = init_params(config, seed=1)
    with Tape() as tape:
        loss = ng.add(train.clip_loss(clips[0], params, config),
                      train.clip_loss(clips[1], params, config))
    analytic = grad(tape, loss, params)

    def objective(p):
        return (train.clip_loss(clips[0], p, config).item()
                + train.clip_loss(clips[1], p, config).item())

    numeric = ng.finite_difference_grads(objective, params, step=1e-5)
    worst = max(ng.max_relative_error(analytic[k].data, numeric[k]) for k in params)
    assert worst <= 1e-4
