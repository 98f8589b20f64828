"""Schedule, SGD, initialization, training loop, and checkpoint tests."""

import base64
import ctypes
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stgraph.numgrad as ng
from stgraph import data, train
from stgraph.errors import ConfigError, NumericError, ValidationError
from stgraph.graph import Box, FeatureGrid, build_batch, build_graph, featurize_keyframe
from stgraph.numgrad import Tape, Tensor, grad
from stgraph.heads import action_readout, sg_readout
from stgraph.passing import ModelConfig, param_shapes, run_inference
from stgraph.train import (Schedule, SgdState, effective_batch_size, init_params,
                           load_checkpoint, lr_at, save_checkpoint, sgd_step, train_loop)

from json_fuzz import json_values, pick_path, set_at
from reference_eval import reference_recall


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
        for name in ("base_lr", "warmup_start_lr", "warmup_epochs", "total_epochs",
                     "decay_factor"):
            with pytest.raises(ConfigError, match="finite"):
                Schedule(**{name: bad})


def test_schedule_validation():
    # a schedule checks itself when it is made
    with pytest.raises(ConfigError, match="^learning rates must be finite and positive$"):
        Schedule(base_lr=0.0)
    with pytest.raises(ConfigError, match="^decay_factor must be finite and exceed 1$"):
        Schedule(decay_factor=1.0)
    with pytest.raises(ConfigError, match="^decay_epochs must be sorted$"):
        Schedule(decay_epochs=(15.0, 10.0))
    with pytest.raises(ConfigError, match="^decays must not start before warmup ends$"):
        Schedule(decay_epochs=(3.0,))
    with pytest.raises(ConfigError):
        Schedule().scaled(0.0)
    with pytest.raises(ConfigError):
        lr_at(-1.0, Schedule())


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
    totals, count = dict.fromkeys(ks, 0.0), 0
    for clip in clips:
        # each clip alone, read back per keyframe
        graph = build_graph(clip.frames, params, config)
        preds = [sg_readout(stack, params["readout.object.weight"],
                            params["readout.object.bias"], params["readout.relation.weight"],
                            params["readout.relation.bias"])
                 for stack in run_inference(graph, params, config).states]
        for pos, (classes, relations) in enumerate(zip(clip.object_classes, clip.relations)):
            k, j = graph.where[pos]
            rel = preds[k].relation_logits
            gt = [(s, o, int(classes[s]), int(classes[o]), r) for s, o, r in relations]
            count += 1
            for cutoff in ks:
                totals[cutoff] += reference_recall(preds[k].object_logits.data[j],
                                                   None if rel is None else rel.data[j], gt,
                                                   cutoff, mode, classes)
    want = {cutoff: totals[cutoff] / count for cutoff in ks}
    assert 0.0 < want[1] < want[50]
    assert train.evaluate_scenegraph(clips, params, config, ks=ks, mode=mode) == want


def test_evaluate_scenegraph_counts_a_repeated_k_once():
    config = small_config(task="scenegraph", feature_channels=4, object_classes=3,
                          relation_classes=3)
    params = init_params(config, seed=1)
    clips = ragged_scenegraph_clips()
    once = train.evaluate_scenegraph(clips, params, config, ks=(50, 3), mode="predcls")
    assert train.evaluate_scenegraph(clips, params, config, ks=(50, 3, 50),
                                     mode="predcls") == once
    assert once[50] == 1.0


# ---------------------------------------------------------------------------
# checkpoints


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


def test_checkpoint_round_trip(tmp_path):
    config = small_config(heads=2, message_fns=("nonlocal", "gat"), tau_c=3)
    params = init_params(config, seed=9)
    path = str(tmp_path / "model.json")
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
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(p1, params, config, seed=2)
    save_checkpoint(p2, params, config, seed=2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        json.dump({"format": "something-else"}, f)
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_checkpoint_rejects_tampered_shape(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    path = str(tmp_path / "model.json")
    save_checkpoint(path, params, config, seed=0)
    saved = json.load(open(path))["params"]["input.foreground.weight"]
    # a smaller shape with matching data, and the right shape written as floats
    for shape, data in (([1, 1], _b64(struct.pack("<d", 0.0))),
                        ([float(n) for n in saved["shape"]], saved["data"])):
        payload = json.load(open(path))
        payload["params"]["input.foreground.weight"].update(shape=shape, data=data)
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(payload, f)
        with pytest.raises(ValidationError) as err:
            load_checkpoint(bad)
        assert "input.foreground.weight" in str(err.value)


def test_checkpoint_rejects_missing_param(tmp_path):
    config = small_config()
    params = init_params(config, seed=0)
    path = str(tmp_path / "model.json")
    save_checkpoint(path, params, config, seed=0)
    payload = json.load(open(path))
    del payload["params"]["readout.action.bias"]
    with open(path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValidationError) as err:
        load_checkpoint(path)
    assert "readout.action.bias" in str(err.value)


CHECKPOINT_VALUES = json_values(None, True, "0.5", 0.5, 10 ** 400, float("nan"), -1, 1, [], {},
                                [2, 2], [0.5, "x"], "AAAA", "====", "")


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A checkpoint of a tiny model, and its text."""
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path_factory.mktemp("checkpoint") / "model.json")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    with open(path) as f:
        return path, f.read()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pick=st.integers(0, 10 ** 4), how=st.sampled_from(["drop", "add", "replace"]),
       value=CHECKPOINT_VALUES, key=st.text(max_size=4))
def test_mutated_checkpoints_load_or_name_the_file(small_checkpoint, pick, how, value, key):
    # a field goes missing, an extra one appears, or one takes a wrong-typed value
    path, text = small_checkpoint
    payload = json.loads(text)
    where = pick_path(payload, pick)
    if how == "replace" or not where:
        payload = set_at(payload, where, value)
    else:
        parent = payload
        for step in where[:-1]:
            parent = parent[step]
        if how == "drop":
            del parent[where[-1]]
        elif isinstance(parent[where[-1]], dict):
            parent[where[-1]][key] = value
        elif isinstance(parent[where[-1]], list):
            parent[where[-1]].append(value)
    with open(path, "w") as f:
        json.dump(payload, f)
    try:
        params, loaded_config, _ = load_checkpoint(path)
    except ValidationError as err:
        assert str(err).startswith(f"{path}: "), str(err)
    else:
        assert loaded_config == ModelConfig(**payload["config"])
        assert all(np.isfinite(p.data).all() for p in params.values())


def test_checkpoint_rejects_unreadable_and_non_numeric_files(tmp_path):
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path / "model.json")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    with open(path) as f:
        payload = json.load(f)
    blobs = [b"[" * 100_000, b'{"format": "\xff"}']
    entry = payload["params"]["input.context.weight"]
    for value in ([0.5, 0.5, 0.5, 0.5], 12, None, "*" + entry["data"][1:],
                  _b64(struct.pack("<4d", math.nan, 0.5, 0.5, 0.5)),
                  _b64(struct.pack("<4d", 0.5, 0.5, 0.5, math.inf))):
        bad = json.loads(json.dumps(payload))
        bad["params"]["input.context.weight"]["data"] = value
        blobs.append(json.dumps(bad).encode())
    bad = json.loads(json.dumps(payload))
    bad["version"] = True
    blobs.append(json.dumps(bad).encode())
    for blob in blobs:
        with open(path, "wb") as f:
            f.write(blob)
        with pytest.raises(ValidationError, match=f"^{path}: "):
            load_checkpoint(path)
    # a config too large to lay out is an invalid config, found before any allocation
    payload["config"]["state_dim"] = 100_000_000_000
    with open(path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValidationError, match=f"^{path}: invalid config: state_dim, heads, "):
        load_checkpoint(path)


def _tiny_checkpoint(tmp_path, data: dict[str, str]) -> str:
    """Save a tiny model's checkpoint with some tensors' 'data' replaced; its path."""
    config = small_config(state_dim=2, feature_channels=2)
    path = str(tmp_path / "model.json")
    save_checkpoint(path, init_params(config, seed=0), config, seed=0)
    with open(path) as f:
        payload = json.load(f)
    for name, text in data.items():
        payload["params"][name]["data"] = text
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


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


@pytest.mark.parametrize("raw,message", [
    # the length is checked before decoding, the decoded byte count after
    (struct.pack("<3d", 0.5, 0.5, 0.5), "needs 'data' as a string of 44 base64 characters "
                                         "for 32 bytes"),
    (struct.pack("<5d", *[0.5] * 5), "needs 'data' as a string of 44 base64 characters "
                                     "for 32 bytes"),
    (struct.pack("<4d", *[0.5] * 4) + b"\0", "decodes to 33 bytes, expected 32"),
], ids=["value-short", "value-extra", "byte-extra"])
def test_checkpoint_rejects_wrong_byte_counts(tmp_path, raw, message):
    path = _tiny_checkpoint(tmp_path, {"input.context.weight": _b64(raw)})
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: 'input.context.weight' {message}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("char", [" ", "\n", "-", "_", "=", "\u00e9"])
def test_checkpoint_rejects_characters_outside_base64(tmp_path, char):
    good = _b64(struct.pack("<4d", 0.5, 0.25, -1.0, 2.0))
    for text in (good[:7] + char + good[8:], good[:7] + char + good[7:-1]):
        path = _tiny_checkpoint(tmp_path, {"input.context.weight": text})
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(path)}: 'input.context.weight' is not valid base64"):
            load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_non_finite_bytes(tmp_path, value):
    path = _tiny_checkpoint(tmp_path, {"readout.action.bias": _b64(struct.pack("<2d", 0.5, value))})
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: 'readout.action.bias' holds non-finite values"):
        load_checkpoint(path)


def test_checkpoint_loads_the_largest_finite_value(tmp_path):
    top = 1.7976931348623157e308
    path = _tiny_checkpoint(tmp_path, {"readout.action.bias": _b64(struct.pack("<2d", top, -top))})
    params, _, _ = load_checkpoint(path)
    assert params["readout.action.bias"].data.tolist() == [top, -top]


def test_checkpoint_round_trips_zero_sign_and_subnormals_bit_for_bit(tmp_path):
    config = small_config(state_dim=2, feature_channels=2)
    params = init_params(config, seed=0)
    special = np.array([[-0.0, 5e-324], [2.2250738585072014e-308, -5e-324]])
    params["input.context.weight"] = Tensor(special, requires_grad=True,
                                            name="input.context.weight")
    path = str(tmp_path / "model.json")
    save_checkpoint(path, params, config, seed=0)
    loaded, _, _ = load_checkpoint(path)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes(), name


def test_checkpoint_stores_little_endian_float64_in_c_order(tmp_path):
    config = small_config(state_dim=2, feature_channels=2)
    params = init_params(config, seed=0)
    params["input.context.weight"] = Tensor([[1.0, -2.5], [0.1, 3e-300]], requires_grad=True,
                                            name="input.context.weight")
    path = str(tmp_path / "model.json")
    save_checkpoint(path, params, config, seed=0)
    with open(path) as f:
        entry = json.load(f)["params"]["input.context.weight"]
    assert entry["shape"] == [2, 2]
    assert base64.b64decode(entry["data"]) == struct.pack("<4d", 1.0, -2.5, 0.1, 3e-300)


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
    slots_gate_update = 4 + 4 + 1 + 1
    spatial = 1 + slots_gate_update  # [own; context] per keyframe, as one stack
    # every keyframe has a temporal neighbor, so the temporal phase runs on
    # that block too; the two edge keyframes (one neighbor) and the six
    # interior ones (two) only gather their neighbor rows apart
    temporal = 2 + slots_gate_update
    readout = 2 + 5                # object logits 2; relation gathers 2, concat, logits 2
    loss = 1
    assert len(tape) == projection + spatial + temporal + readout + loss == 33


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
    spatial = 1 + 2 + 1 + 1   # [own; context], two heads, the gate, the update
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
