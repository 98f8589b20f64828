"""Tests of the benchmark itself: its checkers must reject corrupted
outputs, its own metric code must match hand-worked cases and the
library's, and a short run must report every declared metric.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bench
import checks
from spans import Span, Tracer, per_op_totals, self_seconds
from stgraph import graph as gr
from stgraph import metrics as mt
from stgraph import heads, numgrad, passing, train
from stgraph.heads import SceneGraphPrediction
from stgraph.numgrad import Tensor
from workloads import BATCH_SIZE, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """Set-up output of the overfit workload at seed 0."""
    workload = WORKLOADS["overfit"]
    config = passing.ModelConfig(seed=0, **workload.config)
    train_man, eval_man = workload.make_inputs(str(tmp_path_factory.mktemp("overfit")), 0)
    train_clips, eval_clips, params = bench.set_up(train_man, eval_man, config)
    return config, train_clips, eval_clips, params


# ---------------------------------------------------------------------------
# the oracle check


def test_oracle_check_passes_on_the_library(overfit):
    config, _, eval_clips, params = overfit
    ok, detail = bench.check_oracle(eval_clips[0], params, config)
    assert ok, detail


def test_states_nudged_by_1e_6_fail():
    rng = np.random.default_rng(0)
    reference = [rng.normal(size=(2, 4)) for _ in range(3)]
    program = [a.copy() for a in reference]
    assert checks.arrays_agree(program, reference, "states")[0]
    program[1][0, 2] += 1e-6
    ok, detail = checks.arrays_agree(program, reference, "states")
    assert not ok and "1.000e-06" in detail


def _readout_weights(rng, d, classes, objects, relations):
    return {"readout.action.weight": rng.normal(size=(d, classes)),
            "readout.action.bias": rng.normal(size=classes),
            "readout.object.weight": rng.normal(size=(d, objects)),
            "readout.object.bias": rng.normal(size=objects),
            "readout.relation.weight": rng.normal(size=(2 * d, relations)),
            "readout.relation.bias": rng.normal(size=relations)}


def test_oracle_readout_matches_the_library_heads():
    rng = np.random.default_rng(5)
    w = _readout_weights(rng, 4, 3, 5, 2)
    t = {n: Tensor(a) for n, a in w.items()}
    states = [rng.normal(size=(n, 4)) for n in (1, 2, 5)]
    library_action, library_sg = [], []
    for h in states:
        library_action.append(heads.action_readout(
            Tensor(h), t["readout.action.weight"], t["readout.action.bias"]).data)
        pred = heads.sg_readout(Tensor(h), t["readout.object.weight"], t["readout.object.bias"],
                                t["readout.relation.weight"], t["readout.relation.bias"])
        library_sg.append(pred.object_logits.data)
        if pred.relation_logits is not None:
            library_sg.append(pred.relation_logits.data)
    own_action = checks.oracle_readout(states, w, action=True)
    own_sg = checks.oracle_readout(states, w, action=False)
    assert checks.arrays_agree(library_action, own_action, "logits", tol=1e-12)[0]
    assert checks.arrays_agree(library_sg, own_sg, "logits", tol=1e-12)[0]
    assert [a.shape for a in own_sg] == [(1, 5), (2, 5), (1, 2), (5, 5), (10, 2)]
    # a relation row of a swapped pair, (0, 1) for (1, 0), is caught
    swapped = [a.copy() for a in own_sg]
    h = states[1]
    swapped[2][0] = (np.concatenate([h[0], h[1]]) @ w["readout.relation.weight"]
                     + w["readout.relation.bias"])
    assert not checks.arrays_agree(swapped, own_sg, "logits")[0]


def test_logit_nudged_by_1e_6_fails():
    rng = np.random.default_rng(6)
    w = _readout_weights(rng, 4, 3, 5, 2)
    states = [rng.normal(size=(3, 4))]
    logits = checks.oracle_readout(states, w, action=False)
    program = [a.copy() for a in logits]
    program[1][2, 1] -= 1e-6
    assert not checks.arrays_agree(program, logits, "logits")[0]


# ---------------------------------------------------------------------------
# the training replay


def test_learning_rate_matches_the_library_schedule():
    for schedule in (train.Schedule(), train.Schedule().scaled(1.0), train.Schedule().scaled(3.0)):
        for epoch in np.linspace(0.0, schedule.total_epochs, 97):
            assert checks.learning_rate(float(epoch), schedule) == train.lr_at(float(epoch), schedule)


SHORT = train.Schedule().scaled(2.0)


@pytest.fixture(scope="module")
def short_run(overfit):
    config, train_clips, _, _ = overfit
    result = train.train_loop(train_clips, config, SHORT, seed=0, batch_size=BATCH_SIZE)
    return {n: t.data for n, t in result.params.items()}


def test_training_check_passes_on_the_library(overfit, short_run):
    config, train_clips, _, _ = overfit
    ok, detail = bench.check_training(train_clips, config, SHORT, 0, short_run)
    assert ok, detail


def test_training_check_rejects_wrong_runs(overfit, short_run):
    config, train_clips, _, _ = overfit

    def check(params, schedule=SHORT, seed=0):
        return bench.check_training(train_clips, config, schedule, seed, params)[0]

    # no step taken: the initial parameters
    assert not check({n: t.data for n, t in train.init_params(config, 0).items()})
    # a run at another learning rate, or in another clip order
    assert not check(short_run, replace(SHORT, base_lr=0.05))
    assert not check(short_run, seed=1)
    # one entry off by 1e-8
    nudged = {n: a.copy() for n, a in short_run.items()}
    nudged["readout.action.bias"][0] += 1e-8
    assert not check(nudged)


# ---------------------------------------------------------------------------
# the directional-derivative check


def test_directional_check_passes_on_the_library(overfit):
    config, train_clips, _, params = overfit
    ok, detail = bench.check_directional(train_clips[:2], params, config, seed=0)
    assert ok, detail


def test_flipped_gradient_sign_fails(overfit):
    config, train_clips, _, params = overfit
    clips = train_clips[:2]
    with numgrad.Tape() as tape:
        loss = bench._batch_loss(clips, params, config)
    grads = {n: -g.data for n, g in numgrad.grad(tape, loss, params).items()}
    weights = {n: t.data for n, t in params.items()}
    ok, _ = checks.directional_derivative_agrees(
        lambda p: bench._batch_loss(clips, bench._as_tensors(p), config).item(),
        weights, grads, checks.random_direction(weights, 0))
    assert not ok


def test_directional_check_on_a_quadratic():
    # L(a, b) = sum(a^2) + 3 sum(a * b); grad a = 2a + 3b, grad b = 3a
    rng = np.random.default_rng(1)
    p = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}

    def loss(q):
        return float((q["a"] ** 2).sum() + 3.0 * (q["a"] * q["b"]).sum())

    g = {"a": 2 * p["a"] + 3 * p["b"], "b": 3 * p["a"].sum(axis=0)}
    v = checks.random_direction(p, 2)
    assert checks.directional_derivative_agrees(loss, p, g, v)[0]
    assert not checks.directional_derivative_agrees(loss, p, {"a": g["a"], "b": -g["b"]}, v)[0]


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_params_identical_rejects_one_ulp():
    a = {"w": np.array([[1.0, 2.0], [3.0, 4.0]]), "b": np.zeros(2)}
    assert checks.params_identical(a, {k: v.copy() for k, v in a.items()})[0]
    b = {k: v.copy() for k, v in a.items()}
    b["w"][1, 0] = np.nextafter(3.0, 4.0)
    assert not checks.params_identical(a, b)[0]
    assert not checks.params_identical(a, {"w": a["w"]})[0]


# ---------------------------------------------------------------------------
# frame AP


def test_average_precision_hand_cases():
    assert checks.average_precision([True, False, True], 2) == pytest.approx(5 / 6, abs=1e-15)
    assert checks.average_precision([True, True], 2) == 1.0
    assert checks.average_precision([False, True], 1) == 0.5
    assert checks.average_precision([True], 2) == 0.5
    assert checks.average_precision([], 3) == 0.0


A, B = ("clip", 0), ("clip", 1)
HAND_TRUTH = [(A, (0.0, 0.0, 0.5, 0.5), 0), (A, (0.5, 0.5, 1.0, 1.0), 0),
              (B, (0.0, 0.0, 0.5, 0.5), 0), (B, (0.0, 0.0, 1.0, 1.0), 1)]
HAND_DETECTIONS = [
    (A, (0.0, 0.0, 0.5, 0.5), 0, 0.9),   # hit
    (A, (0.0, 0.0, 0.5, 0.5), 0, 0.8),   # same box again: miss
    (B, (0.5, 0.5, 1.0, 1.0), 0, 0.7),   # no overlap: miss
    (A, (0.5, 0.5, 1.0, 0.9), 0, 0.6),   # IoU 0.8: hit
    (B, (0.0, 0.0, 1.0, 1.0), 1, 0.1),   # hit
]


def test_frame_map_hand_case():
    # class 0: hits T F F T over 3 boxes -> (1 + 1/2) / 3; class 1: 1
    per_class, mean = checks.frame_map(HAND_DETECTIONS, HAND_TRUTH)
    assert per_class == {0: pytest.approx(0.5, abs=1e-15), 1: 1.0}
    assert mean == pytest.approx(0.75, abs=1e-15)


def _library_frame_ap(detections, truth):
    dets = [mt.Detection(k[0], k[1], gr.Box(*box), cls, score)
            for k, box, cls, score in detections]
    gts = [mt.GroundTruthBox(k[0], k[1], gr.Box(*box), cls) for k, box, cls in truth]
    return mt.frame_ap(dets, gts)


def test_frame_map_matches_the_library_on_random_cases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        truth, detections = [], []
        for f in range(3):
            for _ in range(int(rng.integers(1, 4))):
                x, y = rng.uniform(0, 0.5, size=2)
                truth.append((("c", f), (x, y, x + 0.4, y + 0.4), int(rng.integers(2))))
            for _ in range(int(rng.integers(0, 6))):
                x, y = rng.uniform(0, 0.55, size=2)
                detections.append((("c", f), (x, y, x + 0.4, y + 0.4), int(rng.integers(2)),
                                   float(rng.choice([0.2, 0.5, rng.uniform()]))))
        lib_per_class, lib_mean = _library_frame_ap(detections, truth)
        own_per_class, own_mean = checks.frame_map(detections, truth)
        assert abs(lib_mean - own_mean) <= checks.METRIC_TOL
        assert all(abs(lib_per_class[c] - own_per_class[c]) <= checks.METRIC_TOL
                   for c in lib_per_class)


def test_ap_off_by_one_hit_fails():
    _, mean = checks.frame_map(HAND_DETECTIONS, HAND_TRUTH)
    # the same ranking with the last class-0 hit turned into a miss
    hits = [True, False, False, False]
    off = (checks.average_precision(hits, 3) + 1.0) / 2
    assert checks.values_agree(mean, mean, "mAP")[0]
    assert not checks.values_agree(off, mean, "mAP")[0]


# ---------------------------------------------------------------------------
# triplet recall

OBJECT_LOGITS = np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])   # classes 0, 1, 0
RELATION_LOGITS = np.array([[3.0, -3.0],    # pair (1, 0)
                            [-3.0, 2.0],    # pair (2, 0)
                            [0.0, -5.0]])   # pair (2, 1)
# (subject, object, subject class, object class, predicate)
GT = [(1, 0, 1, 0, 0), (2, 1, 0, 1, 0), (2, 0, 0, 0, 0)]


def test_recall_hand_case():
    # every node has the same class confidence, so candidates rank by
    # predicate probability: (1,0,0) (2,0,1) (2,1,0) then the tie
    # (1,0,1) = (2,0,0) in enumeration order, then (2,1,1)
    expected = {1: 1 / 3, 2: 1 / 3, 3: 2 / 3, 4: 2 / 3, 5: 1.0, 6: 1.0}
    for k, want in expected.items():
        assert checks.sgcls_recall(OBJECT_LOGITS, RELATION_LOGITS, GT, k) == want, k
    wrong_class = [(2, 0, 1, 0, 0)]
    assert checks.sgcls_recall(OBJECT_LOGITS, RELATION_LOGITS, wrong_class, 6) == 0.0
    assert checks.sgcls_recall(OBJECT_LOGITS, RELATION_LOGITS, [], 1) == 1.0


def test_recall_matches_the_library_on_random_cases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        obj = rng.normal(size=(n, 3))
        rel = rng.normal(size=(n * (n - 1) // 2, 2))
        pairs = [(i, j) for i in range(1, n) for j in range(i)]
        gt = [(i, j, int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(2)))
              for i, j in pairs if rng.uniform() < 0.5]
        pred = SceneGraphPrediction(Tensor(obj), pairs, Tensor(rel))
        triplets = [mt.Triplet(*t) for t in gt]
        for k in (1, 3, 10):
            assert checks.sgcls_recall(obj, rel, gt, k) == mt.recall_at_k(pred, triplets, k, "sgcls")


def test_recall_off_by_one_hit_fails():
    got = checks.sgcls_recall(OBJECT_LOGITS, RELATION_LOGITS, GT, 3)
    assert checks.values_agree(got, got, "R@3")[0]
    assert not checks.values_agree(got + 1 / len(GT), got, "R@3")[0]


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", 0.0, None)
    parent.end = 10.0
    kids = []
    for start, end in ((1.0, 3.0), (2.0, 5.0), (7.0, 8.0)):
        kid = Span("c", start, parent)
        kid.end = end
        kids.append(kid)
    assert self_seconds(parent, kids) == 5.0


def test_patched_library_calls_nest_and_unpatch_restores(overfit):
    config, train_clips, _, params = overfit
    original = train.build_graph
    tracer = Tracer()
    tracer.patch()
    try:
        with tracer.span("bench.fwdbwd"):
            with numgrad.Tape():
                train.clip_loss(train_clips[0], params, config)
    finally:
        tracer.unpatch()
    assert train.build_graph is original and gr.build_graph is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["bench.fwdbwd", "train.clip_loss", "graph.build_graph"]
    assert tracer.spans[2].parent is tracer.spans[1]
    [inference] = per_op_totals(tracer.spans, "bench.fwdbwd", "passing.run_inference")
    assert inference > 0.0


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_short_run_reports_every_declared_metric(tmp_path, trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    out = bench.run_workload("overfit", 0, 0.5, trace, str(tmp_path), print)
    assert out["failed"] == 0 and out["attempted"] > 100
    assert {k: unit for k, (_, unit) in out["metrics"].items()} == declared
    assert not os.path.exists(os.path.join(str(tmp_path), ".perfbench_work"))


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "overfit",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
