"""One benchmark run of one workload, driven in process through the
library's public functions by a single closed-loop caller.

A run generates its inputs from the seed, times the set-up, trains and
evaluates once (the checks need trained weights and a report), runs the
output checks, and then spends the rest of its measured seconds on five
interleaved phases: training, evaluation, forward passes, forward+backward
passes and checkpoint round trips, each taking its share of the time and
at least its minimum count of operations.  Every operation is checked
(against the first result for the same input, which is itself checked
against an independent recomputation), and a failed check counts as a
failed operation.
"""

import gc
import glob
import os
import resource
import shutil
import statistics
from dataclasses import asdict
from time import perf_counter

import numpy as np

from reference_eval import reference_inference
from stgraph import data, flops, graph, heads, numgrad, passing, train
from stgraph.numgrad import Tensor

import checks
from hostspeed import Clock
from spans import Tracer, median_ms, per_op_self, per_op_totals
from workloads import BATCH_SIZE, RECALL_KS, WORKLOADS

# set-up repeats at least this often and for at least this long; its
# median is setup_s
SETUP_REPEATS = 9
SETUP_SECONDS = 1.0
# phase -> (share of the measured seconds, minimum operations); forward
# takes 150 samples at least so that fifteen or more lie beyond its p90
PHASES = {
    "train": (0.35, 3),
    "eval": (0.15, 3),
    "forward": (0.25, 150),
    "fwdbwd": (0.20, 10),
    "checkpoint": (0.05, 7),
}


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def record(self, what: str, outcome: tuple[bool, str]) -> None:
        ok, detail = outcome
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"FAILED {what}: {detail}")


def _interleave(ops: dict, times: dict, used: dict, clock: Clock, deadline: float) -> None:
    """Run operations, always from the phase furthest below its share of
    the time used so far, until the deadline has passed and every phase
    has its minimum count.  Interleaving spreads each phase over the whole
    run, so a slow spell of the host does not land on one phase alone."""
    while True:
        short = [p for p in ops if len(times[p]) < PHASES[p][1]]
        if perf_counter() >= deadline and not short:
            return
        candidates = short if perf_counter() >= deadline else list(ops)
        total = sum(used.values())
        phase = max(candidates, key=lambda p: PHASES[p][0] * total - used[p])
        _run(phase, ops, times, used, clock)


def _run(phase: str, ops: dict, times: dict, used: dict, clock: Clock) -> None:
    started = perf_counter()
    times[phase].append(clock.run(phase, lambda: ops[phase](len(times[phase]))))
    used[phase] += perf_counter() - started


def _same_as_first(firsts: dict, key, arrays: list[np.ndarray]) -> tuple[bool, str]:
    """True when ``arrays`` are bit-identical to the first result stored under key."""
    blob = [a.tobytes() for a in arrays]
    first = firsts.setdefault(key, blob)
    return first == blob, f"output for input {key!r} differs from its first computation"


def set_up(train_manifest: str, eval_manifest: str, config: passing.ModelConfig):
    """Everything a train or eval user waits for before the first step."""
    info, records = data.load_dataset(train_manifest)
    train_clips = [data.featurize_clip(r, info, mode=data.TRAIN_MODE) for r in records]
    if eval_manifest != train_manifest:
        info, records = data.load_dataset(eval_manifest)
    eval_clips = [data.featurize_clip(r, info, mode=data.EVAL_MODE) for r in records]
    return train_clips, eval_clips, train.init_params(config)


def forward(clip, params, config) -> list[np.ndarray]:
    """Scores for one clip from its features, without a tape.

    Action: one (boxes, classes) logit matrix per keyframe.  Scene graph:
    object logits, then relation logits, per keyframe.
    """
    result = passing.run_inference(graph.build_graph(clip.frames, params, config), params, config)
    out = []
    for pos in sorted(result.fg_states):
        states = result.fg_states[pos]
        if config.task == passing.TASK_ACTION:
            out.append(heads.action_readout(states, params["readout.action.weight"],
                                            params["readout.action.bias"]).data)
        else:
            pred = heads.sg_readout(states, params["readout.object.weight"],
                                    params["readout.object.bias"],
                                    params["readout.relation.weight"],
                                    params["readout.relation.bias"])
            out.append(pred.object_logits.data)
            if pred.relation_logits is not None:
                out.append(pred.relation_logits.data)
    return out


def _batch_loss(clips, params, config):
    total = None
    for clip in clips:
        loss = train.clip_loss(clip, params, config)
        total = loss if total is None else numgrad.add(total, loss)
    return total


def _as_tensors(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {n: Tensor(a, requires_grad=True, name=n) for n, a in arrays.items()}


def check_oracle(clip, params, config) -> tuple[bool, str]:
    """Untaped run_inference and the readout against the plain-loop
    reference's states and this package's readout of them."""
    result = passing.run_inference(graph.build_graph(clip.frames, params, config), params, config)
    program = [result.fg_states[pos].data for pos in sorted(result.fg_states)]
    weights = {n: t.data for n, t in params.items()}
    fg0, ctx0 = checks.oracle_inputs(clip.frames, weights)
    settings = {k: v for k, v in asdict(config).items()
                if k in ("state_dim", "heads", "iterations", "tau_c", "tau_s", "ln_eps")}
    settings["message_fns"] = list(config.message_fns)
    reference = reference_inference(fg0, ctx0, weights, settings)
    ok, detail = checks.arrays_agree(program, reference, "states")
    if not ok:
        return ok, detail
    logits = checks.oracle_readout(reference, weights, config.task == passing.TASK_ACTION)
    return checks.arrays_agree(forward(clip, params, config), logits, "logits")


def check_training(clips, config, schedule, seed: int,
                   trained: dict[str, np.ndarray]) -> tuple[bool, str]:
    """train_loop's parameters against a replay of the schedule by
    ``checks.replay_training``, which takes from the library only the
    initial parameters and each batch's loss gradient."""
    initial = {n: t.data for n, t in train.init_params(config, seed).items()}

    def batch_grads(indices, weights):
        tensors = _as_tensors(weights)
        with numgrad.Tape() as tape:
            loss = _batch_loss([clips[i] for i in indices], tensors, config)
        return {n: g.data for n, g in numgrad.grad(tape, loss, tensors).items()}

    replayed = checks.replay_training(initial, batch_grads, len(clips), BATCH_SIZE,
                                      config.tau_c, schedule, seed)
    return checks.params_close(trained, replayed)


def check_directional(clips, params, config, seed: int) -> tuple[bool, str]:
    """One training batch's loss gradient along a seeded random direction."""
    with numgrad.Tape() as tape:
        loss = _batch_loss(clips, params, config)
    grads = {n: g.data for n, g in numgrad.grad(tape, loss, params).items()}
    weights = {n: t.data for n, t in params.items()}
    return checks.directional_derivative_agrees(
        lambda p: _batch_loss(clips, _as_tensors(p), config).item(),
        weights, grads, checks.random_direction(weights, [seed, 5]))


def _action_detections(clips, params, config):
    """The program's scores as (frame, box, class, score) plus the ground truth."""
    detections, truth = [], []
    for clip in clips:
        for frame, logits in zip(clip.frames, forward(clip, params, config)):
            probs = checks.sigmoid(logits)
            key = (clip.clip_id, frame.keyframe_id)
            for row, box in enumerate(frame.fg_boxes):
                for cls in range(config.action_classes):
                    detections.append((key, tuple(box.as_list()), cls, float(probs[row, cls])))
        for pos, kid in enumerate(clip.keyframe_ids):
            labels = clip.gt_action_labels[pos]
            for row, box in enumerate(clip.gt_boxes[pos]):
                for cls in np.flatnonzero(labels[row]):
                    truth.append(((clip.clip_id, kid), tuple(box.as_list()), int(cls)))
    return detections, truth


def _recall_recomputed(clips, params, config) -> dict[int, float]:
    totals, count = {k: 0.0 for k in RECALL_KS}, 0
    for clip in clips:
        outputs = forward(clip, params, config)
        for pos in range(len(clip.frames)):
            object_logits = outputs[2 * pos]
            relation_logits = outputs[2 * pos + 1]
            classes = clip.object_classes[pos]
            gt = [(s, o, int(classes[s]), int(classes[o]), r) for s, o, r in clip.relations[pos]]
            count += 1
            for k in RECALL_KS:
                totals[k] += checks.sgcls_recall(object_logits, relation_logits, gt, k)
    return {k: totals[k] / count for k in RECALL_KS}


def evaluate(workload, clips, params, config, workers: int):
    if config.task == passing.TASK_ACTION:
        return train.evaluate_action(clips, params, config, workers=workers)
    return train.evaluate_scenegraph(clips, params, config, ks=RECALL_KS, mode="sgcls",
                                     workers=workers)


def check_evaluation(workload, reported, clips, params, config, ledger: Ledger) -> None:
    """Recompute the reported metric from the model's scores with this
    package's own code; check that the thread count changes nothing."""
    if config.task == passing.TASK_ACTION:
        per_class, mean_ap = reported
        own_per_class, own_map = checks.frame_map(*_action_detections(clips, params, config))
        ledger.record("frame mAP recomputed", checks.values_agree(mean_ap, own_map, "mAP"))
        ledger.record("per-class AP recomputed", (
            sorted(per_class) == sorted(own_per_class)
            and all(abs(per_class[c] - own_per_class[c]) <= checks.METRIC_TOL for c in per_class),
            f"program {per_class}, recomputed {own_per_class}"))
    else:
        own = _recall_recomputed(clips, params, config)
        for k in RECALL_KS:
            ledger.record(f"R@{k} recomputed", checks.values_agree(reported[k], own[k], f"R@{k}"))
        ledger.record("R@K grows with K", (
            all(reported[a] <= reported[b] for a, b in zip(RECALL_KS, RECALL_KS[1:])),
            f"recalls {reported}"))
    if workload.eval_workers > 1:
        single = evaluate(workload, clips, params, config, workers=1)
        ledger.record("evaluation independent of workers", (
            single == reported, f"workers=1 gave {single}, workers={workload.eval_workers} "
                                f"gave {reported}"))


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str, log) -> dict:
    workload = WORKLOADS[name]
    config = passing.ModelConfig(seed=seed, **workload.config)
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    ledger = Ledger(log)
    tracer = Tracer(enabled=trace)
    try:
        train_manifest, eval_manifest = workload.make_inputs(workdir, seed)
        if trace:
            tracer.patch()
        try:
            return _measure(workload, config, seed, seconds, trace, tracer, ledger, workdir,
                            train_manifest, eval_manifest)
        finally:
            if trace:
                tracer.unpatch()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's inputs are still there


def _measure(workload, config, seed, seconds, trace, tracer, ledger, workdir,
             train_manifest, eval_manifest) -> dict:
    clock = Clock()
    setup_times = []
    setup_started = perf_counter()
    prepared = {}

    def setup_op():
        gc.collect()
        with tracer.span("bench.setup"):
            started = perf_counter()
            prepared["clips"] = set_up(train_manifest, eval_manifest, config)
            return perf_counter() - started

    while len(setup_times) < SETUP_REPEATS or perf_counter() - setup_started < SETUP_SECONDS:
        setup_times.append(clock.run("setup", setup_op))
        train_clips, eval_clips, _ = prepared["clips"]
        ledger.record("set-up", (len(train_clips) > 0 and len(eval_clips) > 0, "no clips"))

    # -- the operations; each returns its own seconds and records its check
    params = None          # the first training run's parameters
    trained: dict[str, np.ndarray] = {}
    clip_steps = int(np.ceil(workload.schedule.total_epochs)) * len(train_clips)

    def train_op(i):
        nonlocal params
        with tracer.span("bench.train"):
            started = perf_counter()
            result = train.train_loop(train_clips, config, workload.schedule, seed=seed,
                                      batch_size=BATCH_SIZE)
            elapsed = perf_counter() - started
        arrays = {n: t.data for n, t in result.params.items()}
        if params is None:
            params = result.params
            trained.update(arrays)
        ledger.record("training reproducible", checks.params_identical(trained, arrays))
        return elapsed

    reports = []

    def eval_op(i):
        with tracer.span("bench.eval"):
            started = perf_counter()
            reported = evaluate(workload, eval_clips, params, config, workload.eval_workers)
            elapsed = perf_counter() - started
        if not reports:
            reports.append(reported)
        ledger.record("evaluation reproducible", (
            reported == reports[0], f"{reported} differs from the first result {reports[0]}"))
        return elapsed

    # forward passes run over the held-out clips; in a traced run every
    # other sample runs with the library unpatched and nothing recorded,
    # to measure the tracing overhead against untraced time
    outputs: dict = {}
    traced: list[float] = []
    untraced: list[float] = []

    def forward_op(i):
        clip_index = i % len(eval_clips)
        plain = trace and i % 2 == 1
        if plain:
            tracer.unpatch()
            tracer.enabled = False
        with tracer.span("bench.forward"):
            started = perf_counter()
            out = forward(eval_clips[clip_index], params, config)
            elapsed = perf_counter() - started
        if plain:
            tracer.enabled = True
            tracer.patch()
        if trace:
            (untraced if plain else traced).append(elapsed)
        ledger.record("forward reproducible", _same_as_first(outputs, clip_index, out))
        return elapsed

    gradients: dict = {}
    tape_lengths: list[int] = []

    def fwdbwd_op(i):
        clip_index = i % len(train_clips)
        with tracer.span("bench.fwdbwd"):
            started = perf_counter()
            with numgrad.Tape() as tape:
                loss = train.clip_loss(train_clips[clip_index], params, config)
            grads = numgrad.grad(tape, loss, params)
            elapsed = perf_counter() - started
        tape_lengths.append(len(tape))
        ledger.record("gradient reproducible", _same_as_first(
            gradients, clip_index, [loss.data] + [grads[n].data for n in sorted(grads)]))
        return elapsed

    path = os.path.join(workdir, "checkpoint.json")

    def checkpoint_op(i):
        with tracer.span("bench.checkpoint"):
            started = perf_counter()
            train.save_checkpoint(path, params, config, seed)
            loaded, loaded_config, _ = train.load_checkpoint(path)
            elapsed = perf_counter() - started
        ok, detail = checks.params_identical(trained, {n: t.data for n, t in loaded.items()})
        ledger.record("checkpoint round trip", (
            ok and loaded_config == config,
            detail if not ok else f"config {loaded_config} != {config}"))
        return elapsed

    ops = {"train": train_op, "eval": eval_op, "forward": forward_op, "fwdbwd": fwdbwd_op,
           "checkpoint": checkpoint_op}
    times = {phase: [] for phase in PHASES}
    used = {phase: 0.0 for phase in PHASES}

    # -- one training run and one evaluation, with the checks they feed
    _run("train", ops, times, used, clock)
    with tracer.span("bench.check"):
        ledger.record("training matches its replay",
                      check_training(train_clips, config, workload.schedule, seed, trained))
        ledger.record("inference and readout match the loop oracle",
                      check_oracle(eval_clips[0], params, config))
        batch = train_clips[:train.effective_batch_size(BATCH_SIZE, config.tau_c)]
        ledger.record("directional derivative", check_directional(batch, params, config, seed))
    _run("eval", ops, times, used, clock)
    with tracer.span("bench.check"):
        check_evaluation(workload, reports[0], eval_clips, params, config, ledger)

    # -- the rest of the measured seconds, phases interleaved
    _interleave(ops, times, used, clock, perf_counter() + seconds - sum(used.values()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts = {phase: len(t) for phase, t in times.items()}
    counts["setup"] = len(setup_times)
    if not trace:
        deciles = statistics.quantiles([1e3 * t for t in times["forward"]], n=10)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_clips_per_s": (statistics.median(clip_steps / t for t in times["train"]), "1/s"),
            "eval_clips_per_s": (statistics.median(len(eval_clips) / t for t in times["eval"]),
                                 "1/s"),
            "forward_ms_p50": (1e3 * statistics.median(times["forward"]), "ms"),
            "forward_ms_p90": (deciles[8], "ms"),
            "fwdbwd_ms_p50": (1e3 * statistics.median(times["fwdbwd"]), "ms"),
            "checkpoint_s": (statistics.median(times["checkpoint"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, statistics.median(clock.speed), config, eval_clips,
                                 tape_lengths, traced, untraced, workdir, path)
    return {"metrics": metrics, "counts": counts, "host_speed": clock.speed,
            "attempted": ledger.attempted, "failed": ledger.failed}


def _layer_metrics(tracer, speed, config, eval_clips, tape_lengths, traced, untraced,
                   workdir, checkpoint_path) -> dict:
    """Per-layer figures from the spans; times are scaled by the run's
    median host speed factor, like the end-to-end ones."""
    spans = tracer.spans

    def total(op, layer):
        return speed * median_ms(per_op_totals(spans, op, layer))

    def self_ms(op, layer):
        return speed * median_ms(per_op_self(spans, op, layer))

    first = eval_clips[0].frames
    n_context = first[0].ctx_feats.shape[0] + (
        0 if first[0].prop_feats is None else first[0].prop_feats.shape[0])
    macs = flops.estimate_flops(config, n_fg=len(first[0].fg_boxes), n_context=n_context,
                                keyframes=len(first))["total"]
    nodes = statistics.mean(
        sum(len(f.fg_boxes) + f.ctx_feats.shape[0]
            + (0 if f.prop_feats is None else f.prop_feats.shape[0]) for f in clip.frames)
        for clip in eval_clips)
    if config.task == passing.TASK_ACTION:
        scored = sum(len(f.fg_boxes) * config.action_classes
                     for clip in eval_clips for f in clip.frames)
    else:
        scored = sum(len(heads.pair_index(len(f.fg_boxes))) * config.relation_classes
                     for clip in eval_clips for f in clip.frames) * len(RECALL_KS)
    tape_entries = statistics.median(tape_lengths)
    grad_ms = total("bench.fwdbwd", "numgrad.grad")
    forward_ms = speed * median_ms(traced)
    grid_bytes = sum(os.path.getsize(p)
                     for p in glob.glob(os.path.join(workdir, "**", "*.grid"), recursive=True))
    return {
        "data.load_dataset_ms": (total("bench.setup", "data.load_dataset"), "ms"),
        "data.featurize_clip_ms": (total("bench.setup", "data.featurize_clip"), "ms"),
        "data.grid_mb_read": (grid_bytes / 1e6, "MB"),
        "graph.build_graph_ms": (total("bench.forward", "graph.build_graph"), "ms"),
        "graph.nodes_per_clip": (nodes, "count"),
        "passing.run_inference_ms": (total("bench.forward", "passing.run_inference"), "ms"),
        "passing.run_inference_taped_ms": (total("bench.fwdbwd", "passing.run_inference"), "ms"),
        "passing.tape_entries_per_clip": (tape_entries, "count"),
        "passing.macs_per_clip": (macs, "count"),
        "passing.gmacs_per_s": (macs / forward_ms / 1e6, "GMAC/s"),
        "heads.readout_ms": (total("bench.forward", "heads.readout"), "ms"),
        "heads.loss_ms": (total("bench.fwdbwd", "heads.loss"), "ms"),
        "numgrad.grad_ms": (grad_ms, "ms"),
        "numgrad.grad_us_per_entry": (1e3 * grad_ms / tape_entries, "us"),
        "train.sgd_step_ms": (self_ms("bench.train", "train.sgd_step"), "ms"),
        "train.train_loop_self_ms": (self_ms("bench.train", "train.train_loop"), "ms"),
        "train.evaluate_self_ms": (self_ms("bench.eval", "train.evaluate"), "ms"),
        "train.save_checkpoint_ms": (total("bench.checkpoint", "train.save_checkpoint"), "ms"),
        "train.load_checkpoint_ms": (total("bench.checkpoint", "train.load_checkpoint"), "ms"),
        "train.checkpoint_mb": (os.path.getsize(checkpoint_path) / 1e6, "MB"),
        "metrics.frame_ap_ms": (total("bench.eval", "metrics.frame_ap"), "ms"),
        "metrics.recall_at_k_ms": (total("bench.eval", "metrics.recall_at_k"), "ms"),
        "metrics.scored_items": (scored, "count"),
        "bench.trace_overhead_pct": (100.0 * (median_ms(traced) / median_ms(untraced) - 1.0), "%"),
        "bench.host_speed": (speed, "ratio"),
    }
