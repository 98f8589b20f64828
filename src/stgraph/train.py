"""Learning-rate schedule, SGD with momentum, training loop, evaluation, checkpoints."""

import json
import math
import operator
import os
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from . import numgrad as ng
from .data import _JSON_INTEGERS, ClipFeatures
from .errors import ConfigError, NumericError, ShapeError, ValidationError
from .graph import (Box, FeatureGrid, SpatioTemporalGraph, build_batch, build_graph,
                    featurize_keyframe)
from .heads import action_loss, action_readout, sg_loss, sg_readout
from .metrics import (box_array, check_iou_threshold, check_recall_cutoffs, frame_ap_arrays,
                      triplet_recall_block)
from .numgrad import Tape, Tensor, grad, sigmoid_values
from .passing import ModelConfig, param_shapes, run_inference

CHECKPOINT_FORMAT = "stgraph-checkpoint"
CHECKPOINT_VERSION = "3"
# float64 values that one run of held-out clips, scored as one batch, may
# hold in its spatial score and state stacks (see eval_runs): 8 MiB
EVAL_BUDGET = 2 ** 20


@dataclass(frozen=True)
class Schedule:
    """Linear warmup then step decays, by fractional epoch; validated when made."""

    base_lr: float = 0.1
    warmup_start_lr: float = 1.25e-4
    warmup_epochs: float = 5.0
    decay_epochs: tuple[float, ...] = (10.0, 15.0)
    decay_factor: float = 10.0
    total_epochs: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "decay_epochs", tuple(self.decay_epochs))
        self.validate()

    def validate(self) -> None:
        # written as ranges, so that NaN fails them too
        if not (0 < self.base_lr < math.inf and 0 < self.warmup_start_lr < math.inf):
            raise ConfigError("learning rates must be finite and positive")
        if not (0 <= self.warmup_epochs < math.inf and 0 < self.total_epochs < math.inf):
            raise ConfigError("epoch counts must be finite, and total_epochs positive")
        if not 1 < self.decay_factor < math.inf:
            raise ConfigError("decay_factor must be finite and exceed 1")
        if list(self.decay_epochs) != sorted(self.decay_epochs):
            raise ConfigError("decay_epochs must be sorted")
        if self.decay_epochs and self.decay_epochs[0] < self.warmup_epochs:
            raise ConfigError("decays must not start before warmup ends")

    def scaled(self, total_epochs: float) -> "Schedule":
        """Stretch or shrink every breakpoint proportionally to a new length."""
        if not 0 < total_epochs < math.inf:
            raise ConfigError(f"total_epochs must be finite and positive, got {total_epochs}")
        r = total_epochs / self.total_epochs
        return replace(
            self,
            warmup_epochs=self.warmup_epochs * r,
            decay_epochs=tuple(d * r for d in self.decay_epochs),
            total_epochs=total_epochs,
        )


def lr_at(epoch: float, schedule: Schedule) -> float:
    """Learning rate at a fractional epoch position."""
    if epoch < 0:
        raise ConfigError(f"epoch must be nonnegative, got {epoch}")
    if epoch < schedule.warmup_epochs:
        frac = epoch / schedule.warmup_epochs
        return schedule.warmup_start_lr + (schedule.base_lr - schedule.warmup_start_lr) * frac
    drops = sum(1 for d in schedule.decay_epochs if epoch >= d)
    return schedule.base_lr / schedule.decay_factor ** drops


@dataclass
class SgdState:
    """Momentum as one vector over the parameters in params order, plus a step counter.

    velocity stays None until the first step.
    """

    momentum: float = 0.9
    weight_decay: float = 1e-7
    step: int = 0
    velocity: np.ndarray | None = None
    # the last step's parameter vector, the arrays it handed out as views
    # of it, and their end offsets (see sgd_step)
    _flat: tuple | None = field(default=None, init=False, repr=False, compare=False)


def sgd_step(params: dict[str, Tensor], grads: dict[str, Tensor], lr: float,
             state: SgdState) -> None:
    """One SGD update of params in place: v <- m*v + (g + wd*p); p <- p - lr*v.

    The update runs over all parameters at once, as vectors concatenated
    in params order, with the operations of the per-tensor formula, so each
    value gets the same bits.  Each new parameter is a read-only view of
    its slice of a new vector; tensors held from before the step keep
    their values.  While params still holds exactly the views the last
    step made, in their order, that vector is already the parameters laid
    end to end, and it is read as it stands instead of concatenated again.
    A non-finite gradient or updated value raises NumericError naming the
    parameter and the step before anything changes.
    """
    names = list(params)
    arrays = [params[name].data for name in names]
    shapes = [a.shape for a in arrays]
    if [grads[name].data.shape for name in names] != shapes:
        for name in names:
            if grads[name].shape != params[name].shape:
                raise ShapeError(f"gradient for {name!r} has shape {grads[name].shape}, "
                                 f"expected {params[name].shape}")
    made = state._flat
    if made is not None and len(made[1]) == len(arrays) and all(map(operator.is_, arrays, made[1])):
        p, ends = made[0], made[2]
    else:
        p = np.concatenate(arrays, axis=None)
        ends = list(accumulate(a.size for a in arrays))
    velocity = np.zeros(p.size) if state.velocity is None else state.velocity

    def check(values: np.ndarray, what: str) -> None:
        finite = np.isfinite(values)
        if not finite.all():
            # argmin of the mask is the first non-finite value
            name = names[bisect_right(ends, int(finite.argmin()))]
            raise NumericError(f"non-finite {what} for {name!r} at step {state.step}")

    g = np.concatenate([grads[name].data for name in names], axis=None)
    check(g, "gradient")
    # g turns into g + wd*p, buf into m*v + that, then g into the new parameters
    with np.errstate(over="ignore", invalid="ignore"):
        buf = np.multiply(p, state.weight_decay)
        np.add(g, buf, out=g)
        np.multiply(velocity, state.momentum, out=buf)
        np.add(buf, g, out=buf)
        np.multiply(buf, lr, out=g)
        np.subtract(p, g, out=g)
    check(g, "update")
    g.flags.writeable = False
    views = [g[start:end].reshape(shape)
             for start, end, shape in zip([0, *ends], ends, shapes)]
    for name, view in zip(names, views):
        params[name] = ng._wrap(view, requires_grad=True, name=name)
    state.velocity = buf
    state._flat = (g, views, ends)
    state.step += 1


def init_params(config: ModelConfig, seed: int | None = None) -> dict[str, Tensor]:
    """Glorot-uniform weights, unit norm scales, zero shifts and biases.

    Draws happen in the deterministic order of param_shapes, so a seed pins
    every value.  Score and gate vectors treat their length as fan-in.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm.scale"):
            data = np.ones(shape)
        elif name.endswith("norm.shift") or name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            if len(shape) == 2:
                fan_in, fan_out = shape
            else:
                fan_in, fan_out = shape[0], 1
            a = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-a, a, size=shape)
        params[name] = Tensor(data, requires_grad=True, name=name)
    return params


def clip_loss(clip: ClipFeatures, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """Scalar task loss for one clip: the batch loss of a batch of one.

    heads.action_loss and heads.sg_loss define the loss of each task.
    """
    return _batch_loss([clip], build_graph(clip.frames, params, config), params, config)


def stack_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """np.stack(arrays), by one concatenate and a reshape when they share a shape.

    A block's labels and targets come from its keyframes' annotations,
    which nothing has checked against each other, so their shapes are
    compared first; when they match (always, on featurized clips) this
    skips np.stack's per-array Python: 31 instead of 65 us for 112 (1, 6)
    arrays on one x86-64 core.  Ragged ones go to np.stack, which names
    the mismatch.
    """
    shape = arrays[0].shape
    if shape and all(a.shape == shape for a in arrays):
        return np.concatenate(arrays).reshape((len(arrays),) + shape)
    return np.stack(arrays)


def _stacked(graph: SpatioTemporalGraph, per_position: list[np.ndarray]) -> list[np.ndarray]:
    """Per-keyframe arrays, flat positions in order, stacked as the graph's blocks."""
    return [stack_arrays([per_position[p] for p in block.positions]) for block in graph.blocks]


def _batch_loss(clips: list[ClipFeatures], graph: SpatioTemporalGraph,
                params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """Sum of the clips' losses, in clip order, from their batch graph.

    Each clip's loss is its own, as heads defines it; the readout runs
    once per block and the loss is one tape entry, however many clips.
    """
    result = run_inference(graph, params, config)
    per_clip = [[graph.where[pos] for pos in span] for span in graph.clips]
    # the readouts run nested spans of their own, which name their errors
    with ng.checked("loss"):
        if config.task == "action":
            logits = [action_readout(states, params["readout.action.weight"],
                                     params["readout.action.bias"]) for states in result.states]
            labels = [np.asarray(y, dtype=np.float64) for clip in clips for y in clip.action_labels]
            loss = action_loss(logits, _stacked(graph, labels), per_clip)
        else:
            preds = [sg_readout(states,
                                params["readout.object.weight"], params["readout.object.bias"],
                                params["readout.relation.weight"], params["readout.relation.bias"])
                     for states in result.states]
            onehots = [t for clip in clips for t in clip.one_hots(config.object_classes)]
            keyframes = [(clip, local) for clip in clips for local in range(len(clip.frames))]
            relation_targets = [
                None if pred.relation_logits is None else stack_arrays([
                    clip.relation_targets(local, config.relation_classes)
                    for clip, local in (keyframes[pos] for pos in block.positions)])
                for pred, block in zip(preds, graph.blocks)]
            loss = sg_loss([p.object_logits for p in preds], _stacked(graph, onehots),
                           [p.relation_logits for p in preds], relation_targets, per_clip)
    ng.check_finite("loss", loss)
    return loss


def effective_batch_size(batch_size: int, tau_c: int) -> int:
    """Shrink the clip batch as the temporal window grows, never below one."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    if tau_c > 1:
        return max(1, batch_size // tau_c)
    return batch_size


def merge_warm_start(params: dict[str, Tensor], donor: dict[str, Tensor]) -> dict[str, Tensor]:
    """Overlay donor tensors onto a fresh layout by name.

    Names absent from the layout are ignored; names present in both must
    agree on shape.  Returns a new dict, leaving both inputs untouched.
    """
    merged = dict(params)
    for name, tensor in donor.items():
        if name not in merged:
            continue
        if tensor.shape != merged[name].shape:
            raise ValidationError(
                f"warm start shape mismatch for {name!r}: "
                f"{tensor.shape} vs {merged[name].shape}")
        merged[name] = Tensor(tensor.data, requires_grad=True, name=name)
    return merged


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    log: list[dict]


def train_loop(clips: list[ClipFeatures], config: ModelConfig, schedule: Schedule,
               seed: int | None = None, batch_size: int = 8,
               init_from: dict[str, Tensor] | None = None) -> TrainResult:
    """Full SGD run over the clips; deterministic for a fixed seed.

    init_from warm-starts any parameter whose name and shape match the
    current layout; everything else keeps its fresh initialization, so a
    model with temporal phases can resume from a spatial-only run.
    """
    if not clips:
        raise ValidationError("no clips to train on")
    _check_fields(clips, config.task, _LABEL_FIELDS[config.task])
    seed = config.seed if seed is None else seed
    params = init_params(config, seed)
    if init_from is not None:
        params = merge_warm_start(params, init_from)
    state = SgdState()
    batch = effective_batch_size(batch_size, config.tau_c)
    num_batches = math.ceil(len(clips) / batch)
    total_epochs = int(math.ceil(schedule.total_epochs))
    shuffle_rng = np.random.default_rng([seed, 9173])
    log: list[dict] = []
    for epoch in range(total_epochs):
        order = shuffle_rng.permutation(len(clips))
        epoch_loss = 0.0
        for b in range(num_batches):
            chunk = order[b * batch:(b + 1) * batch]
            lr = lr_at(epoch + b / num_batches, schedule)
            members = [clips[i] for i in chunk]
            with Tape() as tape:
                total = _batch_loss(members, build_batch([c.frames for c in members], params,
                                                         config), params, config)
            grads = grad(tape, total, params)
            # free the step's activations before the update allocates its
            # vectors, and its gradients before the next step's forward pass
            del tape
            sgd_step(params, grads, lr, state)
            del grads
            epoch_loss += total.item()
        log.append({"epoch": epoch, "lr": lr_at(float(epoch), schedule),
                    "loss": epoch_loss / len(clips)})
    return TrainResult(params=params, log=log)


# ---------------------------------------------------------------------------
# evaluation


def eval_runs(clips: list[ClipFeatures], config: ModelConfig) -> list[list[ClipFeatures]]:
    """The clips cut, in order, into runs whose summed cost stays within EVAL_BUDGET.

    A keyframe of n boxes and c context rows (grid cells plus proposals)
    costs heads * n * (n + c) + (n + c) * state_dim float64 values, its
    spatial score stack and its state stack, the largest arrays a run
    allocates.  No clip is split, and a clip that costs more than the
    budget is a run of its own.  The costs are arithmetic on list and
    array lengths, so the pass stays cheap next to the evaluation it cuts.
    """
    heads, d = config.heads, config.state_dim
    runs, start, held = [], 0, 0
    for i, clip in enumerate(clips):
        cost = 0
        for f in clip.frames:
            n = len(f.fg_boxes)
            cost += (n + len(f.ctx_feats) + len(f.prop_boxes)) * (heads * n + d)
        if held + cost > EVAL_BUDGET and i > start:
            runs.append(clips[start:i])
            start, held = i, 0
        held += cost
    if start < len(clips):
        runs.append(clips[start:])
    return runs


def _over_runs(score, clips: list[ClipFeatures], params, config: ModelConfig) -> list:
    """score(run, graph, final states) for every run of eval_runs, each scored as one batch.

    A keyframe's scores do not depend on its batch mates, so how the
    clips are cut into runs never moves a reported byte; the budget only
    bounds a run's memory, and lets many small clips pay a run's fixed
    cost (graph build, entries, readout) once.  A run's states, and so
    its scores, come back block by block, and score puts them in position
    order with one gather (SpatioTemporalGraph.order or fg_rows).  On
    `temporal`'s held-out clips (48 clips of 7 one-box keyframes, one run)
    the graph build takes about 38% of an evaluate_action call, inference
    22% and frame AP 14%.  Runs go in order, in the calling thread.  A
    run holds the GIL between numpy calls, and numpy lets it go around
    every stacked array operation, so runs on two threads handed the GIL
    back and forth: two threads scored `temporal`'s held-out clips 11%
    slower than one with the second core busy and 37% slower with it idle.
    """
    def score_run(run):
        graph = build_batch([c.frames for c in run], params, config)
        return score(run, graph, run_inference(graph, params, config).states)

    return [score_run(run) for run in eval_runs(clips, config)]


# the ClipFeatures fields, one entry per keyframe, that training on each task
# reads (evaluate_scenegraph reads the scene-graph ones), and evaluate_action's
_LABEL_FIELDS = {"action": ("action_labels",), "scenegraph": ("object_classes", "relations")}
_ANNOTATION_FIELDS = ("keyframe_ids", "gt_boxes", "gt_action_labels")


def _check_fields(clips: list[ClipFeatures], task: str, names: tuple[str, ...],
                  entries: bool = True) -> None:
    """Raise ValidationError naming the first clip whose field is None or not one per keyframe,
    and with entries, the first keyframe whose entry of a field is None.

    A clip featurized for the other task holds None in the fields this
    one reads, and an action clip featurized in evaluation mode holds None
    in the action_labels of every keyframe scored by its detections.  The
    check runs once per call, before any graph is built.  evaluate_action
    skips the entry check: featurize_clip leaves no None entry in the
    annotation fields, and the check would add about 1% to a `temporal`
    call.
    """
    for clip in clips:
        for name in names:
            values = getattr(clip, name)
            if values is None:
                raise ValidationError(f"clip {clip.clip_id!r} has no {name}, which the {task} "
                                      f"task reads; was it featurized for the other task?")
            if len(values) != len(clip.frames):
                raise ValidationError(f"clip {clip.clip_id!r} has {len(values)} {name} "
                                      f"for {len(clip.frames)} keyframes")
            for pos, value in enumerate(values if entries else ()):
                if value is None:
                    raise ValidationError(f"clip {clip.clip_id!r} has no {name} at keyframe "
                                          f"{pos}, which the {task} task reads")


def evaluate_action(clips: list[ClipFeatures], params: dict[str, Tensor], config: ModelConfig,
                    iou_threshold: float = 0.5, workers: int = 1):
    """Frame mean average precision over every keyframe of every clip.

    Returns (per-class AP dict, mAP).  Clips are scored in runs cut by
    their cost (see eval_runs), each run as one batch, and a clip's scores
    do not depend on its batch mates, so the cut never moves a byte.  One
    pass over the keyframes collects the frame ids, boxes and labels, and
    one gather per run puts its scores in keyframe order; what a keyframe
    costs beyond that is the graph build's, the model's and the AP's (see
    _over_runs).  The threshold and the clips' annotation fields are
    checked before any graph is built.  workers is accepted and changes
    nothing: runs go in the calling thread.
    """
    if not clips:
        raise ValidationError("no clips to evaluate")
    check_iou_threshold(iou_threshold)
    _check_fields(clips, "action", _ANNOTATION_FIELDS, entries=False)
    # a (clip_id, keyframe_id) is one frame, numbered by first appearance;
    # a scored keyframe whose id differs from its annotated one has its own
    frame_ids: dict[tuple[str, int], int] = {}
    gt_frames, gt_counts, labels, gt_boxes = [], [], [], []
    det_frames, det_counts, det_boxes = [], [], []
    for clip in clips:
        for kid, boxes, y, f in zip(clip.keyframe_ids, clip.gt_boxes, clip.gt_action_labels,
                                    clip.frames):
            frame = frame_ids.setdefault((clip.clip_id, kid), len(frame_ids))
            gt_frames.append(frame)
            gt_counts.append(len(boxes))
            labels.append(y)
            gt_boxes += boxes
            if f.keyframe_id != kid:
                frame = frame_ids.setdefault((clip.clip_id, f.keyframe_id), len(frame_ids))
            det_frames.append(frame)
            det_counts.append(len(f.fg_boxes))
            det_boxes += f.fg_boxes
    gt_frame = np.repeat(gt_frames, gt_counts)
    labels = np.concatenate(labels) if labels else np.zeros((0, 0))
    if labels.shape[0] != gt_frame.size:
        raise ValidationError(f"{gt_frame.size} ground truth boxes but {labels.shape[0]} label rows")
    # one ground truth per (clip, keyframe, box, class) labelled 1, in that order
    rows, gt_classes = np.nonzero(labels)

    # one detection per (clip, keyframe, box, class), in that order
    classes = config.action_classes
    det_frame = np.repeat(det_frames, np.multiply(det_counts, classes))
    weight, bias = params["readout.action.weight"], params["readout.action.bias"]

    def detect(run: list[ClipFeatures], graph: SpatioTemporalGraph, states: list[Tensor]):
        # every block's (B, n, classes) logits as rows, end to end, then in keyframe order
        logits = [action_readout(s, weight, bias).data.reshape(-1, classes) for s in states]
        return sigmoid_values(np.concatenate(logits)[graph.fg_rows])

    scores = np.concatenate(_over_runs(detect, clips, params, config), axis=None)
    det_boxes = box_array(det_boxes)
    return frame_ap_arrays(det_frame, np.repeat(det_boxes, classes, axis=0),
                           np.tile(np.arange(classes), len(det_boxes)), scores,
                           gt_frame[rows], box_array(gt_boxes)[rows], gt_classes, iou_threshold)


def evaluate_scenegraph(clips: list[ClipFeatures], params: dict[str, Tensor],
                        config: ModelConfig, ks=(20, 50), mode: str = "sgcls",
                        workers: int = 1) -> dict[int, float]:
    """Mean recall at each K over all keyframes, under sgcls or predcls scoring.

    Clips are scored as evaluate_action scores them, in runs cut by their
    cost; workers changes nothing there either.  ks must name at least
    one integer cutoff of 1 or more (see metrics.check_recall_cutoffs).
    """
    if not clips:
        raise ValidationError("no clips to evaluate")
    check_recall_cutoffs(ks)
    _check_fields(clips, "scenegraph", _LABEL_FIELDS["scenegraph"])

    def score(run: list[ClipFeatures], graph: SpatioTemporalGraph, states: list[Tensor]):
        # the run's keyframes block by block, slice by slice
        frames = [(clip.object_classes[local], clip.relations[local])
                  for clip in run for local in range(len(clip.frames))]
        slots = [pos for block in graph.blocks for pos in block.positions]
        classes = [np.asarray(frames[pos][0]).astype(np.int64) for pos in slots]
        relations = [frames[pos][1] for pos in slots]
        counts = list(map(len, relations))
        s, o, r = np.fromiter(chain.from_iterable(chain.from_iterable(relations)),
                              dtype=np.int64).reshape(-1, 3).T
        # each row's node classes, from its keyframe's run of the flat class
        # list; a subject or object outside that run reads some other class,
        # and recall counts the row a miss anyway
        first = np.repeat(np.cumsum([0] + [len(c) for c in classes[:-1]]), counts)
        flat = np.concatenate(classes)
        gt = np.stack([s, o, flat.take(first + s, mode="clip"),
                       flat.take(first + o, mode="clip"), r], axis=1)
        recalls, bounds, at = [], [0, *accumulate(counts)], 0
        for stack in states:
            pred = sg_readout(stack, params["readout.object.weight"], params["readout.object.bias"],
                              params["readout.relation.weight"], params["readout.relation.bias"])
            rel = None if pred.relation_logits is None else pred.relation_logits.data
            b = len(stack.data)
            recalls += triplet_recall_block(pred.object_logits.data, rel,
                                            gt[bounds[at]:bounds[at + b]], counts[at:at + b], ks,
                                            mode, gt_object_classes=classes[at:at + b])
            at += b
        return [recalls[i] for i in graph.order]

    recalls = [r for run in _over_runs(score, clips, params, config) for r in run]
    # each distinct K once, however often ks names it
    totals = dict.fromkeys(ks, 0.0)
    for recall in recalls:
        for k in totals:
            totals[k] += recall[k]
    return {k: totals[k] / len(recalls) for k in ks}


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(config: ModelConfig, seed: int = 0, step: float = 1e-5,
                   keyframes: int | None = None, n_boxes: int = 2,
                   grid_hw: tuple[int, int] = (2, 2),
                   with_proposal: bool = True) -> dict[str, float]:
    """Compare the analytic clip-loss gradient against central differences.

    Builds a small random clip for the configured task and returns the
    max relative error per parameter.  The scene size arguments bound the
    graph so the quadratic cost of the numeric pass stays small.
    """
    rng = np.random.default_rng(seed)
    c = config.feature_channels
    frames = []
    if keyframes is None:
        keyframes = max(2, min(3, config.tau_c))
    all_boxes = [Box(0.05, 0.05, 0.45, 0.45), Box(0.55, 0.55, 0.95, 0.95),
                 Box(0.05, 0.55, 0.45, 0.95)]
    boxes = all_boxes[:n_boxes]
    h, w = grid_hw
    proposals = [Box(0.3, 0.3, 0.7, 0.7)] if with_proposal else []
    for k in range(keyframes):
        grid = FeatureGrid(values=Tensor(rng.normal(0.0, 1.0, size=(1, h, w, c))), keyframe_id=k)
        frames.append(featurize_keyframe(grid, boxes, proposals))
    if config.task == "action":
        labels = [(rng.uniform(size=(n_boxes, config.action_classes)) < 0.5).astype(float)
                  for _ in range(keyframes)]
        clip = ClipFeatures(clip_id="check", frames=frames, action_labels=labels)
    else:
        classes = [rng.integers(0, config.object_classes, size=n_boxes) for _ in range(keyframes)]
        rels = [[(1, 0, int(rng.integers(config.relation_classes)))] if n_boxes > 1 else []
                for _ in range(keyframes)]
        clip = ClipFeatures(clip_id="check", frames=frames,
                            object_classes=classes, relations=rels)
    params = init_params(config, seed)

    with Tape() as tape:
        loss = clip_loss(clip, params, config)
    analytic = grad(tape, loss, params)

    def objective(p: dict[str, Tensor]) -> float:
        return clip_loss(clip, p, config).item()

    numeric = ng.finite_difference_grads(objective, params, step=step)
    return {name: ng.max_relative_error(analytic[name].data, numeric[name])
            for name in params}


# ---------------------------------------------------------------------------
# checkpoints


def _canonical(obj) -> str:
    """obj as sorted-key, compact JSON text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_names(where: str, names, expected: dict) -> None:
    if set(names) != set(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        raise ValidationError(f"{where}: parameter names do not match the config "
                              f"(missing {missing}, unexpected {extra})")


def _check_finite(where: str, values: np.ndarray, names: list[str], ends: list[int]) -> None:
    """One scan of values, the tensors of names laid end to end up to ends."""
    finite = np.isfinite(values)
    if not finite.all():
        # argmin of the mask is the first non-finite value
        name = names[bisect_right(ends, int(finite.argmin()))]
        raise ValidationError(f"{where}: {name!r} holds non-finite values")


def save_checkpoint(path: str, params: dict[str, Tensor], config: ModelConfig,
                    seed: int, log: list[dict] | None = None) -> None:
    """Checkpoint format v3, the safetensors layout: header length, JSON header, raw tensors.

    The file is an 8-byte little-endian length N, then N bytes of
    sorted-key compact JSON padded with spaces to a multiple of 8, then
    every tensor's little-endian float64 bytes in C order, end to end in
    sorted-name order.  The header maps "__metadata__" to strings (format,
    version "3", and the seed, config and training log as sorted-key
    compact JSON text; no log key without a log), and each tensor's name
    to its "dtype" ("F64"), "shape" and "data_offsets" [begin, end) in
    the bytes after the header.  Nothing depends on the clock, so the same
    state always produces the same bytes.  Whether the safetensors package
    reads these files is untested.

    The names and shapes must be those param_shapes(config) lays out and
    every value finite, as load_checkpoint requires; otherwise
    ValidationError names the parameter and no file is opened.
    """
    where = f"{path}: not saved"
    expected = param_shapes(config)
    _check_names(where, params, expected)
    names = sorted(expected)
    for name in names:
        if params[name].shape != expected[name]:
            raise ValidationError(f"{where}: {name!r} has shape {params[name].shape}, "
                                  f"expected {expected[name]}")
    ends = list(accumulate(math.prod(expected[name]) for name in names))
    body = np.concatenate([params[name].data for name in names], axis=None, dtype="<f8")
    _check_finite(where, body, names, ends)
    meta = {"config": _canonical(config.to_dict()), "format": CHECKPOINT_FORMAT,
            "seed": _canonical(seed), "version": CHECKPOINT_VERSION}
    if log is not None:
        meta["log"] = _canonical(log)
    header = {"__metadata__": meta}
    for name, begin, end in zip(names, [0, *ends], ends):
        header[name] = {"data_offsets": [8 * begin, 8 * end], "dtype": "F64",
                        "shape": list(expected[name])}
    text = _canonical(header).encode()
    text += b" " * (-len(text) % 8)
    with open(path, "wb") as f:
        f.write(len(text).to_bytes(8, "little") + text)
        f.write(body)


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], ModelConfig, dict]:
    """Parameters, config and {"seed", "log"} from a file save_checkpoint wrote.

    The header length, the header and its config come first: a header
    length past the end of the file fails before the header is read, and
    a config laying out more than passing.MAX_PARAM_VALUES values before
    the body is.  Every tensor's name, dtype, shape and data_offsets must
    then be exactly those save_checkpoint writes for the config, and the
    tensors must end where the file does.  The body is read once and
    scanned once for non-finite values, and each parameter is a read-only
    view of it.  A format v1 or v2 file (one JSON document) fails with
    "unsupported checkpoint version N".  Every error is a ValidationError
    that starts with the path, and one about a tensor names it.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            lead = f.read(8)
            n = int.from_bytes(lead, "little")
            if len(lead) < 8 or n > size - 8:
                if lead.startswith(b"{"):
                    _refuse_json(path, lead + f.read())
                if len(lead) < 8:
                    raise ValidationError(f"{path}: {size} bytes hold no 8-byte header length")
                raise ValidationError(
                    f"{path}: header length {n} runs past the end of the {size}-byte file")
            try:
                header = json.loads(f.read(n).decode("utf-8"))
            except (ValueError, RecursionError) as err:
                # ValueError covers bad UTF-8 and bad JSON alike
                raise ValidationError(f"{path}: cannot read checkpoint header: {err}") from None
            config, meta, expected, ends = _read_header(path, header)
            total, held = 8 * ends[-1], size - 8 - n
            body = f.read(total) if held == total else b""
    except OSError as err:
        raise ValidationError(f"{path}: cannot read checkpoint: {err}") from None
    if len(body) != total:
        raise ValidationError(f"{path}: the tensors take {total} bytes, "
                              f"but {held} follow the header")
    values = np.frombuffer(body, dtype="<f8")
    names = sorted(expected)
    _check_finite(path, values, names, ends)
    spans = dict(zip(names, zip([0, *ends], ends)))
    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        begin, end = spans[name]
        # checked just above, so the constructor's finiteness scan is skipped
        params[name] = ng._wrap(values[begin:end].reshape(shape), requires_grad=True, name=name)
    return params, config, meta


def _refuse_json(path: str, raw: bytes) -> None:
    """Raise the error for a file that is one JSON document, as formats v1 and v2 were."""
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"{path}: cannot read checkpoint: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: not a model checkpoint")
    raise ValidationError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")


def _json_ints(value, expected: tuple[int, ...]) -> bool:
    # [True, 2] and [1.0, 2] compare equal to (1, 2), hence the type check
    return (isinstance(value, list) and tuple(value) == expected
            and _JSON_INTEGERS.issuperset(map(type, value)))


def _read_header(path: str, header) -> tuple[ModelConfig, dict, dict, list[int]]:
    """(config, {"seed", "log"}, param_shapes(config), the tensors' ends in float64 values).

    The ends follow the tensors in sorted-name order, as the body holds
    them.  Raises ValidationError unless header is one save_checkpoint writes.
    """
    meta = header.get("__metadata__") if isinstance(header, dict) else None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: not a model checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
    fields = {}
    for key in ("config", "seed", "log"):
        text = meta.get(key)
        if key in meta and not isinstance(text, str):
            raise ValidationError(f"{path}: metadata {key!r} must be a string")
        try:
            fields[key] = None if text is None else json.loads(text)
        except (ValueError, RecursionError) as err:
            raise ValidationError(f"{path}: metadata {key!r} is not JSON text: {err}") from None
    if not isinstance(fields["config"], dict):
        raise ValidationError(f"{path}: metadata 'config' must hold a JSON object")
    try:
        config = ModelConfig(**fields.pop("config"))
        expected = param_shapes(config)
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"{path}: invalid config: {err}") from None
    _check_names(path, set(header) - {"__metadata__"}, expected)
    ends, begin = [], 0
    for name in sorted(expected):
        entry, shape = header[name], expected[name]
        end = begin + 8 * math.prod(shape)
        if not isinstance(entry, dict) or set(entry) != {"data_offsets", "dtype", "shape"}:
            raise ValidationError(
                f"{path}: {name!r} must be an object of 'data_offsets', 'dtype' and 'shape'")
        if entry["dtype"] != "F64":
            raise ValidationError(f"{path}: {name!r} has dtype {entry['dtype']!r}, expected 'F64'")
        if not _json_ints(entry["shape"], shape):
            raise ValidationError(
                f"{path}: {name!r} has shape {entry['shape']!r}, expected {shape}")
        if not _json_ints(entry["data_offsets"], (begin, end)):
            raise ValidationError(f"{path}: {name!r} has data_offsets {entry['data_offsets']!r}, "
                                  f"expected [{begin}, {end}]")
        ends.append(end // 8)
        begin = end
    return config, fields, expected, ends
