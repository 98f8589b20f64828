"""Learning-rate schedule, SGD with momentum, training loop, evaluation, checkpoints."""

import base64
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import numgrad as ng
from .data import _JSON_INTEGERS, ClipFeatures, one_hot, relation_target_matrix
from .errors import ConfigError, NumericError, ShapeError, ValidationError
from .graph import (Box, FeatureGrid, SpatioTemporalGraph, build_batch, build_graph,
                    featurize_keyframe)
from .heads import action_loss, action_readout, sg_loss, sg_readout
from .metrics import Detection, GroundTruthBox, frame_ap, triplet_recall
from .numgrad import Tape, Tensor, grad, sigmoid_values
from .passing import ModelConfig, param_shapes, run_inference

CHECKPOINT_FORMAT = "stgraph-checkpoint"
CHECKPOINT_VERSION = 2
# clips scored together as one batch by evaluate_action/evaluate_scenegraph
EVAL_CHUNK = 16


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


def sgd_step(params: dict[str, Tensor], grads: dict[str, Tensor], lr: float,
             state: SgdState) -> None:
    """One SGD update of params in place: v <- m*v + (g + wd*p); p <- p - lr*v.

    The update runs over all parameters at once, as vectors concatenated
    in params order, with the operations of the per-tensor formula, so each
    value gets the same bits.  Each new parameter is a read-only view of
    its slice of a new vector; tensors held from before the step keep
    their values.  A non-finite gradient or updated value raises
    NumericError naming the parameter and the step before anything changes.
    """
    names = list(params)
    for name in names:
        if grads[name].shape != params[name].shape:
            raise ShapeError(f"gradient for {name!r} has shape {grads[name].shape}, "
                             f"expected {params[name].shape}")
    sizes = [params[name].data.size for name in names]
    ends = np.cumsum(sizes, dtype=np.intp)
    velocity = np.zeros(ends[-1]) if state.velocity is None else state.velocity

    def check(values: np.ndarray, what: str) -> None:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            name = names[int(np.searchsorted(ends, bad[0], side="right"))]
            raise NumericError(f"non-finite {what} for {name!r} at step {state.step}")

    g = np.concatenate([grads[name].data.reshape(-1) for name in names])
    check(g, "gradient")
    p = np.concatenate([params[name].data.reshape(-1) for name in names])
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
    for name, size, end in zip(names, sizes, ends):
        params[name] = ng._wrap(g[end - size:end].reshape(params[name].shape),
                                requires_grad=True, name=name)
    state.velocity = buf
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


def _stacked(graph: SpatioTemporalGraph, per_position: list[np.ndarray]) -> list[np.ndarray]:
    """Per-keyframe arrays, flat positions in order, stacked as the graph's blocks."""
    return [np.stack([per_position[p] for p in block.positions]) for block in graph.blocks]


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
            onehots = [one_hot(classes, config.object_classes)
                       for clip in clips for classes in clip.object_classes]
            relations = [r for clip in clips for r in clip.relations]
            relation_targets = [
                None if pred.relation_logits is None else np.stack([
                    relation_target_matrix(pred.pairs, relations[pos], config.relation_classes)
                    for pos in block.positions])
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


def _over_chunks(score, clips: list[ClipFeatures], params, config: ModelConfig) -> list:
    """score(chunk, graph, final states) for every EVAL_CHUNK clips, scored as one batch.

    Chunks run in order, in the calling thread.  A chunk holds the GIL
    between numpy calls, and numpy lets it go around every stacked array
    operation, so chunks on two threads handed the GIL back and forth:
    two threads scored `temporal`'s held-out clips 11% slower than one
    with the second core busy and 37% slower with it idle.
    """
    def run(chunk):
        graph = build_batch([c.frames for c in chunk], params, config)
        return score(chunk, graph, run_inference(graph, params, config).states)

    return [run(clips[i:i + EVAL_CHUNK]) for i in range(0, len(clips), EVAL_CHUNK)]


def evaluate_action(clips: list[ClipFeatures], params: dict[str, Tensor], config: ModelConfig,
                    iou_threshold: float = 0.5, workers: int = 1):
    """Frame mean average precision over every keyframe of every clip.

    Returns (per-class AP dict, mAP).  Clips are scored EVAL_CHUNK at a
    time as one batch, and a clip's scores do not depend on its batch
    mates.  workers is accepted and changes nothing: chunks run in the
    calling thread (see _over_chunks).
    """
    if not clips:
        raise ValidationError("no clips to evaluate")
    ground_truth = []
    for clip in clips:
        for pos, kid in enumerate(clip.keyframe_ids):
            labels = clip.gt_action_labels[pos]
            for row, box in enumerate(clip.gt_boxes[pos]):
                for cls in np.flatnonzero(labels[row]):
                    ground_truth.append(GroundTruthBox(
                        clip_id=clip.clip_id, keyframe_id=kid, box=box, class_id=int(cls)))

    def detect(chunk: list[ClipFeatures], graph: SpatioTemporalGraph, states: list[Tensor]):
        probs = [sigmoid_values(action_readout(s, params["readout.action.weight"],
                                               params["readout.action.bias"]).data)
                 for s in states]
        detections = []
        for clip, span in zip(chunk, graph.clips):
            for pos, frame in zip(span, clip.frames):
                k, j = graph.where[pos]
                for row, box in enumerate(frame.fg_boxes):
                    for cls in range(config.action_classes):
                        detections.append(Detection(
                            clip_id=clip.clip_id, keyframe_id=frame.keyframe_id,
                            box=box, class_id=cls, score=float(probs[k][j, row, cls])))
        return detections

    detections = [d for chunk in _over_chunks(detect, clips, params, config) for d in chunk]
    return frame_ap(detections, ground_truth, iou_threshold=iou_threshold)


def evaluate_scenegraph(clips: list[ClipFeatures], params: dict[str, Tensor],
                        config: ModelConfig, ks=(20, 50), mode: str = "sgcls",
                        workers: int = 1) -> dict[int, float]:
    """Mean recall at each K over all keyframes, under sgcls or predcls scoring.

    Clips are scored as evaluate_action scores them, EVAL_CHUNK at a time;
    workers changes nothing there either.
    """
    if not clips:
        raise ValidationError("no clips to evaluate")

    def score(chunk: list[ClipFeatures], graph: SpatioTemporalGraph, states: list[Tensor]):
        preds = [sg_readout(stack,
                            params["readout.object.weight"], params["readout.object.bias"],
                            params["readout.relation.weight"], params["readout.relation.bias"])
                 for stack in states]
        recalls = []
        for clip, span in zip(chunk, graph.clips):
            for local, pos in enumerate(span):
                k, j = graph.where[pos]
                pred = preds[k]
                classes = np.asarray(clip.object_classes[local], dtype=np.int64)
                s, o, r = np.array(clip.relations[local], dtype=np.int64).reshape(-1, 3).T
                gt = np.stack([s, o, classes[s], classes[o], r], axis=1)
                relations = None if pred.relation_logits is None else pred.relation_logits.data[j]
                recalls.append(triplet_recall(pred.object_logits.data[j], relations, gt, ks, mode,
                                              gt_object_classes=classes))
        return recalls

    recalls = [r for chunk in _over_chunks(score, clips, params, config) for r in chunk]
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


def save_checkpoint(path: str, params: dict[str, Tensor], config: ModelConfig,
                    seed: int, log: list[dict] | None = None) -> None:
    """Versioned JSON checkpoint: config echo, seed, and named tensors.

    Each tensor is stored as its shape and the base64 text of its
    little-endian float64 bytes in C order.  Keys are sorted and nothing
    depends on the clock, so the same state always produces the same bytes.
    load_checkpoint validates the config, then each tensor's name, shape,
    base64 length and alphabet, decoded byte count and finiteness.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": seed,
        "config": config.to_dict(),
        "params": {
            name: {"shape": list(t.shape),
                   "data": base64.b64encode(t.data.astype("<f8", copy=False).tobytes()).decode()}
            for name, t in params.items()
        },
    }
    if log is not None:
        payload["log"] = log
    # json.dumps runs the C encoder; json.dump(payload, f) would stream
    # through the pure-Python one
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as f:
        f.write(text + "\n")


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], ModelConfig, dict]:
    """Load a checkpoint, failing loudly on any name or shape mismatch."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers bad UTF-8 and bad JSON alike
        raise ValidationError(f"{path}: cannot read checkpoint: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: not a model checkpoint")
    if type(payload.get("version")) is not int or payload["version"] != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    if not isinstance(payload.get("config"), dict):
        raise ValidationError(f"{path}: 'config' must be an object")
    try:
        config = ModelConfig(**payload["config"])
        expected = param_shapes(config)
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"{path}: invalid config: {err}") from None
    stored = payload.get("params")
    if not isinstance(stored, dict):
        raise ValidationError(f"{path}: 'params' must be an object")
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise ValidationError(
            f"{path}: parameter names do not match the config "
            f"(missing {missing}, unexpected {extra})")
    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        entry = stored[name]
        if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
            raise ValidationError(f"{path}: {name!r} must be an object with 'shape' and 'data'")
        stored_shape, text = entry["shape"], entry["data"]
        # [True, 2] and [1.0, 2] compare equal to (1, 2), hence the type check
        if (not isinstance(stored_shape, list) or tuple(stored_shape) != shape
                or not _JSON_INTEGERS.issuperset(map(type, stored_shape))):
            raise ValidationError(f"{path}: {name!r} has shape {stored_shape!r}, expected {shape}")
        size = 8 * math.prod(shape)
        chars = 4 * -(-size // 3)  # padded base64 of size bytes
        if not isinstance(text, str) or len(text) != chars:
            raise ValidationError(f"{path}: {name!r} needs 'data' as a string of {chars} "
                                  f"base64 characters for {size} bytes")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as err:  # binascii.Error, or a character outside ASCII
            raise ValidationError(f"{path}: {name!r} is not valid base64: {err}") from None
        if len(raw) != size:
            raise ValidationError(
                f"{path}: {name!r} decodes to {len(raw)} bytes, expected {size}")
        data = np.frombuffer(raw, dtype="<f8")
        if not np.isfinite(data).all():
            raise ValidationError(f"{path}: {name!r} holds non-finite values")
        params[name] = Tensor(data.reshape(shape), requires_grad=True, name=name)
    meta = {"seed": payload.get("seed"), "log": payload.get("log")}
    return params, config, meta
