"""Attention message passing over spatio-temporal graphs.

Each inference iteration runs a spatial phase and, when the temporal
window is wider than one keyframe, a temporal phase.  A phase computes
one message per configured message function per head, combines parallel
messages with an attention gate, and applies a residual layer-norm
update.  Only foreground nodes update; context nodes are read-only
senders.  Phases are synchronous: every message in a phase is computed
from the states as they were when the phase started.

Every step is batched over blocks of keyframes.  A block stacks the
keyframes whose row counts match, from one clip or from many, without
padding: the n foreground states of each of its B keyframes attend to
their s neighbor states through a (B, n, s) attention stack, and the gate
scores all K message slots of every receiver as a (B, n, K) stack.  Both
phases run on the graph's blocks, whose keyframes all have temporal
neighbors or all have none.  Both phases hand each slot (slices, stack)
neighbor pairs: the spatial phase one per block (own rows, then context),
the temporal phase, which skips blocks without temporal neighbors, one per
neighbor count s, so edge and interior keyframes share the entry.  The
temporal pairs gather their rows by the graph's temporal_groups, built
once per graph, and the gather's backward adds its cotangent one window
offset at a time (see graph.TemporalGroup).
The additive scores relu(a . [h_v || h_j]) are evaluated as
relu(h_v . a1 + h_j . a2), a column plus a row, so no per-receiver pair
matrix is ever built.  Each slot, the gate and the residual update is one
fused numgrad primitive per block (a single slot needs no gate), so the
tape grows with iterations x phases x blocks x slots, not with the number
of keyframes, clips or nodes.  Per-node Python runs only to copy
attention and gate rows into trace records.

Each (iteration, phase) runs inside one numgrad.checked span, and its
updated states are checked for finiteness once, so a NaN or infinity
raises NumericError naming the iteration and phase where it arose.

Parameters are stored in a flat name -> Tensor mapping and are untied:
every (iteration, phase, function, head) tuple owns its own weights.
"""

import sys
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, ValidationError
from .graph import PROJ_CONTEXT, PROJ_FOREGROUND, PROJ_PROPOSAL, SpatioTemporalGraph, node_ids
from .numgrad import Tensor

PHASE_SPATIAL = "spatial"
PHASE_TEMPORAL = "temporal"

FN_NONLOCAL = "nonlocal"
FN_GAT = "gat"

TASK_ACTION = "action"
TASK_SCENEGRAPH = "scenegraph"

_INT_FIELDS = ("state_dim", "heads", "iterations", "tau_c", "tau_s", "feature_channels",
               "action_classes", "object_classes", "relation_classes", "seed")
# param_shapes counts the values a config's parameters would hold before it
# lists any name, and rejects more than this (800 MB as float64)
MAX_PARAM_VALUES = 100_000_000
# and the tensors, one dict entry each, so that many heads of width 1 fail too
MAX_PARAM_TENSORS = 100_000


@dataclass(frozen=True)
class ModelConfig:
    """Shape and schedule of one model instance, validated when it is made."""

    state_dim: int = 64
    heads: int = 4
    iterations: int = 1
    message_fns: tuple[str, ...] = (FN_NONLOCAL,)
    tau_c: int = 1
    tau_s: int = 1
    task: str = TASK_ACTION
    feature_channels: int = 16
    action_classes: int = 2
    object_classes: int = 5
    relation_classes: int = 3
    ln_eps: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        # tolerate lists from JSON round trips
        if isinstance(self.message_fns, list):
            object.__setattr__(self, "message_fns", tuple(self.message_fns))
        self.validate()

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # compared, not converted: float() of a huge JSON integer overflows
        if (isinstance(self.ln_eps, bool) or not isinstance(self.ln_eps, (int, float))
                or not 0 < self.ln_eps <= sys.float_info.max):
            raise ConfigError(f"ln_eps must be a finite positive number, got {self.ln_eps!r}")
        if (not isinstance(self.message_fns, tuple)
                or not all(isinstance(fn, str) for fn in self.message_fns)):
            raise ConfigError(f"message_fns must be a list of strings, got {self.message_fns!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("state_dim", "feature_channels", "heads", "iterations", "tau_s"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.message_fns:
            raise ConfigError("at least one message function is required")
        for fn in self.message_fns:
            if fn not in (FN_NONLOCAL, FN_GAT):
                raise ConfigError(f"unknown message function {fn!r}")
        if len(set(self.message_fns)) != len(self.message_fns):
            raise ConfigError(f"duplicate message functions in {self.message_fns}")
        if self.tau_c < 1 or self.tau_c % 2 == 0:
            raise ConfigError(f"tau_c must be odd and positive, got {self.tau_c}")
        if self.task not in (TASK_ACTION, TASK_SCENEGRAPH):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == TASK_ACTION and self.action_classes < 1:
            raise ConfigError(f"action_classes must be positive, got {self.action_classes}")
        if self.task == TASK_SCENEGRAPH and (self.object_classes < 1 or self.relation_classes < 1):
            raise ConfigError("object_classes and relation_classes must be positive")

    def phases(self) -> tuple[str, ...]:
        return (PHASE_SPATIAL,) if self.tau_c == 1 else (PHASE_SPATIAL, PHASE_TEMPORAL)

    @property
    def num_messages(self) -> int:
        return len(self.message_fns) * self.heads

    def to_dict(self) -> dict:
        d = asdict(self)
        d["message_fns"] = list(self.message_fns)
        return d


def _mp(iteration: int, phase: str, rest: str) -> str:
    return f"mp.iter{iteration}.{phase}.{rest}"


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name with its shape, in deterministic order."""
    d, c = config.state_dim, config.feature_channels
    per_head = sum(3 * d * d if fn == FN_NONLOCAL else d * d + 2 * d for fn in config.message_fns)
    per_phase = config.heads * per_head + (4 * d if config.num_messages > 1 else 2 * d)
    readout = ((d + 1) * config.action_classes if config.task == TASK_ACTION
               else (d + 1) * config.object_classes + (2 * d + 1) * config.relation_classes)
    total = 3 * c * d + config.iterations * len(config.phases()) * per_phase + readout
    if total > MAX_PARAM_VALUES:
        raise ConfigError(f"state_dim, heads, iterations, feature_channels and class counts "
                          f"give {total} parameter values, more than {MAX_PARAM_VALUES}")
    phase_tensors = (config.heads * sum(3 if fn == FN_NONLOCAL else 2 for fn in config.message_fns)
                     + (3 if config.num_messages > 1 else 2))
    tensors = (3 + config.iterations * len(config.phases()) * phase_tensors
               + (2 if config.task == TASK_ACTION else 4))
    if tensors > MAX_PARAM_TENSORS:
        raise ConfigError(f"iterations, tau_c, message_fns and heads give {tensors} parameter "
                          f"tensors, more than {MAX_PARAM_TENSORS}")
    shapes: dict[str, tuple[int, ...]] = {
        PROJ_FOREGROUND: (c, d),
        PROJ_CONTEXT: (c, d),
        PROJ_PROPOSAL: (c, d),
    }
    for i in range(config.iterations):
        for phase in config.phases():
            for fn in config.message_fns:
                for h in range(config.heads):
                    if fn == FN_NONLOCAL:
                        for part in ("query", "key", "value"):
                            shapes[_mp(i, phase, f"nonlocal.head{h}.{part}")] = (d, d)
                    else:
                        shapes[_mp(i, phase, f"gat.head{h}.transform")] = (d, d)
                        shapes[_mp(i, phase, f"gat.head{h}.score")] = (2 * d,)
            shapes[_mp(i, phase, "norm.scale")] = (d,)
            shapes[_mp(i, phase, "norm.shift")] = (d,)
            if config.num_messages > 1:
                shapes[_mp(i, phase, "gate")] = (2 * d,)
    if config.task == TASK_ACTION:
        shapes["readout.action.weight"] = (d, config.action_classes)
        shapes["readout.action.bias"] = (config.action_classes,)
    else:
        shapes["readout.object.weight"] = (d, config.object_classes)
        shapes["readout.object.bias"] = (config.object_classes,)
        shapes["readout.relation.weight"] = (2 * d, config.relation_classes)
        shapes["readout.relation.bias"] = (config.relation_classes,)
    return shapes


@dataclass
class AttentionRecord:
    """One attention vector: who node_id listened to in one slot."""

    iteration: int
    phase: str
    function: str
    head: int
    node_id: int
    neighbor_ids: list[int]
    weights: np.ndarray


@dataclass
class GateRecord:
    """Mixture weights over parallel message slots for one node."""

    iteration: int
    phase: str
    node_id: int
    slots: list[str]
    weights: np.ndarray


@dataclass(eq=False)
class InferenceResult:
    """Final foreground states, one stack per graph block, plus traces.

    states[k] is the (B, n, d) stack of graph.blocks[k]; keyframe pos ends
    at states[k].data[j], (k, j) = graph.where[pos].  fg_states maps each
    pos to a read-only view of those rows, off the tape: a loss built from
    it would get no gradient, so it raises under an active tape.
    """

    graph: SpatioTemporalGraph
    states: list[Tensor]
    attention: list[AttentionRecord]
    gates: list[GateRecord]

    @property
    def fg_states(self) -> dict[int, Tensor]:
        if ng._active_tape() is not None:
            raise ValidationError("fg_states is off the tape; differentiate through states, "
                                  "at (k, j) = graph.where[pos]")
        return self._views

    @cached_property
    def _views(self) -> dict[int, Tensor]:
        return {pos: ng._wrap(self.states[k].data[j]) for pos, (k, j) in enumerate(self.graph.where)}


def _slice_rows(kv, attention, count: int) -> list[np.ndarray]:
    """Each slice's attention matrix, from the stacks of its (slices, stack) pairs."""
    rows = [None] * count
    for (slices, _), att in zip(kv, attention):
        for u, matrix in zip(slices, att.data):
            rows[u] = matrix
    return rows


def _keyframe_traces(graph: SpatioTemporalGraph, iteration: int, phase: str, pos: int,
                     slots, attention: list[np.ndarray], mix: np.ndarray | None):
    """Attention records, slot by slot and node by node, and gate records of one keyframe."""
    fg_ids = node_ids(graph, pos)
    if phase == PHASE_SPATIAL:
        kv_ids = node_ids(graph, pos, context=True)
    else:
        kv_ids = [j for p in graph.temporal[pos] for j in node_ids(graph, p)]
    records = [AttentionRecord(iteration, phase, fn, h, node_id, list(kv_ids), row.copy())
               for (fn, h), rows in zip(slots, attention)
               for node_id, row in zip(fg_ids, rows)]
    if mix is None:
        return records, []
    names = [f"{fn}.head{h}" for fn, h in slots]
    return records, [GateRecord(iteration, phase, node_id, list(names), row.copy())
                     for node_id, row in zip(fg_ids, mix)]


def _slot(params, iteration: int, phase: str, fn: str, head: int, own: Tensor, kv):
    """(messages, attention) of one message slot, with the weights _mp names for it."""
    def weight(part):
        return params[_mp(iteration, phase, f"{fn}.head{head}.{part}")]
    if fn == FN_NONLOCAL:
        return ng.nonlocal_attention(own, kv, weight("query"), weight("key"), weight("value"))
    return ng.additive_attention(own, kv, weight("transform"), weight("score"))


def run_inference(graph: SpatioTemporalGraph, params, config: ModelConfig,
                  record_traces: bool = False) -> InferenceResult:
    """Run all message-passing iterations and return final node states.

    Spatial phase first, then temporal, within every iteration.  A
    keyframe whose temporal neighborhood is empty passes through the
    temporal phase unchanged.  Attention and gate traces are collected
    only when record_traces is set, in the order iteration, phase,
    keyframe, function, head, node.
    """
    if graph.tau_c != config.tau_c or graph.tau_s != config.tau_s:
        raise ConfigError(
            f"graph built with tau_c={graph.tau_c}, tau_s={graph.tau_s} but config has "
            f"tau_c={config.tau_c}, tau_s={config.tau_s}")
    states = [b.fg_states for b in graph.blocks]
    attention: list[AttentionRecord] = []
    gates: list[GateRecord] = []

    for i in range(config.iterations):
        for phase in config.phases():
            where = f"iteration {i} {phase} phase"
            traced: dict[int, tuple[list, list]] = {}
            with ng.checked(where):
                slots = [(fn, h) for fn in config.message_fns for h in range(config.heads)]
                gate = params[_mp(i, phase, "gate")] if len(slots) > 1 else None
                if phase == PHASE_SPATIAL:
                    blocks = [(k, [(range(len(b.positions)),
                                    ng.concat_rows([own, b.ctx_states]))])
                              for k, (b, own) in enumerate(zip(graph.blocks, states))]
                else:
                    blocks = [(k, [(group.slices, ng.gather_rows(states, group.rows, group.rounds))
                                   for group in groups])
                              for k, groups in enumerate(graph.temporal_groups) if groups]
                updated = list(states)
                for k, kv in blocks:
                    positions, own = graph.blocks[k].positions, states[k]
                    messages, atts = [], []
                    for fn, h in slots:
                        msgs, att = _slot(params, i, phase, fn, h, own, kv)
                        messages.append(msgs)
                        if record_traces:
                            atts.append(_slice_rows(kv, att, len(positions)))
                    combined, mix = ((messages[0], None) if gate is None
                                     else ng.gated_mix(messages, own, gate))
                    if record_traces:
                        for u, pos in enumerate(positions):
                            traced[pos] = _keyframe_traces(
                                graph, i, phase, pos, slots, [a[u] for a in atts],
                                None if mix is None else mix.data[u])
                    updated[k] = ng.residual_layer_norm(own, combined,
                                                        params[_mp(i, phase, "norm.scale")],
                                                        params[_mp(i, phase, "norm.shift")],
                                                        config.ln_eps)
                states = updated
            ng.check_finite(where, *states)
            for pos in sorted(traced):
                attention.extend(traced[pos][0])
                gates.extend(traced[pos][1])

    return InferenceResult(graph, states, attention, gates)
