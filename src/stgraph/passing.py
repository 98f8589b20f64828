"""Attention message passing over spatio-temporal graphs.

Each inference iteration runs a spatial phase and, when the temporal
window is wider than one keyframe, a temporal phase.  A phase computes
one message per configured message function per head, combines parallel
messages with an attention gate, and applies a residual layer-norm
update.  Only foreground nodes update; context nodes are read-only
senders.  Phases are synchronous: every message in a phase is computed
from the states as they were when the phase started.

Every step is batched over the receivers of one keyframe: the n
foreground states of a keyframe attend to its s neighbor states through
(n, s) attention matrices, and the gate scores all K message slots of
every receiver as one (n, K) matrix.  The additive scores
relu(a . [h_v || h_j]) are evaluated as relu(h_v . a1 + h_j . a2), a
column plus a row, so no per-receiver pair matrix is ever built.  The
tape therefore grows with iterations x phases x keyframes x slots, not
with the number of nodes.  Per-node Python runs only to copy attention
and gate rows into trace records.

Each (iteration, phase) runs inside one numgrad.checked span, and its
updated states are checked for finiteness once, so a NaN or infinity
raises NumericError naming the iteration and phase where it arose.

Parameters are stored in a flat name -> Tensor mapping and are untied:
every (iteration, phase, function, head) tuple owns its own weights.
"""

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, ValidationError
from .graph import PROJ_CONTEXT, PROJ_FOREGROUND, PROJ_PROPOSAL, SpatioTemporalGraph
from .numgrad import Tensor

PHASE_SPATIAL = "spatial"
PHASE_TEMPORAL = "temporal"

FN_NONLOCAL = "nonlocal"
FN_GAT = "gat"

TASK_ACTION = "action"
TASK_SCENEGRAPH = "scenegraph"


@dataclass(frozen=True)
class ModelConfig:
    """Shape and schedule of one model instance."""

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
        if not isinstance(self.message_fns, tuple):
            object.__setattr__(self, "message_fns", tuple(self.message_fns))

    def validate(self) -> None:
        if self.state_dim < 1 or self.feature_channels < 1:
            raise ConfigError(f"state_dim/feature_channels must be positive, got "
                              f"{self.state_dim}/{self.feature_channels}")
        if self.heads < 1:
            raise ConfigError(f"heads must be positive, got {self.heads}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be positive, got {self.iterations}")
        if not self.message_fns:
            raise ConfigError("at least one message function is required")
        for fn in self.message_fns:
            if fn not in (FN_NONLOCAL, FN_GAT):
                raise ConfigError(f"unknown message function {fn!r}")
        if len(set(self.message_fns)) != len(self.message_fns):
            raise ConfigError(f"duplicate message functions in {self.message_fns}")
        if self.tau_c < 1 or self.tau_c % 2 == 0:
            raise ConfigError(f"tau_c must be odd and positive, got {self.tau_c}")
        if self.tau_s < 1:
            raise ConfigError(f"tau_s must be positive, got {self.tau_s}")
        if self.task not in (TASK_ACTION, TASK_SCENEGRAPH):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == TASK_ACTION and self.action_classes < 1:
            raise ConfigError(f"action_classes must be positive, got {self.action_classes}")
        if self.task == TASK_SCENEGRAPH and (self.object_classes < 1 or self.relation_classes < 1):
            raise ConfigError("object_classes and relation_classes must be positive")
        if self.ln_eps <= 0.0:
            raise ConfigError(f"ln_eps must be positive, got {self.ln_eps}")

    def phases(self) -> tuple[str, ...]:
        return (PHASE_SPATIAL,) if self.tau_c == 1 else (PHASE_SPATIAL, PHASE_TEMPORAL)

    @property
    def num_messages(self) -> int:
        return len(self.message_fns) * self.heads

    def to_dict(self) -> dict:
        d = asdict(self)
        d["message_fns"] = list(self.message_fns)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{**d, "message_fns": tuple(d["message_fns"])})


@dataclass(frozen=True)
class NonLocalWeights:
    query: Tensor  # (d, d)
    key: Tensor    # (d, d)
    value: Tensor  # (d, d)


@dataclass(frozen=True)
class GatWeights:
    transform: Tensor  # (d, d)
    score: Tensor      # (2d,)


def _mp(iteration: int, phase: str, rest: str) -> str:
    return f"mp.iter{iteration}.{phase}.{rest}"


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name with its shape, in deterministic order."""
    config.validate()
    d, c = config.state_dim, config.feature_channels
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


def message_weights(params, iteration: int, phase: str, fn: str, head: int):
    """View into the flat parameter mapping for one message slot."""
    if fn == FN_NONLOCAL:
        return NonLocalWeights(
            query=params[_mp(iteration, phase, f"nonlocal.head{head}.query")],
            key=params[_mp(iteration, phase, f"nonlocal.head{head}.key")],
            value=params[_mp(iteration, phase, f"nonlocal.head{head}.value")],
        )
    return GatWeights(
        transform=params[_mp(iteration, phase, f"gat.head{head}.transform")],
        score=params[_mp(iteration, phase, f"gat.head{head}.score")],
    )


def nonlocal_messages(query_states: Tensor, key_value_states: Tensor,
                      weights: NonLocalWeights) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention messages.

    Queries come from the receiving states, keys and values from the
    neighborhood stack.  Returns (messages (n, d), attention (n, s)) with
    each attention row summing to one.
    """
    if query_states.ndim != 2 or key_value_states.ndim != 2:
        raise ValidationError("nonlocal_messages expects 2-d state matrices")
    if key_value_states.shape[0] == 0:
        raise ValidationError("nonlocal_messages: empty neighborhood")
    d = query_states.shape[1]
    q = ng.matmul(query_states, weights.query)
    k = ng.matmul(key_value_states, weights.key)
    v = ng.matmul(key_value_states, weights.value)
    logits = ng.scale(ng.matmul(q, ng.transpose(k)), 1.0 / math.sqrt(d))
    attention = ng.softmax(logits)
    return ng.matmul(attention, v), attention


def gat_messages(receivers: Tensor, neighbor_states: Tensor,
                 weights: GatWeights) -> tuple[Tensor, Tensor]:
    """Additive attention messages for every receiving node at once.

    The score of receiver v for neighbor j is relu(score . [h_v || h_j]),
    computed as relu(h_v . a1 + h_j . a2) with score = [a1 || a2] so that
    it broadcasts to an (n, s) matrix; rows are normalized with a softmax
    and each message is relu of the transformed attention-weighted sum.
    Returns (messages (n, d), attention (n, s)).
    """
    if receivers.ndim != 2 or neighbor_states.ndim != 2:
        raise ValidationError("gat_messages expects 2-d state matrices")
    if neighbor_states.shape[0] == 0:
        raise ValidationError("gat_messages: empty neighborhood")
    d = receivers.shape[1]
    own = ng.matmul_slice([receivers], weights.score, 0, d)
    other = ng.matmul_slice([neighbor_states], weights.score, d, 2 * d)
    attention = ng.softmax(ng.relu(ng.add_broadcast(own, ng.transpose(other))))
    pooled = ng.matmul(attention, neighbor_states)
    return ng.relu(ng.matmul(pooled, weights.transform)), attention


def combine_parallel(messages: list[Tensor], receivers: Tensor,
                     gate: Tensor | None) -> tuple[Tensor, Tensor]:
    """Per-receiver convex combination of parallel messages, by a learned gate.

    For receiver v, weight k is softmax over k of relu(gate . [h_v || m_k]),
    computed as relu(h_v . g1 + m_k . g2) with gate = [g1 || g2].  Each
    message is an (n, d) matrix with one row per receiver.  Returns
    (combined (n, d), weights (n, K)); a single message is returned
    unchanged with weights of one.
    """
    if not messages:
        raise ValidationError("combine_parallel: no messages")
    if len(messages) == 1 and gate is None:
        return messages[0], Tensor(np.ones((receivers.shape[0], 1)))
    if gate is None:
        raise ValidationError("combine_parallel: gate vector required for parallel messages")
    d = receivers.shape[1]
    slot_scores = ng.matmul_slice(messages, gate, d, 2 * d)
    own = ng.matmul_slice([receivers], gate, 0, d)
    weights = ng.softmax(ng.relu(ng.add_broadcast(own, slot_scores)))
    return ng.mix_rows(weights, messages), weights


def update_node(state: Tensor, message: Tensor, scale: Tensor, shift: Tensor,
                eps: float = 1e-5) -> Tensor:
    """Residual update followed by layer normalization.

    With a zero message this is layer_norm(state), not the identity.
    """
    return ng.layer_norm(ng.add(state, message), scale, shift, eps)


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


@dataclass
class InferenceResult:
    """Final foreground states plus untouched context states per keyframe."""

    fg_states: dict[int, Tensor]
    ctx_states: dict[int, Tensor]
    fg_ids: dict[int, list[int]]
    attention: list[AttentionRecord] = field(default_factory=list)
    gates: list[GateRecord] = field(default_factory=list)


def run_inference(graph: SpatioTemporalGraph, params, config: ModelConfig,
                  record_traces: bool = False) -> InferenceResult:
    """Run all message-passing iterations and return final node states.

    Spatial phase first, then temporal, within every iteration.  A
    keyframe whose temporal neighborhood is empty passes through the
    temporal phase unchanged.  Attention and gate traces are collected
    only when record_traces is set.
    """
    config.validate()
    if graph.tau_c != config.tau_c or graph.tau_s != config.tau_s:
        raise ConfigError(
            f"graph built with tau_c={graph.tau_c}, tau_s={graph.tau_s} but config has "
            f"tau_c={config.tau_c}, tau_s={config.tau_s}")
    positions = sorted(kf.keyframe_pos for kf in graph.keyframes)
    states = {pos: graph.by_pos[pos].fg_states for pos in positions}
    ctx = {pos: graph.by_pos[pos].ctx_states for pos in positions}
    attention: list[AttentionRecord] = []
    gates: list[GateRecord] = []
    slot_names = [f"{fn}.head{h}" for fn in config.message_fns for h in range(config.heads)]

    for i in range(config.iterations):
        for phase in config.phases():
            where = f"iteration {i} {phase} phase"
            with ng.checked(where):
                slots = [(fn, h, message_weights(params, i, phase, fn, h))
                         for fn in config.message_fns for h in range(config.heads)]
                gate = params.get(_mp(i, phase, "gate")) if config.num_messages > 1 else None
                snapshot = dict(states)
                for pos in positions:
                    kf = graph.by_pos[pos]
                    own = snapshot[pos]
                    if phase == PHASE_SPATIAL:
                        kv = own if not kf.ctx_ids else ng.concat_rows([own, ctx[pos]])
                        kv_ids = kf.fg_ids + kf.ctx_ids
                    else:
                        nbr_pos = graph.temporal_positions(pos)
                        if not nbr_pos:
                            continue  # no temporal neighbors: phase is a no-op here
                        kv = (snapshot[nbr_pos[0]] if len(nbr_pos) == 1
                              else ng.concat_rows([snapshot[p] for p in nbr_pos]))
                        kv_ids = [j for p in nbr_pos for j in graph.by_pos[p].fg_ids]

                    messages = []
                    for fn, h, w in slots:
                        slot_fn = nonlocal_messages if fn == FN_NONLOCAL else gat_messages
                        msgs, att = slot_fn(own, kv, w)
                        messages.append(msgs)
                        if record_traces:
                            attention.extend(
                                AttentionRecord(i, phase, fn, h, node_id, list(kv_ids), row.copy())
                                for node_id, row in zip(kf.fg_ids, att.data))

                    combined, mix = combine_parallel(messages, own, gate)
                    if record_traces and config.num_messages > 1:
                        gates.extend(GateRecord(i, phase, node_id, list(slot_names), row.copy())
                                     for node_id, row in zip(kf.fg_ids, mix.data))
                    states[pos] = update_node(own, combined,
                                              params[_mp(i, phase, "norm.scale")],
                                              params[_mp(i, phase, "norm.shift")],
                                              config.ln_eps)
                    ng.check_finite(where, states[pos])

    fg_ids = {pos: list(graph.by_pos[pos].fg_ids) for pos in positions}
    return InferenceResult(fg_states=states, ctx_states=ctx, fg_ids=fg_ids,
                           attention=attention, gates=gates)
