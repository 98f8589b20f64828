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
scores all K message slots of every receiver as a (B, n, K) stack.  The
spatial phase runs on the graph's blocks.  The temporal phase gathers
each receiver's neighbor rows into (B, s, d) stacks, grouping keyframes
by (n, s), so edge and interior keyframes form separate blocks, and then
gathers the updated states back into the graph's blocks.  The additive
scores relu(a . [h_v || h_j]) are evaluated as relu(h_v . a1 + h_j . a2),
a column plus a row, so no per-receiver pair matrix is ever built.  Each
slot, the gate and the residual update is one fused numgrad primitive per
block, so the tape grows with iterations x phases x blocks x slots, not
with the number of keyframes, clips or nodes.  Per-node Python runs only
to copy attention and gate rows into trace records.

Each (iteration, phase) runs inside one numgrad.checked span, and its
updated states are checked for finiteness once, so a NaN or infinity
raises NumericError naming the iteration and phase where it arose.

Parameters are stored in a flat name -> Tensor mapping and are untied:
every (iteration, phase, function, head) tuple owns its own weights.
"""

import math
from dataclasses import dataclass, asdict
from functools import cached_property

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

_INT_FIELDS = ("state_dim", "heads", "iterations", "tau_c", "tau_s", "feature_channels",
               "action_classes", "object_classes", "relation_classes", "seed")


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
        if isinstance(self.message_fns, list):
            object.__setattr__(self, "message_fns", tuple(self.message_fns))

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if (isinstance(self.ln_eps, bool) or not isinstance(self.ln_eps, (int, float))
                or not math.isfinite(self.ln_eps) or self.ln_eps <= 0):
            raise ConfigError(f"ln_eps must be a finite positive number, got {self.ln_eps!r}")
        if (not isinstance(self.message_fns, tuple)
                or not all(isinstance(fn, str) for fn in self.message_fns)):
            raise ConfigError(f"message_fns must be a list of strings, got {self.message_fns!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        return cls(**d)


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


def _check_neighbors(what: str, receivers: Tensor, neighbors) -> None:
    stacks = [neighbors] if isinstance(neighbors, Tensor) else [t for _, t in neighbors]
    if receivers.ndim not in (2, 3) or any(t.ndim not in (2, 3) for t in stacks):
        raise ValidationError(f"{what} expects state matrices or stacks")
    if any(t.shape[-2] == 0 for t in stacks):
        raise ValidationError(f"{what}: empty neighborhood")


def nonlocal_messages(query_states: Tensor, key_value_states,
                      weights: NonLocalWeights) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention messages.

    Queries come from the receiving states, keys and values from the
    neighbor states.  Returns (messages (n, d), attention (n, s)) with
    each attention row summing to one, or (B, n, d) and (B, n, s) for
    stacks of B keyframes.  For a stack, key_value_states may be a list of
    (slices, neighbor stack) pairs, one per neighbor count, and the
    attention is then one stack per pair (see numgrad.nonlocal_attention).
    """
    _check_neighbors("nonlocal_messages", query_states, key_value_states)
    return ng.nonlocal_attention(query_states, key_value_states,
                                 weights.query, weights.key, weights.value)


def gat_messages(receivers: Tensor, neighbor_states,
                 weights: GatWeights) -> tuple[Tensor, Tensor]:
    """Additive attention messages for every receiving node at once.

    The score of receiver v for neighbor j is relu(score . [h_v || h_j]),
    computed as relu(h_v . a1 + h_j . a2) with score = [a1 || a2] so that
    it broadcasts to an (n, s) matrix; rows are normalized with a softmax
    and each message is relu of the transformed attention-weighted sum.
    Returns (messages (n, d), attention (n, s)), or stacks of them;
    neighbor_states may be a list of pairs, as for nonlocal_messages.
    """
    _check_neighbors("gat_messages", receivers, neighbor_states)
    return ng.additive_attention(receivers, neighbor_states, weights.transform, weights.score)


def combine_parallel(messages: list[Tensor], receivers: Tensor,
                     gate: Tensor | None) -> tuple[Tensor, Tensor]:
    """Per-receiver convex combination of parallel messages, by a learned gate.

    For receiver v, weight k is softmax over k of relu(gate . [h_v || m_k]),
    computed as relu(h_v . g1 + m_k . g2) with gate = [g1 || g2].  Each
    message is an (n, d) matrix with one row per receiver, or a stack of
    them.  Returns (combined (n, d), weights (n, K)), or stacks; a single
    message is returned unchanged with weights of one.
    """
    if not messages:
        raise ValidationError("combine_parallel: no messages")
    if len(messages) == 1 and gate is None:
        return messages[0], Tensor(np.ones(receivers.shape[:-1] + (1,)))
    if gate is None:
        raise ValidationError("combine_parallel: gate vector required for parallel messages")
    return ng.gated_mix(messages, receivers, gate)


def update_node(state: Tensor, message: Tensor, scale: Tensor, shift: Tensor,
                eps: float = 1e-5) -> Tensor:
    """Residual update followed by layer normalization.

    With a zero message this is layer_norm(state), not the identity.
    """
    return ng.residual_layer_norm(state, message, scale, shift, eps)


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


class InferenceResult:
    """Final foreground states, one stack per graph block, plus traces.

    states[k] is the (B, n, d) stack of graph.blocks[k].  fg_states and
    ctx_states map each flat position to its own (n, d) tensor.  They are
    made on first access: views of the stacks, or, under an active tape,
    one split entry per position, through which gradients reach the stack.
    """

    def __init__(self, graph: SpatioTemporalGraph, states: list[Tensor],
                 attention: list[AttentionRecord], gates: list[GateRecord]):
        self.graph = graph
        self.states = states
        self.attention = attention
        self.gates = gates

    @cached_property
    def fg_states(self) -> dict[int, Tensor]:
        return _by_position(self.graph, self.states)

    @cached_property
    def ctx_states(self) -> dict[int, Tensor]:
        return _by_position(self.graph, [b.ctx_states for b in self.graph.blocks])


def _by_position(graph: SpatioTemporalGraph, stacks: list[Tensor]) -> dict[int, Tensor]:
    slices = {}
    for block, stack in zip(graph.blocks, stacks):
        slices.update(zip(block.positions, ng.unstack(stack)))
    return dict(sorted(slices.items()))


@dataclass
class TemporalBlock:
    """Keyframes with temporal neighbors and n receivers each, run as one stack.

    Rows count the foreground rows of the graph's blocks laid end to end.
    receivers gives the rows of the keyframes' states (B, n), or the index
    of the graph block that holds exactly these keyframes, in order.
    neighbors pairs the slices that share a neighbor count s with the rows
    of their neighbors' states (slices, s).
    """

    positions: list[int]
    receivers: np.ndarray | int
    neighbors: list[tuple[np.ndarray, np.ndarray]]


def _take(sources: list[Tensor], rows: np.ndarray | int) -> Tensor:
    """Rows of the sources laid end to end, or a whole source given by its index."""
    return sources[rows] if isinstance(rows, int) else ng.gather_rows(sources, rows)


def _temporal_layout(graph: SpatioTemporalGraph):
    """The temporal blocks, and for each graph block how to rebuild it after the phase.

    A graph block is rebuilt from [temporal block outputs..., its own
    states before the phase]: from the rows given, or, given an index, as
    that source whole.
    """
    starts = np.cumsum([0] + [b.fg_states.shape[0] * b.fg_states.shape[1]
                              for b in graph.blocks]).tolist()

    def rows(pos, start=None):
        """Rows of keyframe pos's states, in the graph's blocks laid end to end
        or in a copy of its own block whose first row is start."""
        k, j = graph.where[pos]
        n = graph.blocks[k].fg_states.shape[1]
        return (starts[k] if start is None else start) + j * n + np.arange(n)

    by_n: dict[int, list[int]] = {}
    for pos, nbrs in enumerate(graph.temporal):
        if nbrs:
            by_n.setdefault(len(graph.keyframes[pos].fg_boxes), []).append(pos)
    blocks, out_rows, at = [], {}, 0
    for n, positions in by_n.items():
        by_s: dict[int, list[int]] = {}
        for u, pos in enumerate(positions):
            s = sum(len(graph.keyframes[q].fg_boxes) for q in graph.temporal[pos])
            by_s.setdefault(s, []).append(u)
        neighbors = [(np.array(slices),
                      np.stack([np.concatenate([rows(q) for q in graph.temporal[positions[u]]])
                                for u in slices]))
                     for slices in by_s.values()]
        k = graph.where[positions[0]][0]
        receivers = (k if graph.blocks[k].positions == positions
                     else np.stack([rows(p) for p in positions]))
        blocks.append(TemporalBlock(positions, receivers, neighbors))
        for pos in positions:
            out_rows[pos] = at + np.arange(n)
            at += n
    merges = []
    for b in graph.blocks:
        same = [t for t, block in enumerate(blocks) if block.positions == b.positions]
        if same or not any(p in out_rows for p in b.positions):
            merges.append(same[0] if same else len(blocks))
        else:
            merges.append(np.stack([out_rows[p] if p in out_rows else rows(p, at)
                                    for p in b.positions]))
    return blocks, merges


def _slice_rows(kv, attention, count: int) -> list[np.ndarray]:
    """Each slice's attention matrix, from one stack or from one per neighbor group."""
    if isinstance(kv, Tensor):
        return list(attention.data)
    rows = [None] * count
    for (slices, _), att in zip(kv, attention):
        for u, matrix in zip(slices, att.data):
            rows[u] = matrix
    return rows


def _keyframe_traces(graph: SpatioTemporalGraph, iteration: int, phase: str, pos: int,
                     slots, attention: list[np.ndarray], mix: np.ndarray | None):
    """Attention records, slot by slot and node by node, and gate records of one keyframe."""
    kf = graph.keyframes[pos]
    if phase == PHASE_SPATIAL:
        kv_ids = kf.fg_ids + kf.ctx_ids
    else:
        kv_ids = [j for p in graph.temporal[pos] for j in graph.keyframes[p].fg_ids]
    records = [AttentionRecord(iteration, phase, fn, h, node_id, list(kv_ids), row.copy())
               for (fn, h, _), rows in zip(slots, attention)
               for node_id, row in zip(kf.fg_ids, rows)]
    if mix is None:
        return records, []
    names = [f"{fn}.head{h}" for fn, h, _ in slots]
    return records, [GateRecord(iteration, phase, node_id, list(names), row.copy())
                     for node_id, row in zip(kf.fg_ids, mix)]


def run_inference(graph: SpatioTemporalGraph, params, config: ModelConfig,
                  record_traces: bool = False) -> InferenceResult:
    """Run all message-passing iterations and return final node states.

    Spatial phase first, then temporal, within every iteration.  A
    keyframe whose temporal neighborhood is empty passes through the
    temporal phase unchanged.  Attention and gate traces are collected
    only when record_traces is set, in the order iteration, phase,
    keyframe, function, head, node.
    """
    config.validate()
    if graph.tau_c != config.tau_c or graph.tau_s != config.tau_s:
        raise ConfigError(
            f"graph built with tau_c={graph.tau_c}, tau_s={graph.tau_s} but config has "
            f"tau_c={config.tau_c}, tau_s={config.tau_s}")
    states = [b.fg_states for b in graph.blocks]
    temporal, merges = _temporal_layout(graph) if config.tau_c > 1 else ([], [])
    attention: list[AttentionRecord] = []
    gates: list[GateRecord] = []

    for i in range(config.iterations):
        for phase in config.phases():
            where = f"iteration {i} {phase} phase"
            traced: dict[int, tuple[list, list]] = {}
            with ng.checked(where):
                slots = [(fn, h, message_weights(params, i, phase, fn, h))
                         for fn in config.message_fns for h in range(config.heads)]
                gate = params.get(_mp(i, phase, "gate")) if config.num_messages > 1 else None
                if phase == PHASE_SPATIAL:
                    blocks = [(b.positions, own, ng.concat_rows([own, b.ctx_states]))
                              for b, own in zip(graph.blocks, states)]
                else:
                    blocks = [(t.positions, _take(states, t.receivers),
                               [(slices, ng.gather_rows(states, rows))
                                for slices, rows in t.neighbors])
                              for t in temporal]
                updated = []
                for positions, own, kv in blocks:
                    messages, atts = [], []
                    for fn, h, w in slots:
                        slot_fn = nonlocal_messages if fn == FN_NONLOCAL else gat_messages
                        msgs, att = slot_fn(own, kv, w)
                        messages.append(msgs)
                        if record_traces:
                            atts.append(_slice_rows(kv, att, len(positions)))
                    combined, mix = combine_parallel(messages, own, gate)
                    if record_traces:
                        for u, pos in enumerate(positions):
                            traced[pos] = _keyframe_traces(
                                graph, i, phase, pos, slots, [a[u] for a in atts],
                                None if gate is None else mix.data[u])
                    updated.append(update_node(own, combined,
                                               params[_mp(i, phase, "norm.scale")],
                                               params[_mp(i, phase, "norm.shift")],
                                               config.ln_eps))
                if phase == PHASE_SPATIAL:
                    states = updated
                else:
                    states = [_take(updated + [own], rows) for own, rows in zip(states, merges)]
            ng.check_finite(where, *states)
            for pos in sorted(traced):
                attention.extend(traced[pos][0])
                gates.extend(traced[pos][1])

    return InferenceResult(graph, states, attention, gates)
