"""Spatio-temporal graphs over per-keyframe feature grids.

A clip is an ordered list of keyframes.  Each keyframe contributes
foreground nodes (one per annotated or detected box), implicit context
nodes (one per spatial cell of the temporally averaged grid), and
explicit context nodes (one per region proposal).  Foreground nodes are
the only ones that receive messages; context nodes only send.

Spatial neighborhoods connect every foreground node to all nodes of its
own keyframe, itself included.  Temporal neighborhoods connect foreground
nodes to the foreground nodes of keyframes at stride tau_s inside a
window of tau_c keyframes centered on their own.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, ValidationError
from .numgrad import Tensor

FOREGROUND = "foreground"
CONTEXT_IMPLICIT = "context_implicit"
CONTEXT_EXPLICIT = "context_explicit"

# input projection parameter names, one matrix per node kind
PROJ_FOREGROUND = "input.foreground.weight"
PROJ_CONTEXT = "input.context.weight"
PROJ_PROPOSAL = "input.proposal.weight"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in normalized image coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(np.isfinite(v) for v in vals):
            raise ValidationError(f"box coordinates must be finite, got {vals}")
        if not (0.0 <= self.x1 and self.x2 <= 1.0 and 0.0 <= self.y1 and self.y2 <= 1.0):
            raise ValidationError(f"box coordinates must lie in [0, 1], got {vals}")
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValidationError(f"degenerate box: need x1 < x2 and y1 < y2, got {vals}")

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class FeatureGrid:
    """Backbone features for one keyframe: shape (t, h, w, c)."""

    values: Tensor
    keyframe_id: int

    def __post_init__(self):
        if self.values.ndim != 4:
            raise ValidationError(f"feature grid must be 4-d (t, h, w, c), got {self.values.shape}")
        if min(self.values.shape) < 1:
            raise ValidationError(f"feature grid axes must be nonempty, got {self.values.shape}")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.values.shape


@dataclass
class Node:
    node_id: int
    kind: str
    keyframe_pos: int
    keyframe_id: int
    box: Box | None = None
    cell: tuple[int, int] | None = None


def pool_box_features(grid: FeatureGrid, box: Box) -> np.ndarray:
    """Average grid features over the cells whose centers fall in the box.

    The mean runs over every time step and every covered cell.  A box too
    small to contain any cell center falls back to the single cell whose
    center is nearest the box center (row-major on ties).
    """
    arr = grid.values.data
    t, h, w, c = arr.shape
    cx = (np.arange(w) + 0.5) / w
    cy = (np.arange(h) + 0.5) / h
    in_x = (cx >= box.x1) & (cx <= box.x2)
    in_y = (cy >= box.y1) & (cy <= box.y2)
    mask = np.outer(in_y, in_x)
    if mask.any():
        return arr[:, mask, :].mean(axis=(0, 1))
    bx, by = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
    d2 = (cy[:, None] - by) ** 2 + (cx[None, :] - bx) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return arr[:, i, j, :].mean(axis=0)


def grid_cell_features(grid: FeatureGrid) -> np.ndarray:
    """Temporally averaged features per cell, row-major, shape (h*w, c)."""
    arr = grid.values.data
    t, h, w, c = arr.shape
    return arr.mean(axis=0).reshape(h * w, c)


@dataclass
class KeyframeFeatures:
    """Pooled inputs for one keyframe, before projection to state space."""

    keyframe_id: int
    fg_boxes: list[Box]
    fg_feats: np.ndarray        # (n, c)
    ctx_feats: np.ndarray       # (h*w, c)
    grid_hw: tuple[int, int]
    prop_boxes: list[Box] = field(default_factory=list)
    prop_feats: np.ndarray | None = None  # (p, c)


def featurize_keyframe(grid: FeatureGrid, fg_boxes, proposals=()) -> KeyframeFeatures:
    """Pool per-box and per-cell features for one keyframe."""
    t, h, w, c = grid.shape
    fg_boxes = list(fg_boxes)
    proposals = list(proposals)
    fg = (
        np.stack([pool_box_features(grid, b) for b in fg_boxes])
        if fg_boxes
        else np.zeros((0, c))
    )
    props = np.stack([pool_box_features(grid, b) for b in proposals]) if proposals else None
    return KeyframeFeatures(
        keyframe_id=grid.keyframe_id,
        fg_boxes=fg_boxes,
        fg_feats=fg,
        ctx_feats=grid_cell_features(grid),
        grid_hw=(h, w),
        prop_boxes=proposals,
        prop_feats=props,
    )


@dataclass
class KeyframeNodes:
    """Projected node states and metadata for one keyframe.

    Context rows are ordered implicit cells first (row-major), proposals
    after, matching ctx_states row order.
    """

    keyframe_pos: int
    keyframe_id: int
    nodes: list[Node]
    fg_ids: list[int]
    ctx_ids: list[int]
    fg_states: Tensor   # (n, d)
    ctx_states: Tensor  # (m, d)
    fg_boxes: list[Box]


def project_keyframe(feats: KeyframeFeatures, params, keyframe_pos: int = 0, id_start: int = 0) -> KeyframeNodes:
    """Project pooled features into state space and number the nodes."""
    if feats.fg_feats.shape[0] == 0:
        raise ValidationError(f"keyframe {feats.keyframe_id}: no foreground boxes")
    with ng.checked("input projection"):
        fg_states = ng.matmul(Tensor(feats.fg_feats), params[PROJ_FOREGROUND])
        ctx_parts = [ng.matmul(Tensor(feats.ctx_feats), params[PROJ_CONTEXT])]
        if feats.prop_feats is not None:
            ctx_parts.append(ng.matmul(Tensor(feats.prop_feats), params[PROJ_PROPOSAL]))
        ctx_states = ctx_parts[0] if len(ctx_parts) == 1 else ng.concat_rows(ctx_parts)
    ng.check_finite("input projection", fg_states, ctx_states)

    h, w = feats.grid_hw
    nodes: list[Node] = []
    next_id = id_start
    for box in feats.fg_boxes:
        nodes.append(Node(next_id, FOREGROUND, keyframe_pos, feats.keyframe_id, box=box))
        next_id += 1
    for cell in range(h * w):
        nodes.append(Node(next_id, CONTEXT_IMPLICIT, keyframe_pos, feats.keyframe_id,
                          cell=(cell // w, cell % w)))
        next_id += 1
    for box in feats.prop_boxes:
        nodes.append(Node(next_id, CONTEXT_EXPLICIT, keyframe_pos, feats.keyframe_id, box=box))
        next_id += 1

    n = len(feats.fg_boxes)
    ids = [nd.node_id for nd in nodes]
    return KeyframeNodes(
        keyframe_pos=keyframe_pos,
        keyframe_id=feats.keyframe_id,
        nodes=nodes,
        fg_ids=ids[:n],
        ctx_ids=ids[n:],
        fg_states=fg_states,
        ctx_states=ctx_states,
        fg_boxes=list(feats.fg_boxes),
    )


def init_nodes(grid: FeatureGrid, fg_boxes, proposals, params, config) -> KeyframeNodes:
    """Pool and project all nodes of a single keyframe."""
    return project_keyframe(featurize_keyframe(grid, fg_boxes, proposals), params)


def build_spatial_neighborhoods(nodes: list[Node]) -> dict[int, list[int]]:
    """Within one keyframe: foreground attends to every node, itself included."""
    fg = [n.node_id for n in nodes if n.kind == FOREGROUND]
    ctx = [n.node_id for n in nodes if n.kind != FOREGROUND]
    everyone = fg + ctx
    adj = {i: list(everyone) for i in fg}
    adj.update({j: [] for j in ctx})
    return adj


def temporal_offsets(tau_c: int) -> list[int]:
    """Window offsets t for a centered window of tau_c keyframes, t != 0."""
    if tau_c < 1 or tau_c % 2 == 0:
        raise ConfigError(f"temporal window tau_c must be odd and positive, got {tau_c}")
    half = tau_c // 2
    return [t for t in range(-half, half + 1) if t != 0]


def build_temporal_neighborhoods(fg_ids_by_pos: dict[int, list[int]], num_positions: int,
                                 tau_c: int, tau_s: int) -> dict[int, list[int]]:
    """Foreground-to-foreground adjacency across keyframes.

    Node at position k connects to foreground nodes at positions
    k + t * tau_s for each window offset t; positions outside the clip are
    dropped.  tau_c = 1 yields empty neighborhoods everywhere.
    """
    if tau_s < 1:
        raise ConfigError(f"temporal stride tau_s must be positive, got {tau_s}")
    offsets = temporal_offsets(tau_c)
    adj: dict[int, list[int]] = {}
    for pos, ids in fg_ids_by_pos.items():
        nbrs: list[int] = []
        for t in offsets:
            other = pos + t * tau_s
            if 0 <= other < num_positions:
                nbrs.extend(fg_ids_by_pos.get(other, []))
        for i in ids:
            adj[i] = list(nbrs)
    return adj


class SpatioTemporalGraph:
    """All nodes of one clip plus spatial and temporal adjacency."""

    def __init__(self, keyframes: list[KeyframeNodes], num_positions: int, tau_c: int, tau_s: int):
        if not keyframes:
            raise ValidationError("graph needs at least one keyframe with foreground nodes")
        self.keyframes = list(keyframes)
        self.num_positions = num_positions
        self.tau_c = tau_c
        self.tau_s = tau_s
        self.by_pos = {kf.keyframe_pos: kf for kf in self.keyframes}
        self.nodes: dict[int, Node] = {}
        self.spatial: dict[int, list[int]] = {}
        for kf in self.keyframes:
            for node in kf.nodes:
                self.nodes[node.node_id] = node
            self.spatial.update(build_spatial_neighborhoods(kf.nodes))
        fg_by_pos = {kf.keyframe_pos: kf.fg_ids for kf in self.keyframes}
        self.temporal = build_temporal_neighborhoods(fg_by_pos, num_positions, tau_c, tau_s)
        for kf in self.keyframes:
            for j in kf.ctx_ids:
                self.temporal[j] = []

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def spatial_neighbors(self, node_id: int) -> list[int]:
        return self.spatial[node_id]

    def temporal_neighbors(self, node_id: int) -> list[int]:
        return self.temporal[node_id]

    def temporal_positions(self, pos: int) -> list[int]:
        """Populated neighbor positions of pos, ascending; [] when tau_c is 1."""
        out = []
        for t in temporal_offsets(self.tau_c):
            other = pos + t * self.tau_s
            if 0 <= other < self.num_positions and other in self.by_pos:
                out.append(other)
        return out

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_graph(frames: list[KeyframeFeatures], params, config) -> SpatioTemporalGraph:
    """Assemble the graph for one clip from per-keyframe pooled features.

    Keyframes are positioned by list order; temporal strides count list
    positions, not raw keyframe ids.
    """
    keyframes = []
    next_id = 0
    for pos, feats in enumerate(frames):
        kf = project_keyframe(feats, params, keyframe_pos=pos, id_start=next_id)
        next_id += len(kf.nodes)
        keyframes.append(kf)
    return SpatioTemporalGraph(keyframes, len(frames), config.tau_c, config.tau_s)
