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
from typing import NamedTuple

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

    def describe(self, row: int) -> tuple[str, Box | None, tuple[int, int] | None]:
        """(kind, box, cell) of the keyframe's node at row (see node_ids)."""
        n, (h, w) = len(self.fg_boxes), self.grid_hw
        if row < n:
            return FOREGROUND, self.fg_boxes[row], None
        if row < n + h * w:
            return CONTEXT_IMPLICIT, None, divmod(row - n, w)
        return CONTEXT_EXPLICIT, self.prop_boxes[row - n - h * w], None


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


@dataclass(eq=False)
class Block:
    """Keyframes whose row counts match, stacked: slice j is keyframe positions[j].

    fg_states is a (B, n, d) stack and ctx_states (B, h*w + p, d), with
    the grid cells of each keyframe before its proposals.  The keyframes
    may come from different clips.
    """

    positions: list[int]
    fg_states: Tensor
    ctx_states: Tensor


def project_block(frames: list[KeyframeFeatures], positions: list[int], params) -> Block:
    """Project the pooled features of same-shaped keyframes, one matmul per node kind."""
    with ng.checked("input projection"):
        fg_states = ng.matmul(Tensor(np.stack([f.fg_feats for f in frames])),
                              params[PROJ_FOREGROUND])
        ctx_states = ng.matmul(Tensor(np.stack([f.ctx_feats for f in frames])),
                               params[PROJ_CONTEXT])
        if frames[0].prop_feats is not None:
            props = ng.matmul(Tensor(np.stack([f.prop_feats for f in frames])),
                              params[PROJ_PROPOSAL])
            ctx_states = ng.concat_rows([ctx_states, props])
    ng.check_finite("input projection", fg_states, ctx_states)
    return Block(positions, fg_states, ctx_states)


def temporal_offsets(tau_c: int) -> list[int]:
    """Window offsets t for a centered window of tau_c keyframes, t != 0."""
    if tau_c < 1 or tau_c % 2 == 0:
        raise ConfigError(f"temporal window tau_c must be odd and positive, got {tau_c}")
    half = tau_c // 2
    return [t for t in range(-half, half + 1) if t != 0]


class TemporalGroup(NamedTuple):
    """Slices of one block whose keyframes read the same number s of temporal neighbour rows.

    rows[i] (s entries) indexes the foreground rows of keyframe slices[i]'s
    temporal neighbours, ascending by position, in the graph blocks'
    foreground states laid end to end.  rounds[i, c] is minus the window
    offset, in positions, through which rows[i, c] is read: the round in
    which numgrad.gather_rows' backward adds its gradient.  At one offset
    pos -> pos + t * tau_s is one-to-one, so no row repeats within a
    round; and the receivers of a row sit at ascending positions, which is
    ascending rounds, so the rounds add each row's pieces in index order.
    """

    slices: np.ndarray
    rows: np.ndarray
    rounds: np.ndarray


@dataclass(eq=False)
class SpatioTemporalGraph:
    """The keyframes of one clip or of a batch of clips, plus temporal adjacency.

    keyframes is flat: the KeyframeFeatures passed in, every clip's in order,
    clip after clip, and clips[c] is the range of clip c's positions.
    first_ids[pos] is keyframe pos's first node id (see node_ids).  Every
    foreground node attends spatially to all nodes of its own keyframe.
    temporal[pos] lists, ascending, the positions pos + t * tau_s for each
    window offset t that fall inside pos's clip; it is empty everywhere when
    tau_c is 1.  blocks group the keyframes whose row counts match and whose
    temporal neighborhoods are all empty or all not, and where[pos] is the
    (block, slice) that holds keyframe pos.  temporal_groups[k] lists the
    TemporalGroups of block k's keyframes, grouped by neighbour row count
    in order of first slice; it is empty for a block without temporal
    neighbours.
    """

    keyframes: list[KeyframeFeatures]
    first_ids: list[int]
    blocks: list[Block]
    clips: list[range]
    temporal: list[list[int]]
    where: list[tuple[int, int]]
    temporal_groups: list[list[TemporalGroup]]
    tau_c: int
    tau_s: int


def _temporal_groups(blocks: list[Block], temporal: list[list[int]]) -> list[list[TemporalGroup]]:
    """Every block's TemporalGroups, from plain lists made into arrays once per group.

    A clip or a training batch has a few keyframes of a few rows each, and
    a numpy call costs more than the handful of rows it would build:
    whole-batch array operations took twice as long as these lists on one
    clip, and won only on evaluation chunks of 16 clips.
    """
    first, n = [0] * len(temporal), [0] * len(temporal)
    at = 0
    for block in blocks:
        count, m = block.fg_states.shape[:2]
        for j, pos in enumerate(block.positions):
            first[pos], n[pos] = at + j * m, m
        at += count * m
    layout = []
    for block in blocks:
        by_width: dict[int, list[int]] = {}
        for u, pos in enumerate(block.positions):
            if temporal[pos]:
                by_width.setdefault(sum(n[q] for q in temporal[pos]), []).append(u)
        groups = []
        for width, slices in by_width.items():
            rows, rounds = [], []
            for pos in (block.positions[u] for u in slices):
                for q in temporal[pos]:
                    rows += range(first[q], first[q] + n[q])
                    rounds += [pos - q] * n[q]
            shape = (len(slices), width)
            groups.append(TemporalGroup(np.array(slices), np.array(rows).reshape(shape),
                                        np.array(rounds).reshape(shape)))
        layout.append(groups)
    return layout


def build_batch(clips: list[list[KeyframeFeatures]], params, config) -> SpatioTemporalGraph:
    """Assemble one graph over the keyframes of several clips.

    Keyframes are positioned by list order, clip after clip; temporal
    strides count positions inside a clip, not raw keyframe ids.
    Keyframes with the same numbers of boxes, grid cells and proposals
    share a block, whichever clip they belong to, unless one has temporal
    neighbors and the other none; a block's keyframes are projected
    together, and blocks are never padded.
    """
    if not clips or not all(clips):
        raise ValidationError("graph needs at least one keyframe with foreground nodes "
                              "in every clip")
    if config.tau_s < 1:
        raise ConfigError(f"temporal stride tau_s must be positive, got {config.tau_s}")
    offsets = [t * config.tau_s for t in temporal_offsets(config.tau_c)]
    ends = np.cumsum([len(c) for c in clips]).tolist()
    spans = [range(end - len(clip), end) for end, clip in zip(ends, clips)]
    temporal = [[pos + t for t in offsets if pos + t in span] for span in spans for pos in span]
    frames = [f for clip in clips for f in clip]
    shapes: dict[tuple[int, int, int, bool], list[int]] = {}
    for pos, f in enumerate(frames):
        if f.fg_feats.shape[0] == 0:
            raise ValidationError(f"keyframe {f.keyframe_id}: no foreground boxes")
        props = 0 if f.prop_feats is None else f.prop_feats.shape[0]
        key = (f.fg_feats.shape[0], f.ctx_feats.shape[0], props, bool(temporal[pos]))
        shapes.setdefault(key, []).append(pos)
    blocks = [project_block([frames[p] for p in positions], positions, params)
              for positions in shapes.values()]
    where = [(0, 0)] * len(frames)
    for k, positions in enumerate(shapes.values()):
        for j, pos in enumerate(positions):
            where[pos] = (k, j)
    sizes = [len(f.fg_boxes) + f.ctx_feats.shape[0] + len(f.prop_boxes) for f in frames]
    first_ids = [sum(sizes[span.start:pos]) for span in spans for pos in span]
    return SpatioTemporalGraph(frames, first_ids, blocks, spans, temporal, where,
                               _temporal_groups(blocks, temporal),
                               config.tau_c, config.tau_s)


def node_ids(graph: SpatioTemporalGraph, pos: int, context: bool = False) -> list[int]:
    """Ids of keyframe pos's foreground nodes, then, with context, of its context nodes.

    A clip's ids run from 0 keyframe by keyframe, each over its boxes, grid
    cells (row-major) and proposals; describe(id - first_ids[pos]) names one.
    """
    f = graph.keyframes[pos]
    count = len(f.fg_boxes) + (f.ctx_feats.shape[0] + len(f.prop_boxes) if context else 0)
    return list(range(graph.first_ids[pos], graph.first_ids[pos] + count))


def build_graph(frames: list[KeyframeFeatures], params, config) -> SpatioTemporalGraph:
    """Assemble the graph for one clip: a batch of one."""
    return build_batch([frames], params, config)
