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


@dataclass
class KeyframeNodes:
    """Metadata of one keyframe, and where its states live.

    Ids run from first_id over the foreground boxes, then the grid cells
    (row-major), then the proposals; they restart at 0 in every clip.
    The keyframe's states are slice ``slot`` of ``block``.
    """

    keyframe_id: int
    first_id: int
    fg_boxes: list[Box]
    grid_hw: tuple[int, int]
    prop_boxes: list[Box]
    block: Block
    slot: int

    @property
    def fg_states(self) -> Tensor:
        """Projected foreground states (n, d): a view of the block, on no tape."""
        return Tensor(self.block.fg_states.data[self.slot])

    @property
    def ctx_states(self) -> Tensor:
        """Projected context states (h*w + p, d): a view of the block, on no tape."""
        return Tensor(self.block.ctx_states.data[self.slot])

    @property
    def fg_ids(self) -> list[int]:
        return list(range(self.first_id, self.first_id + len(self.fg_boxes)))

    @property
    def ctx_ids(self) -> list[int]:
        (h, w), start = self.grid_hw, self.first_id + len(self.fg_boxes)
        return list(range(start, start + h * w + len(self.prop_boxes)))

    def describe(self, row: int) -> tuple[str, Box | None, tuple[int, int] | None]:
        """(kind, box, cell) of the node with id first_id + row."""
        n, (h, w) = len(self.fg_boxes), self.grid_hw
        if row < n:
            return FOREGROUND, self.fg_boxes[row], None
        if row < n + h * w:
            return CONTEXT_IMPLICIT, None, divmod(row - n, w)
        return CONTEXT_EXPLICIT, self.prop_boxes[row - n - h * w], None


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


class SpatioTemporalGraph:
    """The keyframes of one clip or of a batch of clips, plus temporal adjacency.

    keyframes is flat: every clip's keyframes in order, clip after clip,
    and clips[c] is the range of clip c's positions.  Every foreground node
    attends spatially to all nodes of its own keyframe.  temporal[pos]
    lists, ascending, the positions pos + t * tau_s for each window offset
    t that fall inside pos's clip; it is empty everywhere when tau_c is 1.
    blocks group the keyframes whose row counts match, and where[pos] is
    the (block, slice) that holds keyframe pos.
    """

    def __init__(self, keyframes: list[KeyframeNodes], blocks: list[Block],
                 clip_sizes: list[int], tau_c: int, tau_s: int):
        if not keyframes or 0 in clip_sizes or sum(clip_sizes) != len(keyframes):
            raise ValidationError("graph needs at least one keyframe with foreground nodes "
                                  "in every clip")
        if tau_s < 1:
            raise ConfigError(f"temporal stride tau_s must be positive, got {tau_s}")
        offsets = temporal_offsets(tau_c)
        self.keyframes = list(keyframes)
        self.blocks = list(blocks)
        self.tau_c = tau_c
        self.tau_s = tau_s
        ends = np.cumsum(clip_sizes).tolist()
        self.clips = [range(end - size, end) for end, size in zip(ends, clip_sizes)]
        self.temporal = [[pos + t * tau_s for t in offsets if pos + t * tau_s in clip]
                         for clip in self.clips for pos in clip]
        self.where = [(0, 0)] * len(self.keyframes)
        for k, block in enumerate(self.blocks):
            for j, pos in enumerate(block.positions):
                self.where[pos] = (k, j)


def build_batch(clips: list[list[KeyframeFeatures]], params, config) -> SpatioTemporalGraph:
    """Assemble one graph over the keyframes of several clips.

    Keyframes are positioned by list order, clip after clip; temporal
    strides count positions inside a clip, not raw keyframe ids.
    Keyframes with the same numbers of boxes, grid cells and proposals
    share a block, whichever clip they belong to, and are projected
    together; blocks are never padded.
    """
    frames = [f for clip in clips for f in clip]
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for pos, f in enumerate(frames):
        if f.fg_feats.shape[0] == 0:
            raise ValidationError(f"keyframe {f.keyframe_id}: no foreground boxes")
        props = 0 if f.prop_feats is None else f.prop_feats.shape[0]
        shapes.setdefault((f.fg_feats.shape[0], f.ctx_feats.shape[0], props), []).append(pos)
    blocks = [project_block([frames[p] for p in positions], positions, params)
              for positions in shapes.values()]
    slot_of = {pos: (block, j) for block in blocks for j, pos in enumerate(block.positions)}
    keyframes = []
    for clip in clips:
        next_id = 0
        for f in clip:
            block, j = slot_of[len(keyframes)]
            keyframes.append(KeyframeNodes(
                keyframe_id=f.keyframe_id, first_id=next_id, fg_boxes=list(f.fg_boxes),
                grid_hw=f.grid_hw, prop_boxes=list(f.prop_boxes), block=block, slot=j))
            next_id += len(f.fg_boxes) + f.ctx_feats.shape[0] + len(f.prop_boxes)
    return SpatioTemporalGraph(keyframes, blocks, [len(c) for c in clips],
                               config.tau_c, config.tau_s)


def build_graph(frames: list[KeyframeFeatures], params, config) -> SpatioTemporalGraph:
    """Assemble the graph for one clip: a batch of one."""
    return build_batch([frames], params, config)
