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


@dataclass
class KeyframeNodes:
    """Projected node states and metadata for one keyframe.

    Ids run from first_id over the foreground boxes, then the grid cells
    (row-major), then the proposals.  ctx_states rows follow the same
    order: implicit cells first, proposals after.
    """

    keyframe_id: int
    first_id: int
    fg_states: Tensor   # (n, d)
    ctx_states: Tensor  # (h*w + p, d)
    fg_boxes: list[Box]
    grid_hw: tuple[int, int]
    prop_boxes: list[Box]

    @property
    def fg_ids(self) -> list[int]:
        return list(range(self.first_id, self.first_id + self.fg_states.shape[0]))

    @property
    def ctx_ids(self) -> list[int]:
        start = self.first_id + self.fg_states.shape[0]
        return list(range(start, start + self.ctx_states.shape[0]))

    def describe(self, row: int) -> tuple[str, Box | None, tuple[int, int] | None]:
        """(kind, box, cell) of the node with id first_id + row."""
        n, (h, w) = len(self.fg_boxes), self.grid_hw
        if row < n:
            return FOREGROUND, self.fg_boxes[row], None
        if row < n + h * w:
            return CONTEXT_IMPLICIT, None, divmod(row - n, w)
        return CONTEXT_EXPLICIT, self.prop_boxes[row - n - h * w], None


def project_keyframe(feats: KeyframeFeatures, params, first_id: int = 0) -> KeyframeNodes:
    """Project pooled features into state space; node ids start at first_id."""
    if feats.fg_feats.shape[0] == 0:
        raise ValidationError(f"keyframe {feats.keyframe_id}: no foreground boxes")
    with ng.checked("input projection"):
        fg_states = ng.matmul(Tensor(feats.fg_feats), params[PROJ_FOREGROUND])
        ctx_parts = [ng.matmul(Tensor(feats.ctx_feats), params[PROJ_CONTEXT])]
        if feats.prop_feats is not None:
            ctx_parts.append(ng.matmul(Tensor(feats.prop_feats), params[PROJ_PROPOSAL]))
        ctx_states = ctx_parts[0] if len(ctx_parts) == 1 else ng.concat_rows(ctx_parts)
    ng.check_finite("input projection", fg_states, ctx_states)
    return KeyframeNodes(
        keyframe_id=feats.keyframe_id,
        first_id=first_id,
        fg_states=fg_states,
        ctx_states=ctx_states,
        fg_boxes=list(feats.fg_boxes),
        grid_hw=feats.grid_hw,
        prop_boxes=list(feats.prop_boxes),
    )


def temporal_offsets(tau_c: int) -> list[int]:
    """Window offsets t for a centered window of tau_c keyframes, t != 0."""
    if tau_c < 1 or tau_c % 2 == 0:
        raise ConfigError(f"temporal window tau_c must be odd and positive, got {tau_c}")
    half = tau_c // 2
    return [t for t in range(-half, half + 1) if t != 0]


class SpatioTemporalGraph:
    """The keyframes of one clip, by position, plus temporal adjacency.

    Every foreground node attends spatially to all nodes of its own
    keyframe.  temporal[pos] lists, ascending, the positions pos + t * tau_s
    for each window offset t that fall inside the clip; it is empty
    everywhere when tau_c is 1.
    """

    def __init__(self, keyframes: list[KeyframeNodes], tau_c: int, tau_s: int):
        if not keyframes:
            raise ValidationError("graph needs at least one keyframe with foreground nodes")
        if tau_s < 1:
            raise ConfigError(f"temporal stride tau_s must be positive, got {tau_s}")
        offsets = temporal_offsets(tau_c)
        self.keyframes = list(keyframes)
        self.tau_c = tau_c
        self.tau_s = tau_s
        count = len(self.keyframes)
        self.temporal = [[pos + t * tau_s for t in offsets if 0 <= pos + t * tau_s < count]
                         for pos in range(count)]


def build_graph(frames: list[KeyframeFeatures], params, config) -> SpatioTemporalGraph:
    """Assemble the graph for one clip from per-keyframe pooled features.

    Keyframes are positioned by list order; temporal strides count list
    positions, not raw keyframe ids.
    """
    keyframes = []
    next_id = 0
    for feats in frames:
        kf = project_keyframe(feats, params, first_id=next_id)
        next_id += kf.fg_states.shape[0] + kf.ctx_states.shape[0]
        keyframes.append(kf)
    return SpatioTemporalGraph(keyframes, config.tau_c, config.tau_s)
