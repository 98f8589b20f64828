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

Who attends to whom is fixed by the boxes, the grid cells and the window,
never by the weights, so build_batch lays a batch out once, in one pass
over its keyframes, and checks each block's neighbour layout there (see
SpatioTemporalGraph); message passing then reads the layouts unchecked.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
        if not all(map(math.isfinite, vals)):
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


@lru_cache(maxsize=64)
def _cell_centers(n: int) -> tuple[float, ...]:
    """Centers of n equal cells across [0, 1], ascending."""
    return tuple(((np.arange(n) + 0.5) / n).tolist())


def _pool_boxes(grid: FeatureGrid, boxes) -> np.ndarray:
    """Average grid features over the cells whose centers fall in each box, shape (n, c).

    The mean runs over every time step and every covered cell.  A box too
    small to contain any cell center falls back to the single cell whose
    center is nearest the box center (row-major on ties).  A box's values
    are added cell by cell in row-major order, each cell's time steps in
    turn, and then divided by their count.
    """
    arr = grid.values.data
    t, h, w, c = arr.shape
    xs, ys = _cell_centers(w), _cell_centers(h)
    cells = arr.transpose(1, 2, 0, 3)  # (h, w, t, c)
    out = np.empty((len(boxes), c))
    for b, box in enumerate(boxes):
        # the centers ascend, so the box covers rows [i0, i1) times columns [j0, j1)
        i0, i1 = bisect_left(ys, box.y1), bisect_right(ys, box.y2)
        j0, j1 = bisect_left(xs, box.x1), bisect_right(xs, box.x2)
        if i0 == i1 or j0 == j1:
            bx, by = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
            d2 = (np.array(ys)[:, None] - by) ** 2 + (np.array(xs)[None, :] - bx) ** 2
            i0, j0 = divmod(int(np.argmin(d2)), w)
            i1, j1 = i0 + 1, j0 + 1
        region = cells[i0:i1, j0:j1].reshape(-1, c)
        out[b] = np.add.reduce(region, axis=0) / len(region)
    return out


def grid_cell_features(grid: FeatureGrid) -> np.ndarray:
    """Temporally averaged features per cell, row-major, shape (h*w, c)."""
    arr = grid.values.data
    t, h, w, c = arr.shape
    # the sum and division of arr.mean(axis=0), without its Python wrapper
    return (np.add.reduce(arr, axis=0) / t).reshape(h * w, c)


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
    return KeyframeFeatures(
        keyframe_id=grid.keyframe_id,
        fg_boxes=fg_boxes,
        fg_feats=_pool_boxes(grid, fg_boxes),
        ctx_feats=grid_cell_features(grid),
        grid_hw=(h, w),
        prop_boxes=proposals,
        prop_feats=_pool_boxes(grid, proposals) if proposals else None,
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
    """Project the pooled features of same-shaped keyframes, one matmul per node kind.

    Each stack is one concatenate and a reshape, without np.stack's
    per-array Python: the block key fixes every keyframe's row counts, and
    the concatenate fails on features of differing widths.  The stacks
    are not scanned for NaN or infinity: features are pooled from grids
    checked when they were loaded, and a non-finite feature makes the
    projection fail its check, naming the input projection.
    """
    def stack(arrays):
        return ng._wrap(np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape))

    with ng.checked("input projection"):
        fg_states = ng.matmul(stack([f.fg_feats for f in frames]), params[PROJ_FOREGROUND])
        ctx_states = ng.matmul(stack([f.ctx_feats for f in frames]), params[PROJ_CONTEXT])
        if frames[0].prop_feats is not None:
            props = ng.matmul(stack([f.prop_feats for f in frames]), params[PROJ_PROPOSAL])
            ctx_states = ng.concat_rows([ctx_states, props])
    ng.check_finite("input projection", fg_states, ctx_states)
    return Block(positions, fg_states, ctx_states)


def temporal_offsets(tau_c: int) -> list[int]:
    """Window offsets t for a centered window of tau_c keyframes, t != 0."""
    if tau_c < 1 or tau_c % 2 == 0:
        raise ConfigError(f"temporal window tau_c must be odd and positive, got {tau_c}")
    half = tau_c // 2
    return [t for t in range(-half, half + 1) if t != 0]


@lru_cache(maxsize=256)
def _windows(length: int, offsets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For each position i of a clip of length keyframes, the offsets t with i + t inside it.

    offsets are a window's strided offsets, t * tau_s for t in
    temporal_offsets, so each window keeps their ascending order.  The
    table depends on the clip length and the window alone, never on what
    else a batch holds; a keyframe has temporal neighbours exactly when
    its window is not empty.
    """
    return tuple(tuple(t for t in offsets if 0 <= i + t < length) for i in range(length))


@dataclass(eq=False)
class SpatioTemporalGraph:
    """The keyframes of one clip or of a batch of clips, plus temporal adjacency.

    keyframes is flat: the KeyframeFeatures passed in, every clip's in order,
    clip after clip, and clips[c] is the range of clip c's positions.
    Every foreground node attends spatially to all nodes of its own
    keyframe.  blocks group the keyframes whose row counts match and whose
    temporal neighborhoods are all empty or all not, and where[pos] is the
    (block, slice) that holds keyframe pos.  layouts[k] is block k's
    (spatial, temporal) numgrad.KvLayout: one pair of every slice over its
    own rows then its context rows, and one pair per temporal neighbour
    row count, in order of first slice, or None without temporal
    neighbours.  gathers[k] holds the numgrad.Gather of each temporal
    pair, in the same order, over the blocks' foreground states laid end
    to end (see _temporal_layouts); it is empty without temporal neighbours.

    first_ids, temporal, order and fg_rows are derived on first access,
    since only evaluation, traces, node_ids and tests read them; a
    training step or a one-clip forward pass builds none of them.
    first_ids[pos] is keyframe pos's first node id (see node_ids), and
    temporal[pos] lists, ascending, the positions pos + t * tau_s for each
    window offset t that fall inside pos's clip; it is empty everywhere
    when tau_c is 1.  order[pos] is keyframe pos's index among the
    blocks' slices laid end to end, so one entry per slice, block after
    block, indexed by order is in position order.  fg_rows does that for
    foreground rows: the blocks' (B, n, ...) stacks, each reshaped to
    (B * n, ...) and concatenated, indexed by fg_rows hold every
    keyframe's n rows in position order.
    """

    keyframes: list[KeyframeFeatures]
    blocks: list[Block]
    clips: list[range]
    where: list[tuple[int, int]]
    layouts: list[tuple[ng.KvLayout, ng.KvLayout | None]]
    gathers: list[list[ng.Gather]]
    tau_c: int
    tau_s: int

    @cached_property
    def first_ids(self) -> list[int]:
        first = []
        for span in self.clips:
            at = 0
            for f in self.keyframes[span.start:span.stop]:
                first.append(at)
                at += len(f.fg_boxes) + f.ctx_feats.shape[0] + len(f.prop_boxes)
        return first

    @cached_property
    def temporal(self) -> list[list[int]]:
        offsets = tuple(t * self.tau_s for t in temporal_offsets(self.tau_c))
        return [[pos + t for t in window] for span in self.clips
                for pos, window in zip(span, _windows(len(span), offsets))]

    @cached_property
    def order(self) -> np.ndarray:
        # the inverse of the positions of the slices laid end to end
        slots = [pos for block in self.blocks for pos in block.positions]
        order = np.empty(len(slots), dtype=np.intp)
        order[slots] = np.arange(len(slots))
        return order

    @cached_property
    def fg_rows(self) -> np.ndarray:
        # each slice's row count and first row, block after block, then by position
        widths = np.repeat([b.fg_states.shape[1] for b in self.blocks],
                           [len(b.positions) for b in self.blocks])
        counts, first = widths[self.order], (np.cumsum(widths) - widths)[self.order]
        return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _temporal_layouts(blocks: list[Block], clips: list[range], where: list[tuple[int, int]],
                      offsets: tuple[int, ...]) -> tuple[list, list]:
    """Each block's temporal KvLayout, or None without temporal neighbours, and its Gathers.

    A block's keyframes are grouped by the number s of temporal neighbour
    rows they read, in order of first slice: one layout pair and one
    Gather per group.  The Gather's rows[i] (s entries) index the
    foreground rows of slice i's temporal neighbours, ascending by
    position, in the blocks' foreground states laid end to end.  Its plan
    lists, for each window offset, largest first, the entries of the
    flattened rows read through that offset, one round each.  At one
    offset pos -> pos + t * tau_s is one-to-one, so no row repeats within
    a round; and the receivers of a row sit at ascending positions, which
    is descending offsets, so the rounds add each row's pieces in index
    order, as numgrad.Gather requires.  The plan stays Python lists until
    a backward needs them, so a forward pass without a tape makes no
    arrays for them.

    One pass over the keyframes, clip by clip, walks each keyframe's
    window (_windows, one table per clip length) and adds its slice, rows
    and plan entries to its block's group.  A block's keyframes all have
    a window or all have none (build_batch's key), so a block without
    temporal neighbours ends with no group.  A clip has a few keyframes of
    a few rows each, and a numpy call costs more than the handful of rows
    it would build: a numpy version of this pass built a 16-clip
    `temporal` evaluation chunk faster (919 -> 508 us) but one clip slower
    (155 -> 361 us), on two x86-64 cores with Python 3.11 and numpy 2.4,
    and a re-check there gave about 300 us for one clip against 47 us
    for this pass.
    """
    widths = [block.fg_states.data.shape[1] for block in blocks]
    starts, at = [], 0
    for block, m in zip(blocks, widths):
        starts.append(at)
        at += len(block.positions) * m
    # each keyframe's first foreground row and row count
    first = [starts[k] + j * widths[k] for k, j in where]
    n = [widths[k] for k, _ in where]
    pending: list[dict] = [{} for _ in blocks]
    for span in clips:
        for pos, window in zip(span, _windows(len(span), offsets)):
            if not window:
                continue
            k, u = where[pos]
            width = 0
            for t in window:
                width += n[pos + t]
            by_width = pending[k]
            group = by_width.get(width)
            if group is None:
                group = by_width[width] = ([], [], {t: [] for t in offsets})
            slices, rows, by_offset = group
            slices.append(u)
            for t in window:
                q = pos + t
                m = n[q]
                # appending a one-box keyframe's row costs a third of extending by a range
                if m == 1:
                    by_offset[t].append(len(rows))
                    rows.append(first[q])
                else:
                    size = len(rows)
                    by_offset[t] += range(size, size + m)
                    rows += range(first[q], first[q] + m)
    layouts, gathers = [], []
    for block, by_width in zip(blocks, pending):
        groups = by_width.items()
        layouts.append(ng.KvLayout(len(block.positions), [slices for _, (slices, _, _) in groups],
                                   [width for width, _ in groups]) if groups else None)
        gathers.append([ng.Gather(rows, tuple(by_offset[t] for t in offsets[::-1] if by_offset[t]),
                                  at, (len(slices), width))
                        for width, (slices, rows, by_offset) in groups])
    return layouts, gathers


def build_batch(clips: list[list[KeyframeFeatures]], params, config) -> SpatioTemporalGraph:
    """Assemble one graph over the keyframes of several clips.

    Keyframes are positioned by list order, clip after clip; temporal
    strides count positions inside a clip, not raw keyframe ids.
    Keyframes with the same numbers of boxes, grid cells and proposals
    share a block, whichever clip they belong to, unless one has temporal
    neighbors and the other none; a block's keyframes are projected
    together, and blocks are never padded.  Every block's neighbour
    layouts are built and checked here, once, for every phase that reads
    them (see numgrad.KvLayout and numgrad.Gather).
    """
    if not clips or not all(clips):
        raise ValidationError("graph needs at least one keyframe with foreground nodes "
                              "in every clip")
    tau_s = config.tau_s
    if tau_s < 1:
        raise ConfigError(f"temporal stride tau_s must be positive, got {tau_s}")
    offsets = tuple(t * tau_s for t in temporal_offsets(config.tau_c))
    frames: list[KeyframeFeatures] = []
    spans, where = [], []
    # (boxes, cells, proposals, has temporal neighbours) -> (block, its positions)
    shapes: dict[tuple[int, int, int, bool], tuple[int, list[int]]] = {}
    for clip in clips:
        span = range(len(frames), len(frames) + len(clip))
        spans.append(span)
        for pos, f, window in zip(span, clip, _windows(len(clip), offsets)):
            n = len(f.fg_feats)
            if n == 0:
                raise ValidationError(f"keyframe {f.keyframe_id}: no foreground boxes")
            props = 0 if f.prop_feats is None else len(f.prop_feats)
            key = (n, len(f.ctx_feats), props, bool(window))
            block = shapes.get(key)
            if block is None:
                block = shapes[key] = (len(shapes), [])
            where.append((block[0], len(block[1])))
            block[1].append(pos)
        frames += clip
    blocks = [project_block([frames[p] for p in positions], positions, params)
              for _, positions in shapes.values()]
    temporal, gathers = _temporal_layouts(blocks, spans, where, offsets)
    layouts = [(ng.KvLayout(len(b.positions), [range(len(b.positions))],
                            [b.fg_states.shape[1] + b.ctx_states.shape[1]]), layout)
               for b, layout in zip(blocks, temporal)]
    return SpatioTemporalGraph(frames, blocks, spans, where, layouts, gathers,
                               config.tau_c, tau_s)


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
