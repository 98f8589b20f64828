"""The keyframe-by-keyframe graph layout, as an oracle for graph.build_batch.

Derives every position's temporal neighbours, first node ids, block
membership, (block, slice) places and temporal groups one list at a time,
from first principles, where build_batch builds them in one pass, and
projects each block from np.stack'ed features.  Plain lists throughout:
no numgrad layouts and no helpers shared with the library.
"""

import numpy as np


def reference_layout(clips, weights, tau_c, tau_s):
    """Dict of spans, temporal, first_ids, positions, where, groups and block stacks.

    clips is a list of lists of KeyframeFeatures and weights maps
    "foreground", "context" and "proposal" to (c, d) arrays.  groups[k]
    lists block k's (slices, rows, plan) triples, rows as nested lists.
    """
    half = tau_c // 2
    offsets = [t * tau_s for t in range(-half, half + 1) if t != 0]
    ends = np.cumsum([len(c) for c in clips]).tolist()
    spans = [range(end - len(clip), end) for end, clip in zip(ends, clips)]
    temporal = [[pos + t for t in offsets if pos + t in span] for span in spans for pos in span]
    frames = [f for clip in clips for f in clip]
    shapes = {}
    for pos, f in enumerate(frames):
        props = 0 if f.prop_feats is None else f.prop_feats.shape[0]
        key = (f.fg_feats.shape[0], f.ctx_feats.shape[0], props, bool(temporal[pos]))
        shapes.setdefault(key, []).append(pos)
    positions = list(shapes.values())
    where = [(0, 0)] * len(frames)
    for k, members in enumerate(positions):
        for j, pos in enumerate(members):
            where[pos] = (k, j)
    sizes = [len(f.fg_boxes) + f.ctx_feats.shape[0] + len(f.prop_boxes) for f in frames]
    first_ids = [sum(sizes[span.start:pos]) for span in spans for pos in span]
    stacks = []
    for members in positions:
        block = [frames[p] for p in members]
        fg = np.stack([f.fg_feats for f in block]) @ weights["foreground"]
        ctx = np.stack([f.ctx_feats for f in block]) @ weights["context"]
        if block[0].prop_feats is not None:
            props = np.stack([f.prop_feats for f in block]) @ weights["proposal"]
            ctx = np.concatenate([ctx, props], axis=-2)
        stacks.append((fg, ctx))
    return {"spans": spans, "temporal": temporal, "first_ids": first_ids,
            "positions": positions, "where": where,
            "groups": _temporal_groups(positions, [fg.shape[1] for fg, _ in stacks], temporal),
            "stacks": stacks}


def _temporal_groups(positions, widths, temporal):
    """Each block's (slices, rows, plan), grouped by neighbour row count in order of first slice.

    rows index the foreground rows of the blocks laid end to end; plan
    lists, for each window offset, largest first, the entries of the
    flattened rows read through it.
    """
    first, n = [0] * len(temporal), [0] * len(temporal)
    at = 0
    for members, m in zip(positions, widths):
        for j, pos in enumerate(members):
            first[pos], n[pos] = at + j * m, m
        at += len(members) * m
    layout = []
    for members in positions:
        by_width = {}
        for u, pos in enumerate(members):
            if temporal[pos]:
                by_width.setdefault(sum(n[q] for q in temporal[pos]), []).append(u)
        groups = []
        for width, slices in by_width.items():
            rows, by_offset = [], {}
            for pos in (members[u] for u in slices):
                for q in temporal[pos]:
                    by_offset.setdefault(q - pos, []).extend(range(len(rows), len(rows) + n[q]))
                    rows += range(first[q], first[q] + n[q])
            plan = tuple(by_offset[t] for t in sorted(by_offset, reverse=True))
            groups.append((slices, np.array(rows).reshape(len(slices), width).tolist(), plan))
        layout.append(groups)
    return layout
