"""The three benchmark workloads: seeded inputs plus the model settings.

Every input file is generated from the run's seed through the library's
own writers (``data.synth_*`` and ``data.save_dataset``), so the program
under test only ever sees a manifest and its grid blobs, as a user would.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stgraph import data, graph, heads, passing
from stgraph.numgrad import Tensor
from stgraph.train import Schedule


@dataclass(frozen=True)
class Workload:
    config: dict                 # ModelConfig fields except the seed
    schedule: Schedule
    eval_workers: int
    # (workdir, seed) -> (train manifest, eval manifest); the same path twice
    # means the workload evaluates on its training clips
    make_inputs: Callable[[str, int], tuple[str, str]]


def _overfit_inputs(workdir: str, seed: int) -> tuple[str, str]:
    manifest = data.synth_action_overfit(os.path.join(workdir, "train"), seed=seed)
    return manifest, manifest


def _temporal_inputs(workdir: str, seed: int) -> tuple[str, str]:
    common = dict(seed=seed, channels=6, tau_s=1, margin=0.4)
    train = data.synth_temporal_pairs(os.path.join(workdir, "train"), split=0,
                                      clips=32, keyframes=5, **common)
    held = data.synth_temporal_pairs(os.path.join(workdir, "held"), split=1,
                                     clips=48, keyframes=7, **common)
    return train, held


WIDE_KEYFRAMES = 8
WIDE_BOXES = 16
WIDE_GRID = (8, 7, 7, 16)  # (t, h, w, c)
WIDE_OBJECTS = 5
WIDE_RELATIONS = 3


def _wide_clips(rng: np.random.Generator, signatures: np.ndarray, count: int,
                prefix: str) -> list[data.ClipRecord]:
    """Scene-graph clips: 16 cell-snapped boxes per keyframe, every pair related.

    A box adds its object class signature to the cells it covers; the
    predicate of pair (i, j) is (class_i + class_j) mod WIDE_RELATIONS.
    """
    t, h, w, c = WIDE_GRID
    clips = []
    for ci in range(count):
        keyframes = []
        for k in range(WIDE_KEYFRAMES):
            grid = rng.normal(0.0, 0.1, size=(t, h, w, c))
            boxes, classes = [], []
            for _ in range(WIDE_BOXES):
                i0, j0 = (int(v) for v in rng.integers(0, (h - 1, w - 1)))
                i1 = int(rng.integers(i0 + 1, h + 1))
                j1 = int(rng.integers(j0 + 1, w + 1))
                cls = int(rng.integers(WIDE_OBJECTS))
                grid[:, i0:i1, j0:j1, :] += 0.3 * signatures[cls]
                boxes.append(graph.Box(j0 / w, i0 / h, j1 / w, i1 / h))
                classes.append(cls)
            relations = [(i, j, (classes[i] + classes[j]) % WIDE_RELATIONS)
                         for i, j in heads.pair_index(WIDE_BOXES)]
            keyframes.append(data.KeyframeRecord(
                keyframe_id=k,
                grid=graph.FeatureGrid(values=Tensor(grid), keyframe_id=k),
                fg_boxes=boxes,
                object_classes=np.array(classes, dtype=int),
                relations=relations,
            ))
        clips.append(data.ClipRecord(clip_id=f"{prefix}{ci:03d}", keyframes=keyframes))
    return clips


def _wide_inputs(workdir: str, seed: int) -> tuple[str, str]:
    rng = np.random.default_rng([seed, 64])
    signatures = rng.normal(0.0, 1.0, size=(WIDE_OBJECTS, WIDE_GRID[3])) * 2.0
    info = data.DatasetInfo(task=passing.TASK_SCENEGRAPH, object_classes=WIDE_OBJECTS,
                            relation_classes=WIDE_RELATIONS)
    train = data.save_dataset(os.path.join(workdir, "train"), info,
                              _wide_clips(rng, signatures, 4, "train"))
    held = data.save_dataset(os.path.join(workdir, "held"), info,
                             _wide_clips(rng, signatures, 4, "held"))
    return train, held


WORKLOADS = {
    "overfit": Workload(
        config=dict(state_dim=16, heads=2, message_fns=(passing.FN_NONLOCAL,), tau_c=1,
                    task=passing.TASK_ACTION, feature_channels=8, action_classes=3),
        schedule=Schedule(),
        eval_workers=1,
        make_inputs=_overfit_inputs,
    ),
    "temporal": Workload(
        config=dict(state_dim=12, heads=1, message_fns=(passing.FN_NONLOCAL,), tau_c=3,
                    task=passing.TASK_ACTION, feature_channels=6, action_classes=2),
        schedule=Schedule(),
        eval_workers=2,
        make_inputs=_temporal_inputs,
    ),
    "wide": Workload(
        config=dict(state_dim=64, heads=4, message_fns=(passing.FN_NONLOCAL, passing.FN_GAT),
                    tau_c=3, task=passing.TASK_SCENEGRAPH, feature_channels=WIDE_GRID[3],
                    object_classes=WIDE_OBJECTS, relation_classes=WIDE_RELATIONS),
        schedule=Schedule().scaled(1.0),
        eval_workers=1,
        make_inputs=_wide_inputs,
    ),
}

# clips per training batch, before train.effective_batch_size divides it by tau_c
BATCH_SIZE = 8
# recall cutoffs for scene-graph evaluation, both far below the
# 120 pairs x 3 predicates = 360 candidates of a wide keyframe
RECALL_KS = (20, 50)
