#!/usr/bin/env python3
"""In-process A/B of two source trees on one perfbench workload.

    python tools/ab.py OLD NEW --workload wide --rounds 15 [--seed 5] [--ops eval,train,build,setup]

OLD and NEW are checkouts of this repository (each with src/stgraph).  Both
packages are imported into one process, side by side, and the workload's
inputs are made once through NEW's perfbench/workloads.py.  The tool first
says whether the two trees give byte-identical trained parameters, forward
outputs (every held-out clip), gradients (the first training clip) and
evaluation report, and for each that differs, its largest absolute
deviation over all its numbers, as tools/numdiff.py gives it for files.
Then it runs R rounds of forward passes, forward and backward passes,
evaluation and training, or of the operations --ops names, each round
timing both trees on every operation, alternately OLD first and NEW
first, and prints per operation both medians, the median of
the per-round ratios NEW/OLD and how many rounds NEW won.

--ops build times graph.build_batch alone, on the first evaluation run
(build-eval) and on the first training batch (build-train), each the
mean of BUILD_REPEATS builds per round.  It first says whether the two
trees lay both graphs out alike: the same where, block positions,
layout slices and shapes, and gather rows and plans.

--ops setup times what perfbench's set-up times of the data:
data.load_dataset and featurize_clip of both manifests, per round.  It
first says whether the two trees set up alike: records equal in repr,
the same grid bytes, and the same fg_feats, ctx_feats and prop_feats.

It is for sizing a change and bisecting a slowdown: the two sides of a
pair run moments apart in one process, so a slow spell of a shared host
hits both.  Claims about the benchmark still come from alternating
perfbench/run.py pairs.  Exits 1 when an output differs, else 0.
"""

import argparse
import importlib
import os
import statistics
import sys
import tempfile
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from numdiff import STRUCTURE, compare, deviation

MODULES = ("data", "graph", "heads", "numgrad", "passing", "train")
OPERATIONS = ("forward", "fwdbwd", "eval", "train")
BUILDS = ("build-eval", "build-train")
BUILD_REPEATS = 20
SETUP = "setup"
FEATURES = ("fg_feats", "ctx_feats", "prop_feats")


def _purge(*names: str) -> None:
    for name in [m for m in sys.modules if m in names or m.startswith("stgraph.")]:
        del sys.modules[name]


def _import(paths: list[str], names: list[str]) -> list:
    """The named modules, imported with paths first on sys.path, then purged from sys.modules.

    Purging lets the next tree import its own stgraph; the modules
    returned keep the references they took when imported.
    """
    _purge("stgraph", *names)
    sys.path[:0] = paths
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        del sys.path[:len(paths)]
        _purge("stgraph", *names)


class Tree:
    """One tree's package, set up on the workload's inputs."""

    def __init__(self, root: str, workload, manifests: tuple[str, str], seed: int, workloads):
        self.lib = SimpleNamespace(**dict(zip(MODULES, _import(
            [os.path.join(root, "src")], [f"stgraph.{m}" for m in MODULES]))))
        train = self.lib.train
        self.config = self.lib.passing.ModelConfig(seed=seed, **workload.config)
        self.schedule = train.Schedule().scaled(workload.schedule.total_epochs)
        self.seed, self.workloads, self.workers = seed, workloads, workload.eval_workers
        self.manifests = manifests
        (_, self.train_clips), (_, self.eval_clips) = self.set_up()
        self.params = self.train()
        # the graphs --ops build lays out: the first evaluation run, the first training batch
        batch = train.effective_batch_size(self.workloads.BATCH_SIZE, self.config.tau_c)
        self.batches = {"build-eval": [c.frames for c in train.eval_runs(self.eval_clips,
                                                                         self.config)[0]],
                        "build-train": [c.frames for c in self.train_clips[:batch]]}

    def set_up(self) -> list[tuple[tuple, list]]:
        """Each manifest's (info, records) and featurized clips: training's, then held-out's."""
        data = self.lib.data
        out = []
        for manifest, mode in zip(self.manifests, (data.TRAIN_MODE, data.EVAL_MODE)):
            info, records = data.load_dataset(manifest)
            out.append(((info, records), [data.featurize_clip(r, info, mode=mode)
                                          for r in records]))
        return out

    def train(self):
        return self.lib.train.train_loop(self.train_clips, self.config, self.schedule,
                                         seed=self.seed,
                                         batch_size=self.workloads.BATCH_SIZE).params

    def evaluate(self):
        if self.config.task == self.lib.passing.TASK_ACTION:
            return self.lib.train.evaluate_action(self.eval_clips, self.params, self.config,
                                                  workers=self.workers)
        return self.lib.train.evaluate_scenegraph(self.eval_clips, self.params, self.config,
                                                  ks=self.workloads.RECALL_KS, mode="sgcls",
                                                  workers=self.workers)

    def forward(self, clip) -> list:
        """perfbench's forward: one clip's logits, keyframe by keyframe, untaped."""
        lib, params, config = self.lib, self.params, self.config
        graph = lib.graph.build_graph(clip.frames, params, config)
        result = lib.passing.run_inference(graph, params, config)
        out = []
        for pos in sorted(result.fg_states):
            states = result.fg_states[pos]
            if config.task == lib.passing.TASK_ACTION:
                out.append(lib.heads.action_readout(states, params["readout.action.weight"],
                                                    params["readout.action.bias"]).data)
            else:
                pred = lib.heads.sg_readout(states, params["readout.object.weight"],
                                            params["readout.object.bias"],
                                            params["readout.relation.weight"],
                                            params["readout.relation.bias"])
                out.append(pred.object_logits.data)
                if pred.relation_logits is not None:
                    out.append(pred.relation_logits.data)
        return out

    def gradients(self, clip) -> list:
        ng = self.lib.numgrad
        with ng.Tape() as tape:
            loss = self.lib.train.clip_loss(clip, self.params, self.config)
        grads = ng.grad(tape, loss, self.params)
        return [loss.data] + [grads[n].data for n in sorted(grads)]

    def layout(self, operation: str) -> tuple:
        """What a build of operation's batch lays out, as comparable Python values."""
        graph = self.lib.graph.build_batch(self.batches[operation], self.params, self.config)
        return (graph.where, [b.positions for b in graph.blocks],
                [[(layout.slices, layout.shapes) for layout in pair if layout is not None]
                 for pair in graph.layouts],
                [[(g.rows.shape, g.rows.tolist(), g.plan) for g in gathers]
                 for gathers in graph.gathers])

    def timed(self, operation: str) -> float:
        """Seconds of one operation: forward and fwdbwd per clip, eval and train per run,
        build-eval and build-train per build, setup per set-up of both manifests.
        """
        started = perf_counter()
        if operation == SETUP:
            self.set_up()
            return perf_counter() - started
        if operation in BUILDS:
            for _ in range(BUILD_REPEATS):
                self.lib.graph.build_batch(self.batches[operation], self.params, self.config)
            return (perf_counter() - started) / BUILD_REPEATS
        if operation == "forward":
            for clip in self.eval_clips:
                self.forward(clip)
            return (perf_counter() - started) / len(self.eval_clips)
        if operation == "fwdbwd":
            for clip in self.train_clips:
                self.gradients(clip)
            return (perf_counter() - started) / len(self.train_clips)
        self.evaluate() if operation == "eval" else self.train()
        return perf_counter() - started


def _differ(a: list, b: list) -> str | None:
    """None when two lists of arrays have the same bytes, else how far apart they are."""
    if len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b)):
        return None
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        return STRUCTURE
    return deviation(*(np.concatenate([x.ravel() for x in side]) for side in (a, b)))


def identity(old: Tree, new: Tree) -> dict[str, str | None]:
    """None for each output of the two trees that is byte-identical, else how it differs."""
    names = sorted(old.params)
    report = repr(old.evaluate()), repr(new.evaluate())
    return {
        "trained parameters": STRUCTURE if names != sorted(new.params) else _differ(
            [old.params[n].data for n in names], [new.params[n].data for n in names]),
        "forward outputs": _differ([x for clip in old.eval_clips for x in old.forward(clip)],
                                   [x for clip in new.eval_clips for x in new.forward(clip)]),
        "gradients": _differ(old.gradients(old.train_clips[0]),
                             new.gradients(new.train_clips[0])),
        "evaluation report": None if report[0] == report[1] else compare(
            *(text.encode() for text in report)),
    }


def layouts(old: Tree, new: Tree) -> str | None:
    """None when the two trees lay out both build batches alike, else which differ."""
    differ = [op for op in BUILDS if old.layout(op) != new.layout(op)]
    return f"DIFFER on {', '.join(differ)}" if differ else None


def set_ups(old: Tree, new: Tree) -> str | None:
    """None when the two trees set up both manifests alike, else which parts differ."""
    def parts(tree: Tree) -> dict:
        loaded = tree.set_up()
        frames = [f for _, clips in loaded for clip in clips for f in clip.frames]
        arrays = {name: [None if a is None else (a.shape, a.tobytes())
                         for a in (getattr(f, name) for f in frames)] for name in FEATURES}
        return {"records": repr([records for records, _ in loaded]),
                "grid bytes": [kf.grid.values.data.tobytes() for (_, records), _ in loaded
                               for clip in records for kf in clip.keyframes], **arrays}

    a, b = parts(old), parts(new)
    differ = [what for what in a if a[what] != b[what]]
    return f"DIFFER on {', '.join(differ)}" if differ else None


def rounds(old: Tree, new: Tree, count: int,
           ops=OPERATIONS) -> dict[str, list[tuple[float, float]]]:
    """(OLD seconds, NEW seconds) per round and operation, alternating which goes first."""
    times = {op: [] for op in ops}
    for i in range(count):
        for op in ops:
            first, second = (old, new) if i % 2 == 0 else (new, old)
            a, b = first.timed(op), second.timed(op)
            times[op].append((a, b) if first is old else (b, a))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], epilog=(
        "For sizing a change and bisecting a slowdown; claims about the benchmark still "
        "come from alternating perfbench/run.py pairs."))
    parser.add_argument("old", help="the baseline tree, a checkout with src/stgraph")
    parser.add_argument("new", help="the tree under test")
    parser.add_argument("--workload", required=True, help="a perfbench workload name")
    parser.add_argument("--rounds", type=int, default=15, help="timed rounds (default 15)")
    parser.add_argument("--seed", type=int, default=0, help="input and model seed (default 0)")
    parser.add_argument("--ops", default=",".join(OPERATIONS),
                        help=f"comma-separated operations to time, of {','.join(OPERATIONS)} "
                             "build and setup (default all but build and setup)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    ops = args.ops.split(",")
    unknown = [op for op in ops if op not in OPERATIONS + ("build", SETUP)]
    if unknown:
        parser.error(f"unknown --ops {unknown}; choose from {','.join(OPERATIONS)},build,setup")
    old_root, new_root = (os.path.abspath(p) for p in (args.old, args.new))
    bench_dir = os.path.join(new_root, "perfbench")
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        (workloads,) = _import([os.path.join(new_root, "src"), bench_dir], ["workloads"])
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"one of {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        manifests = workload.make_inputs(workdir, args.seed)
        old = Tree(old_root, workload, manifests, args.seed, workloads)
        new = Tree(new_root, workload, manifests, args.seed, workloads)
        differ = identity(old, new)
        for what, how in differ.items():
            print(f"{what}: {'identical' if how is None else 'DIFFER, ' + how}")
        if "build" in ops:
            differ["graph layouts"] = layouts(old, new)
            print(f"graph layouts: {differ['graph layouts'] or 'identical'}")
        if SETUP in ops:
            differ["set-up"] = set_ups(old, new)
            print(f"set-up: {differ['set-up'] or 'identical'}")
        times = rounds(old, new, args.rounds, [op for op in OPERATIONS if op in ops]
                       + [op for op in BUILDS if "build" in ops] + [SETUP] * (SETUP in ops))
    print(f"{'operation':<11} {'old ms':>10} {'new ms':>10} {'new/old':>8} {'new won':>8}")
    for op, pairs in times.items():
        print(f"{op:<11} {1e3 * statistics.median(a for a, _ in pairs):>10.3f} "
              f"{1e3 * statistics.median(b for _, b in pairs):>10.3f} "
              f"{statistics.median(b / a for a, b in pairs):>8.3f} "
              f"{sum(b < a for a, b in pairs):>5}/{len(pairs)}")
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
