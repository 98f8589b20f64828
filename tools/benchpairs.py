#!/usr/bin/env python3
"""Alternating parent/change perfbench/run.py pairs, written to BENCH_<label>.json.

    python tools/benchpairs.py OLD NEW --workload wide --seeds 2800-2809 --label L [--seconds 25]

OLD and NEW are checkouts of this repository.  For each seed in the
inclusive range, the tool runs perfbench/run.py once from each tree's
root, one process at a time, OLD first on the first seed, NEW first on
the next, and so on; each tree's harness measures its own src/.  Two
trees whose perfbench/ or BENCHMARK.json differ are refused, so both
sides are measured by one harness.  A run that exits nonzero or prints no
result line stops the tool, so no seed is silently left out.

The file holds one entry per workload; running another workload with the
same label adds its entry.  An entry holds, per end-to-end metric, each
side's runs, median and quartiles, the per-pair NEW/OLD ratios, the pairs
NEW won (ties count for neither), the metric's bound from BENCHMARK.json,
the relative change of the medians, whether it stays within the bound,
and whether the gap between the medians exceeds the distance between
OLD's quartiles.  It also keeps each run's failed-operation count and
FAILED lines as printed, and the environment: Python, numpy and its BLAS,
the BLAS thread variables, the CPU count and affinity, the host-speed
range, and each tree's commit and a digest of its src/.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOST_SPEED = re.compile(r"^host speed factor .*range ([0-9.]+)-([0-9.]+)$", re.M)


class RefusedError(Exception):
    pass


def tree_files(root: str, sub: str) -> dict[str, bytes]:
    """The file root/sub, or every file under it (byte code left out), by path relative to root."""
    if os.path.isfile(os.path.join(root, sub)):
        with open(os.path.join(root, sub), "rb") as f:
            return {sub: f.read()}
    found = {}
    for top, dirs, names in os.walk(os.path.join(root, sub)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if not name.endswith(".pyc"):
                path = os.path.join(top, name)
                with open(path, "rb") as f:
                    found[os.path.relpath(path, root)] = f.read()
    return found


def check_one_harness(old: str, new: str) -> None:
    """Raise RefusedError unless both trees hold the same perfbench/ and BENCHMARK.json."""
    for sub in ("perfbench", "BENCHMARK.json"):
        a, b = tree_files(old, sub), tree_files(new, sub)
        if not a:
            raise RefusedError(f"{old} has no {sub}")
        differ = sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
        if differ:
            raise RefusedError(f"the trees' {sub} differ ({', '.join(differ)}): "
                               "their runs would not share one harness")


def commit(root: str) -> dict:
    """The tree's git commit, whether its work tree differs from it, and a digest of src/."""
    def git(*args):
        run = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    digest = hashlib.sha256()
    for path, raw in tree_files(root, "src").items():
        digest.update(path.encode() + b"\0" + raw + b"\0")
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py process in root: its result line, FAILED lines and host-speed range."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    run = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                         timeout=max(600.0, 20 * seconds))
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError):
        result = None
    if run.returncode != 0 or result is None:
        raise RuntimeError(f"{root}: {' '.join(argv[1:])} exited {run.returncode} without a "
                           f"result line:\n{run.stderr[-2000:]}")
    speed = HOST_SPEED.search(run.stdout)
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
            "failed_lines": [line for line in run.stderr.splitlines()
                             if line.startswith("FAILED")],
            "host_speed": None if speed is None else [float(speed[1]), float(speed[2])],
            "metrics": metrics}


def spread(values: list[float]) -> dict:
    """The runs' values, median and quartiles (inclusive: linear between order statistics)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(old_runs: list[dict], new_runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric both sides' spreads, the pairs' ratios and NEW's wins."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in r["metrics"] for r in old_runs + new_runs):
            continue
        a = [r["metrics"][name] for r in old_runs]
        b = [r["metrics"][name] for r in new_runs]
        old, new = spread(a), spread(b)
        won = sum(y < x if lower else y > x for x, y in zip(a, b))
        change = new["median"] / old["median"] - 1.0 if old["median"] else None
        worse = None if change is None else (change if lower else -change)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "old": old, "new": new,
            "ratios": [y / x if x else None for x, y in zip(a, b)],
            "new_won": won, "pairs": len(a),
            "median_change": change,
            "within_bound": None if worse is None else worse <= metric["bound"],
            "gap_exceeds_old_iqr": abs(new["median"] - old["median"]) > old["q3"] - old["q1"],
        }
    return out


def environment(old: str, new: str, runs: list[dict]) -> dict:
    try:
        blas = {key: value for key, value in
                np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = None
    speeds = [r["host_speed"] for r in runs if r["host_speed"] is not None]
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREADS},
        "blas_threads_note": "perfbench/run.py sets each of these to 1 before numpy loads",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "host_speed_range": [min(s[0] for s in speeds), max(s[1] for s in speeds)]
        if speeds else None,
        "old": commit(old), "new": commit(new),
    }


def pairs(old: str, new: str, workload: str, seeds: list[int], seconds: float,
          log=lambda line: None) -> tuple[list[dict], list[dict]]:
    """OLD's and NEW's runs, seed by seed, OLD first on even positions, NEW first on odd."""
    runs = {"old": [], "new": []}
    trees = [("old", old), ("new", new)]
    for i, seed in enumerate(seeds):
        for side, tree in trees if i % 2 == 0 else trees[::-1]:
            log(f"{workload} seed {seed}: {side}")
            runs[side].append(run_once(tree, workload, seed, seconds))
    return runs["old"], runs["new"]


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], epilog=__doc__.split(
        "\n\n", 2)[2], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="the parent tree")
    parser.add_argument("new", help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default=".", help="directory of BENCH_<label>.json")
    args = parser.parse_args(argv)
    old, new = os.path.abspath(args.old), os.path.abspath(args.new)
    try:
        check_one_harness(old, new)
    except RefusedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    with open(os.path.join(new, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    try:
        old_runs, new_runs = pairs(old, new, args.workload, args.seeds, args.seconds,
                                   log=lambda line: print(line, file=sys.stderr, flush=True))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    bench = {"label": args.label, "workloads": {}}
    if os.path.exists(path):
        with open(path) as f:
            bench = json.load(f)
    bench["workloads"][args.workload] = {
        "seeds": args.seeds, "seconds": args.seconds,
        "first": ["old" if i % 2 == 0 else "new" for i in range(len(args.seeds))],
        "metrics": compare(old_runs, new_runs, end_to_end),
        "runs": {"old": old_runs, "new": new_runs},
        "environment": environment(old, new, old_runs + new_runs),
    }
    with open(path, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    for name, m in bench["workloads"][args.workload]["metrics"].items():
        print(f"{name:20s} {m['old']['median']:.6g} -> {m['new']['median']:.6g} {m['unit']}, "
              f"new won {m['new_won']}/{m['pairs']}, gap exceeds old IQR: "
              f"{m['gap_exceeds_old_iqr']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
