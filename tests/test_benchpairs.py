"""tools/benchpairs.py on two stub trees whose perfbench/run.py prints fixed results."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "benchpairs.py")
_SPEC = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

# the stub harness: appends "<side> <seed>" to ../order.log, then prints a
# host-speed line and a result line as run.py does, with the seed's values
# from its tree's values.json and a FAILED line per failed operation
STUB = '''import argparse, json, os, sys
p = argparse.ArgumentParser()
p.add_argument("--workload"); p.add_argument("--seed", type=int); p.add_argument("--seconds")
args = p.parse_args()
with open("values.json") as f:
    mine = json.load(f)
with open(os.path.join(os.pardir, "order.log"), "a") as f:
    f.write(f"{mine['side']} {args.seed}\\n")
failed = mine.get("failed", {}).get(str(args.seed), 0)
for i in range(failed):
    print(f"FAILED directional derivative: seed {args.seed} case {i}", file=sys.stderr)
print("host speed factor (times are raw x factor): median 1.0000, range 0.9000-1.1000")
print(json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
    name: {"value": values[str(args.seed)], "unit": "s"}
    for name, values in mine["metrics"].items()}}))
'''
BENCHMARK = {"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
             "end_to_end": [
                 {"name": "checkpoint_s", "unit": "s", "better": "lower", "bound": 0.25},
                 {"name": "train_clips_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}


def _tree(root, side, metrics, failed=None):
    os.makedirs(os.path.join(root, "perfbench"))
    os.makedirs(os.path.join(root, "src", "stgraph"))
    with open(os.path.join(root, "perfbench", "run.py"), "w") as f:
        f.write(STUB)
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        json.dump(BENCHMARK, f)
    with open(os.path.join(root, "src", "stgraph", "train.py"), "w") as f:
        f.write(f"# {side}\n")
    with open(os.path.join(root, "values.json"), "w") as f:
        json.dump({"side": side, "metrics": metrics, "failed": failed or {}}, f)
    return str(root)


OLD_CKPT = {"1": 0.010, "2": 0.012, "3": 0.011, "4": 0.009, "5": 0.014}
NEW_CKPT = {"1": 0.002, "2": 0.003, "3": 0.002, "4": 0.010, "5": 0.001}
OLD_TRAIN = dict.fromkeys(OLD_CKPT, 100.0)
NEW_TRAIN = {"1": 101.0, "2": 99.0, "3": 100.0, "4": 100.0, "5": 102.0}


def _run(*argv):
    return subprocess.run([sys.executable, TOOL, *argv], capture_output=True, text=True,
                          timeout=300)


@pytest.fixture()
def trees(tmp_path):
    old = _tree(tmp_path / "old", "old", {"checkpoint_s": OLD_CKPT, "train_clips_per_s": OLD_TRAIN},
                failed={"4": 2})
    new = _tree(tmp_path / "new", "new", {"checkpoint_s": NEW_CKPT, "train_clips_per_s": NEW_TRAIN})
    return tmp_path, old, new


def test_pairs_alternate_one_process_at_a_time_and_keep_failed_runs(trees):
    tmp_path, old, new = trees
    run = _run(old, new, "--workload", "wide", "--seeds", "1-5", "--seconds", "1",
               "--label", "stub", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "order.log") as f:
        assert f.read().split("\n")[:-1] == [
            "old 1", "new 1", "new 2", "old 2", "old 3", "new 3", "new 4", "old 4", "old 5",
            "new 5"]
    with open(tmp_path / "BENCH_stub.json") as f:
        entry = json.load(f)["workloads"]["wide"]
    assert entry["seeds"] == [1, 2, 3, 4, 5] and entry["first"] == ["old", "new"] * 2 + ["old"]
    ckpt = entry["metrics"]["checkpoint_s"]
    # sorted old runs 0.009 0.010 0.011 0.012 0.014, new 0.001 0.002 0.002 0.003 0.010
    assert ckpt["old"] == {"runs": [0.010, 0.012, 0.011, 0.009, 0.014], "median": 0.011,
                           "q1": 0.010, "q3": 0.012}
    assert ckpt["new"] == {"runs": [0.002, 0.003, 0.002, 0.010, 0.001], "median": 0.002,
                           "q1": 0.002, "q3": 0.003}
    assert ckpt["new_won"] == 4 and ckpt["pairs"] == 5 and ckpt["bound"] == 0.25
    assert ckpt["ratios"] == pytest.approx([0.2, 0.25, 2 / 11, 10 / 9, 1 / 14])
    assert ckpt["gap_exceeds_old_iqr"] and ckpt["within_bound"]
    assert ckpt["median_change"] == pytest.approx(0.002 / 0.011 - 1)
    # higher is better here, and a tie counts for neither side
    train = entry["metrics"]["train_clips_per_s"]
    assert train["new_won"] == 2
    assert not train["gap_exceeds_old_iqr"] and train["old"]["q1"] == train["old"]["q3"] == 100.0
    # the failed run stays in, with its count and its lines as printed
    assert [r["failed"] for r in entry["runs"]["old"]] == [0, 0, 0, 2, 0]
    assert entry["runs"]["old"][3]["failed_lines"] == [
        "FAILED directional derivative: seed 4 case 0",
        "FAILED directional derivative: seed 4 case 1"]
    assert entry["runs"]["old"][3]["metrics"]["checkpoint_s"] == 0.009
    env = entry["environment"]
    assert env["host_speed_range"] == [0.9, 1.1] and env["cpu_count"] == os.cpu_count()
    assert env["old"]["src_sha256"] != env["new"]["src_sha256"]
    # a second workload joins the same file
    run = _run(old, new, "--workload", "temporal", "--seeds", "2-3", "--seconds", "1",
               "--label", "stub", "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "BENCH_stub.json") as f:
        assert sorted(json.load(f)["workloads"]) == ["temporal", "wide"]


@pytest.mark.parametrize("edit", ["perfbench/run.py", "perfbench/extra.py", "BENCHMARK.json"])
def test_trees_with_different_harnesses_are_refused(trees, edit):
    tmp_path, old, new = trees
    with open(os.path.join(new, edit), "a") as f:
        f.write("\n")
    run = _run(old, new, "--workload", "wide", "--seeds", "1-2", "--seconds", "1",
               "--label", "stub", "--out", str(tmp_path))
    assert run.returncode == 2
    assert run.stderr.startswith("error: the trees' ") and edit in run.stderr
    assert not (tmp_path / "order.log").exists() and not (tmp_path / "BENCH_stub.json").exists()


def test_byte_code_does_not_count_as_a_harness_difference(trees):
    _, old, new = trees
    os.makedirs(os.path.join(new, "perfbench", "__pycache__"))
    with open(os.path.join(new, "perfbench", "__pycache__", "run.cpython-311.pyc"), "wb") as f:
        f.write(b"\0")
    benchpairs.check_one_harness(old, new)
    shutil.rmtree(os.path.join(new, "perfbench"))
    with pytest.raises(benchpairs.RefusedError, match="perfbench/run.py"):
        benchpairs.check_one_harness(old, new)


def test_a_run_without_a_result_line_stops_the_tool(trees):
    tmp_path, old, new = trees
    with open(os.path.join(new, "values.json"), "w") as f:
        f.write("not json")
    run = _run(old, new, "--workload", "wide", "--seeds", "1-2", "--seconds", "1",
               "--label", "stub", "--out", str(tmp_path))
    assert run.returncode == 1 and "without a result line" in run.stderr
    assert not (tmp_path / "BENCH_stub.json").exists()
