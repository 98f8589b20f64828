import importlib.util
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "ab.py")


def test_ab_of_a_tree_against_itself_finds_identical_outputs():
    run = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "overfit",
                          "--rounds", "1"], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:4] == [f"{what}: identical" for what in (
        "trained parameters", "forward outputs", "gradients", "evaluation report")]
    assert lines[4].split() == ["operation", "old", "ms", "new", "ms", "new/old", "new", "won"]
    rows = [line.split() for line in lines[5:]]
    assert [row[0] for row in rows] == ["forward", "fwdbwd", "eval", "train"]
    for _, old_ms, new_ms, ratio, won in rows:
        assert float(old_ms) > 0.0 and float(new_ms) > 0.0 and float(ratio) > 0.0
        assert won in ("0/1", "1/1")


def test_ab_times_only_the_operations_named():
    run = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "overfit",
                          "--rounds", "2", "--ops", "eval"], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # the byte-identity report does not depend on the operations timed
    assert [line.split(": ")[1] for line in lines[:4]] == ["identical"] * 4
    assert [line.split()[0] for line in lines[5:]] == ["eval"]
    assert lines[5].split()[4] in ("0/2", "1/2", "2/2")


def test_ab_rejects_an_unknown_operation():
    run = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "overfit",
                          "--ops", "eval,backward"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and not run.stdout
    assert "usage:" in run.stderr and "unknown --ops ['backward']" in run.stderr


def test_ab_help_says_claims_come_from_perfbench_pairs():
    run = subprocess.run([sys.executable, TOOL, "--help"], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0
    assert "bisecting" in run.stdout and "perfbench/run.py pairs" in run.stdout


def test_ab_prints_the_largest_deviation_of_each_output_that_differs(tmp_path):
    # a copy of the tree whose layer norm takes a slightly larger epsilon
    # moves every parameter, output and gradient a little; overfit's
    # report, a mean AP of 1, stays as it is
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    passing = tmp_path / "src" / "stgraph" / "passing.py"
    source = passing.read_text()
    assert source.count("ln_eps: float = 1e-5") == 1
    passing.write_text(source.replace("ln_eps: float = 1e-5", "ln_eps: float = 1.01e-5"))
    # the workload comes from NEW's perfbench, so the copy is OLD
    run = subprocess.run([sys.executable, TOOL, str(tmp_path), ROOT, "--workload", "overfit",
                          "--rounds", "1", "--ops", "forward"], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 1 and not run.stderr, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    for line, what in zip(lines, ("trained parameters", "forward outputs", "gradients")):
        match = re.fullmatch(rf"{what}: DIFFER, largest deviation (\S+) over (\d+) numbers "
                             r"\((\d+) differ\)", line)
        assert match, line
        assert 0.0 < float(match[1]) < 1.0 and 0 < int(match[3]) <= int(match[2])
    assert lines[3] == "evaluation report: identical"
    assert lines[5].split()[0] == "forward"


def test_identity_measures_each_output_as_numdiff_does():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        spec = importlib.util.spec_from_file_location("ab", TOOL)
        ab = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab)
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))

    def tree(params, outputs, grads, report):
        return SimpleNamespace(params={n: SimpleNamespace(data=np.array(v))
                                       for n, v in params.items()},
                               eval_clips=[0, 1], forward=lambda clip: [np.array(outputs[clip])],
                               train_clips=[0], gradients=lambda clip: [np.array(grads)],
                               evaluate=lambda: report)

    old = tree({"a": [1.0, 2.0], "b": [3.0]}, [[0.5], [0.25, 4.0]], [1.0, -1.0],
               ({0: 0.5, 1: 1.0}, 0.75))
    assert ab.identity(old, old) == dict.fromkeys(
        ("trained parameters", "forward outputs", "gradients", "evaluation report"))
    new = tree({"a": [1.0, 2.5], "b": [3.0]}, [[0.5], [0.25, 3.0]], [1.0, -1.0, 0.0],
               ({0: 0.5, 1: 0.875}, 0.6875))
    assert ab.identity(old, new) == {
        "trained parameters": "largest deviation 0.5 over 3 numbers (1 differ)",
        "forward outputs": "largest deviation 1 over 3 numbers (1 differ)",
        "gradients": "differs in structure, not only in numbers",
        "evaluation report": "largest deviation 0.125 over 5 numbers (2 differ)",
    }
    renamed = tree({"a": [1.0, 2.0], "c": [3.0]}, [[0.5], [0.25, 4.0]], [1.0, -1.0],
                   ({0: 0.5, 1: 1.0}, 0.75))
    assert ab.identity(old, renamed)["trained parameters"] == (
        "differs in structure, not only in numbers")


def test_ab_times_graph_builds_and_compares_their_layouts():
    run = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--workload", "temporal",
                          "--rounds", "1", "--ops", "build"], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:5] == [f"{what}: identical" for what in (
        "trained parameters", "forward outputs", "gradients", "evaluation report",
        "graph layouts")]
    rows = [line.split() for line in lines[6:]]
    assert [row[0] for row in rows] == ["build-eval", "build-train"]
    assert all(float(row[1]) > 0.0 and float(row[2]) > 0.0 for row in rows)


def test_ab_names_the_build_whose_layout_differs(tmp_path):
    # a copy of the tree that lists each Gather's plan rounds smallest
    # offset first lays out the same rows in another plan
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    graph = tmp_path / "src" / "stgraph" / "graph.py"
    source = graph.read_text()
    assert source.count("for t in offsets[::-1] if by_offset[t]") == 1
    graph.write_text(source.replace("for t in offsets[::-1] if by_offset[t]",
                                    "for t in offsets if by_offset[t]"))
    run = subprocess.run([sys.executable, TOOL, str(tmp_path), ROOT, "--workload", "temporal",
                          "--rounds", "1", "--ops", "build"], capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 1 and not run.stderr, run.stderr
    assert "graph layouts: DIFFER on build-eval, build-train" in run.stdout.splitlines()
