import os
import subprocess
import sys

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
