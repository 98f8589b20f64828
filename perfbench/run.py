"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload overfit --seed 0 --seconds 25 --trace 0

Prints each metric as ``name value unit``, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run with spans recorded around the library's functions.
Run it from the repository root; it imports the library from ``src/``.
"""

import argparse
import json
import os
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "stgraph", "train.py")):
        print(f"error: no stgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: with two evaluation workers
    # the run then holds no more busy threads than the two cores it is
    # measured on
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from bench import run_workload
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its inputs on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, log)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:32s} {value:14.6f} {unit}")
    speed = out["host_speed"]
    print(f"host speed factor (times are raw x factor): median {statistics.median(speed):.4f}, "
          f"range {min(speed):.4f}-{max(speed):.4f}")
    print("operations: " + ", ".join(f"{k} {v}" for k, v in out["counts"].items())
          + f"; attempted {out['attempted']}, failed {out['failed']}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
