"""Benchmark of seqpava: its CLI commands and library calls on one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graded --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --steadiness --seed 0

A run repeats whole rounds of the same operations until ``--seconds`` have
passed, checks every output against references computed apart from the
program, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads, the metrics and the bounds.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("tied", "graded")


def locate_program() -> None:
    """Put the checkout's sources first on the import path, or exit if there are none."""
    if not (SRC / "seqpava" / "__init__.py").is_file():
        sys.exit(f"error: no seqpava sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import seqpava

    if Path(seqpava.__file__).resolve().parent != (SRC / "seqpava").resolve():
        sys.exit(f"error: imported seqpava from {seqpava.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny workloads and corrupted outputs")
    parser.add_argument("--steadiness", action="store_true", help="two alternating sets of runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.workload or args.self_test or args.steadiness):
        parser.error("one of --workload, --self-test or --steadiness is required")
    locate_program()
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.steadiness:
        from steadiness import steadiness

        return steadiness(WORKLOADS, args.seed)

    from harness import run_workload
    from workloads import SPECS

    # the run and its children share one CPU, the one the speed kernel measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out, bench = run_workload(
        args.workload, SPECS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for problem in bench.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
