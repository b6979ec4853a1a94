"""Command line of the benchmark.

``python3 -m perfbench --seed 17 [--trace]``
    every workload, each in its own subprocess; prints every metric by name
    with its unit and ends with a JSON summary whose last key is ``claim``.
``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1``
    one workload in a child interpreter that this one supervises (see
    ``supervise``); the last line of standard output is the result object
    of the benchmark contract (``BENCHMARK.json``).
``python3 -m perfbench --selfcheck [--runs 5]``
    the whole benchmark as two interleaved sets of the same code; fails if
    the sets disagree by more than the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload only")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length the measured phase is sized for")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every request count (smoke tests use 0.05)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add (or, with --workload, run only) the traced pass")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="runs per set of --selfcheck")
    return parser.parse_args(argv)


def main() -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; nothing to measure", file=sys.stderr)
        return 2
    arguments = _parse(sys.argv[1:])
    if arguments.workload and not arguments.child:
        from perfbench.supervise import run_workload

        return run_workload(sys.argv[1:])
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from perfbench import report
    from perfbench.measure import RUN_SECONDS

    if arguments.seconds is None:
        arguments.seconds = float(RUN_SECONDS)
    if arguments.workload:
        return report.run_one(arguments)
    if arguments.selfcheck:
        return report.selfcheck(arguments)
    return report.run_all(arguments)


if __name__ == "__main__":
    sys.exit(main())
