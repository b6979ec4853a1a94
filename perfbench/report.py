"""The three commands: one workload, every workload, and the self-check."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from perfbench.hostspeed import PROBE_REFERENCE_MS
from perfbench.measure import OUT_DIR, run
from perfbench.supervise import run_workload
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_path(workload: str, trace: bool) -> str:
    return os.path.join(OUT_DIR, f"{workload}.{'trace' if trace else 'run'}.json")


def _print_record(record: Dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name}/{metric} = {entry['value']:.6g} {entry['unit']}")
    if "tail_pct" in record:
        print(
            f"{name}: tail_ms is p{record['tail_pct']} of {record['requests']} requests; "
            f"p99_ms = {record['p99_ms']:.6g} ms (not gated)"
        )
    if "clock_share" in record:
        readings = ", ".join(f"{each['probe_ms']:.3f}" for each in record["passes"])
        print(
            f"{name}: core-speed probe read {readings} ms in the passes; setup_s, qps, p50_ms "
            f"and tail_ms are stated at {PROBE_REFERENCE_MS} ms, clock share {record['clock_share']}"
        )
    for kind, shares in record["shares"].items():
        listed = ", ".join(f"{key} {share:.3f}" for key, share in shares.items())
        print(f"{name}: requests by {kind}: {listed}")
    print(
        f"{name}: attempted {record['attempted']}, failed {record['failed']}, "
        f"wrong outputs {record['wrong_output']}, checked {record['checked_requests']}, "
        f"output_digest {record['output_digest']}"
        + (" [degraded: one-core host]" if record["host"]["degraded"] else "")
    )


def run_one(arguments: argparse.Namespace) -> int:
    """One workload in this process (the supervised child); last line is the
    contract's result object."""
    if arguments.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {arguments.workload!r}", file=sys.stderr)
        return 2
    record = run(
        WORKLOADS[arguments.workload],
        arguments.seed,
        arguments.seconds,
        arguments.scale,
        bool(arguments.trace),
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_record_path(arguments.workload, bool(arguments.trace)), "w") as handle:
        json.dump(record, handle, indent=1)
    _print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _run_in_subprocess(workload: str, arguments: argparse.Namespace, trace: bool) -> Optional[Dict]:
    """Run one workload in its own interpreter and read back its record."""
    command = [
        "--workload", workload,
        "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds),
        "--scale", str(arguments.scale),
        "--trace", str(int(trace)),
    ]
    path = _record_path(workload, trace)
    if os.path.exists(path):
        os.remove(path)
    returncode = run_workload(command, quiet=True)
    if returncode != 0 or not os.path.exists(path):
        print(f"{workload}: subprocess exited with {returncode}")
        return None
    with open(path) as handle:
        return json.load(handle)


def run_all(arguments: argparse.Namespace) -> int:
    """Every workload, each in its own subprocess; ends with the summary."""
    summary: Dict = {"seed": arguments.seed, "scale": arguments.scale, "workloads": {}}
    correct = True
    for name in WORKLOADS:
        records = [_run_in_subprocess(name, arguments, False)]
        if arguments.trace:
            records.append(_run_in_subprocess(name, arguments, True))
        for record in records:
            if record is None:
                correct = False
                continue
            _print_record(record)
            correct = correct and record["correct"]
            kind = "trace" if record["trace"] else "run"
            summary["workloads"].setdefault(name, {})[kind] = record
    summary["correct"] = correct
    summary["claim"] = None
    print(json.dumps(summary, indent=1))
    return 0 if correct else 1


# --------------------------------------------------------------------------- #
# Self-check: two interleaved sets of the same code
# --------------------------------------------------------------------------- #
def _quartile_range(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def selfcheck(arguments: argparse.Namespace) -> int:
    """A B A B ... runs of the whole benchmark; compare the two sets' medians.

    Both sets run the same code, so neither direction is "better": passes
    when, for every workload and end-to-end metric, the two medians differ
    by no more than the metric's bound in ``BENCHMARK.json``,
    ``plan_work_rows`` and the output digests agree exactly, and no
    operation failed.  A pair that agrees while one set's own quartile
    range is wider than the bound is printed as unresolved, not as ok.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {
            metric["name"]: metric["bound"] for metric in json.load(handle)["end_to_end"]
        }
    sets: Dict[str, Dict[str, List[Dict]]] = {
        label: {name: [] for name in WORKLOADS} for label in "AB"
    }
    passed = True
    for repeat in range(arguments.runs):
        for label in "AB":
            for name in WORKLOADS:
                record = _run_in_subprocess(name, arguments, False)
                if record is None or not record["correct"]:
                    print(f"selfcheck: {name} run {repeat}{label} failed")
                    passed = False
                if record is not None:
                    sets[label][name].append(record)
    print("workload/metric: median A, median B (quartile range A, B), difference, bound")
    for name in WORKLOADS:
        runs_a, runs_b = sets["A"][name], sets["B"][name]
        if not runs_a or not runs_b:
            continue
        for metric, bound in bounds.items():
            values_a = [record["metrics"][metric]["value"] for record in runs_a]
            values_b = [record["metrics"][metric]["value"] for record in runs_b]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            ranges = _quartile_range(values_a), _quartile_range(values_b)
            difference = (median_b - median_a) / median_a
            if abs(difference) > bound:
                verdict = "FAIL"
                passed = False
            elif max(ranges) > bound * median_a:
                # Agreement inside a spread wider than the bound shows nothing.
                verdict = "unresolved: the runs of one set spread wider than the bound"
            else:
                verdict = "ok"
            print(
                f"{name}/{metric}: {median_a:.6g}, {median_b:.6g} "
                f"({ranges[0]:.3g}, {ranges[1]:.3g}), "
                f"{difference:+.2%}, {bound:.0%} {verdict}"
            )
        if len({record["output_digest"] for record in runs_a + runs_b}) != 1:
            print(f"{name}: output_digest differs between runs FAIL")
            passed = False
        rows = {record["metrics"]["plan_work_rows"]["value"] for record in runs_a + runs_b}
        if len(rows) != 1:
            print(f"{name}: plan_work_rows differs between runs of one seed FAIL: {sorted(rows)}")
            passed = False
    print("selfcheck", "passed" if passed else "FAILED")
    return 0 if passed else 1
