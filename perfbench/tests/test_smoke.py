"""Smoke test of the benchmark itself: every workload, with and without the
traced pass, at a twentieth of the size (tables and request counts)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src")) if path not in sys.path]

from perfbench import layers, measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
SEED = 17
#: What one client and one seed must reproduce exactly.
EXACT_END_TO_END = ("plan_work_rows",)
EXACT_PER_LAYER = (
    "service.source.result_cache",
    "service.source.validated_reuse",
    "service.source.replan",
    "service.source.fresh",
    "service.cache.hit_rate",
    "reopt.rounds",
)


def _run_all(seed: int):
    return {
        (name, trace): measure.run(workload, seed, measure.RUN_SECONDS, SCALE, trace)
        for name, workload in WORKLOADS.items()
        for trace in (False, True)
    }


@pytest.fixture(scope="module")
def records():
    return _run_all(SEED)


def _values(record, names):
    return {name: record["metrics"][name]["value"] for name in names}


def test_every_metric_is_reported_and_no_operation_fails(records):
    per_layer = [name for name, _, _ in layers.PER_LAYER]
    for (name, trace), record in records.items():
        expected = per_layer if trace else list(measure.END_TO_END_UNITS)
        assert sorted(record["metrics"]) == sorted(expected), name
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", metric) for metric in record["metrics"])
        assert record["failed"] == 0 and record["correct"], (name, trace)
        assert record["attempted"] >= 1 and record["checked_requests"] >= 1
        if trace:
            assert record["metrics"]["relalg.shm.leaked_segments"]["value"] == 0
        else:
            assert all(entry["value"] > 0 for entry in record["metrics"].values()), name
            # One database at a time: the peak is the set-up's or the loop's.
            assert record["metrics"]["peak_rss_mb"]["value"] >= record["setup_rss_mb"]
    # The traced quarter of serve_hot must see the layer the workload is for.
    hot = records["serve_hot", True]["metrics"]
    assert hot["service.cache.invalidations"]["value"] > 0
    assert hot["service.cache.invalidate_ms"]["value"] > 0


def test_same_seed_repeats_exactly_and_another_seed_does_not(records):
    again = _run_all(SEED)
    for (name, trace), record in records.items():
        exact = EXACT_PER_LAYER if trace else EXACT_END_TO_END
        assert _values(again[name, trace], exact) == _values(record, exact), (name, trace)
        assert again[name, trace]["output_digest"] == record["output_digest"], (name, trace)
    for name, workload in WORKLOADS.items():
        instance = workload.setup({}, SCALE)
        count = workload.request_count(measure.RUN_SECONDS, SCALE)
        keys = {
            seed: [r.key for r in workload.build_requests(seed, count, instance).measured]
            for seed in (SEED, SEED + 6)
        }
        instance.close()
        assert keys[SEED] != keys[SEED + 6], name


def _processes_marked(mark: str):
    """Ids of the live processes started with ``mark`` in their environment."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                with open(f"/proc/{entry}/environ", "rb") as handle:
                    if mark.encode() in handle.read():
                        found.append(int(entry))
            except OSError:
                continue
    return found


def test_times_are_stated_at_the_reference_core_speed():
    from perfbench import hostspeed

    reference = hostspeed.PROBE_REFERENCE_MS / 1e3
    # Probes every 10 ms: at the reference speed for 1 s, then 1.5x faster.
    times = np.arange(0.0, 2.0, 0.01)
    readings = np.column_stack([times, np.where(times < 1.0, reference, reference / 1.5)])
    starts = np.array([0.5, 1.5, 0.995])
    seconds = np.array([0.004, 0.004, 0.004])
    factors = hostspeed.reference_factors(starts, seconds, readings)
    assert factors[0] == pytest.approx(1.0) and factors[1] == pytest.approx(1.5)
    assert 1.0 <= factors[2] <= 1.5
    # A request with no probe within the window takes the two around it.
    sparse = np.array([[0.0, reference], [5.0, reference / 1.5]])
    assert hostspeed.reference_factors(
        np.array([2.0]), np.array([1.0]), sparse
    )[0] == pytest.approx(1.2)


def test_manifest_and_command_line_agree_with_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == measure.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert manifest["run_seconds"] == measure.RUN_SECONDS
    # star_parallel starts pool workers and, through shared memory, Python's
    # resource tracker, which outlives the interpreter that ran the workload:
    # the command must have reaped them all by the time it returns.
    mark = f"perfbench-test-{os.getpid()}"
    completed = subprocess.run(
        [*manifest["command"], "--workload", "star_parallel", "--seed", str(SEED),
         "--seconds", str(manifest["run_seconds"]), "--scale", str(SCALE), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PERFBENCH_TEST_MARK": mark},
    )
    assert completed.returncode == 0, completed.stderr
    assert _processes_marked(mark) == []
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(measure.END_TO_END_UNITS)
