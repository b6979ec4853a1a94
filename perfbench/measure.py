"""Run one workload in this process: set up, measure, check outputs, trace.

The measured phase is a closed loop: one client thread, zero think time,
the next request sent when the previous reply is in hand.  The request
count is fixed by ``--seconds`` (sized so the phase lasts about that long at
the commit that defined the benchmark), not by a timer, so every run of one
seed serves the same requests and ``plan_work_rows`` repeats exactly.

A run is ``ROUNDS`` rounds of a full set-up and one pass over the list.
Interference from the rest of the host only ever adds time, so each request
is timed by its fastest serving and the timing metrics are taken over
those; and the host's cores change speed by half for tens of seconds at a
stretch, so where the client's own process does the work every serving is
first stated at one reference core speed (see ``hostspeed``).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.relalg import Relation, shm_dir_segments

from perfbench import CLEARED_ENV, PINNED_ENV, hostspeed, layers
from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    HOST_CORES,
    RUN_SECONDS,
    Instance,
    Request,
    RequestList,
    Served,
    Workload,
    _rng,
    timed,
)

#: Rounds per untraced run, at every scale: ``setup_s`` is the median of
#: their set-ups, a request's latency the fastest of its servings.
ROUNDS = 3
#: The traced pass covers this share of the measured list.
TRACE_SHARE = 0.25
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "plan_work_rows": "rows",
}


# --------------------------------------------------------------------------- #
# Outputs
# --------------------------------------------------------------------------- #
def output_bytes(relation: Relation) -> bytes:
    """A relation's columns as bytes: names, dtypes, values, in name order."""
    parts = []
    for name in sorted(relation):
        values = np.asarray(relation[name])
        if values.dtype.hasobject:
            data = "\x1f".join(str(value) for value in values).encode()
        else:
            data = values.tobytes()
        parts.append(f"{name}|{values.dtype.str}|{len(values)}|".encode() + data)
    return b"\x1e".join(parts)


def outputs_close(reference: Relation, measured: Relation) -> bool:
    """Integer and string columns exact, float columns within 1e-9 relative.

    ``reopt_batch`` compares two *different* plans of one query, so float
    sums may differ in their last bits; every other workload compares bytes.
    """
    if sorted(reference) != sorted(measured):
        return False
    for name in reference:
        expected, actual = np.asarray(reference[name]), np.asarray(measured[name])
        if expected.shape != actual.shape or expected.dtype != actual.dtype:
            return False
        if expected.dtype.kind == "f":
            if not np.allclose(actual, expected, rtol=1e-9, atol=0.0, equal_nan=True):
                return False
        elif not np.array_equal(expected, actual):
            return False
    return True


# --------------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------------- #
def _set_up(
    workload: Workload, seed: int, count: int, scale: float, requests: Optional[RequestList]
) -> Tuple[Instance, RequestList, Dict[str, float], float]:
    """One full set-up: data, statistics, samples, service, warm-up.

    Returns the instance, the request list, the phases' wall-clock seconds
    and ``PROBE_REFERENCE_MS`` over the median of three probe readings
    before and three after.
    """
    timings: Dict[str, float] = {}
    probes: List[Tuple[float, float]] = []
    for _ in range(3):
        hostspeed.probe(probes)
    instance = workload.setup(timings, min(1.0, scale))
    if requests is None:
        requests = workload.build_requests(seed, count, instance)
    with timed(timings, "bench.warmup_s"):
        for request in requests.warmup:
            instance.call(request)
    for _ in range(3):
        hostspeed.probe(probes)
    reading_ms = 1e3 * statistics.median(seconds for _, seconds in probes)
    return instance, requests, timings, hostspeed.PROBE_REFERENCE_MS / reading_ms


def _peak_rss_kb() -> int:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


@dataclass
class Pass:
    """One round: the set-up's phase timings and what the loop over it saw."""

    setup: Dict[str, float]
    #: ``PROBE_REFERENCE_MS`` over the probe reading around the set-up.
    setup_factor: float
    #: Each reply, ``None`` where the call raised.
    replies: List[Optional[Served]]
    #: Client-side seconds of each call.
    latencies: np.ndarray
    #: Seconds of each turn of the loop: an invalidation where one is due,
    #: then the call.  They add up to the wall time the client spent on the
    #: program (the probes between turns are the harness's own).
    turns: np.ndarray
    #: ``perf_counter`` at the start of each turn.
    starts: np.ndarray
    #: ``(start, seconds)`` of every ``hostspeed.probe`` of the pass.
    probes: np.ndarray

    def reference_factors(self) -> np.ndarray:
        return hostspeed.reference_factors(self.starts, self.turns, self.probes)


def _closed_loop(
    instance: Instance,
    requests: RequestList,
    limit: int,
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[List[Optional[Served]], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Serve the first ``limit`` requests one after the other; returns the
    ``replies``, ``latencies``, ``turns``, ``starts`` and ``probes`` of a
    :class:`Pass`."""
    call = instance.call
    if recorder is not None:
        call = recorder.wrap("bench.request", call)
        recorder.active = True
    replies: List[Optional[Served]] = []
    latencies = np.zeros(limit)
    turns = np.zeros(limit)
    starts = np.zeros(limit)
    probes: List[Tuple[float, float]] = []
    gc.collect()
    for _ in range(3):
        probed = hostspeed.probe(probes)
    for position, request in enumerate(requests.measured[:limit]):
        starts[position] = time.perf_counter()
        table = requests.invalidate_before.get(position)
        if table is not None:
            instance.invalidate(table)
        if recorder is not None:
            recorder.request_id = position
        started = time.perf_counter()
        try:
            reply: Optional[Served] = call(request)
        except Exception as error:  # a failed operation, counted and reported
            print(f"request {position} ({request.template}) raised {error!r}")
            reply = None
        completed = time.perf_counter()
        latencies[position] = completed - started
        turns[position] = completed - starts[position]
        replies.append(reply)
        if completed - probed >= hostspeed.PROBE_EVERY_SECONDS:
            probed = hostspeed.probe(probes)
    for _ in range(3):
        hostspeed.probe(probes)
    if recorder is not None:
        recorder.active = False
    return replies, latencies, turns, starts, np.array(probes)


def _references(
    workload: Workload, instance: Instance, requests: Sequence[Request], seed: int
) -> Dict[Tuple, Relation]:
    """Reference outputs of a seeded 1-in-``check_every`` sample of the
    distinct requests."""
    distinct = list({request.key: request for request in requests}.values())
    rng = _rng(seed, "check")
    chosen = [
        request for request in distinct
        if workload.check_every == 1 or rng.integers(workload.check_every) == 0
    ] or distinct[:1]
    return {request.key: instance.reference(request) for request in chosen}


def _verify(
    workload: Workload,
    requests: Sequence[Request],
    replies: Sequence[Optional[Served]],
    references: Dict[Tuple, Relation],
) -> Tuple[int, int, str]:
    """``(failed, wrong outputs, sha256 of the outputs in request order)``."""
    exact = workload.name != "reopt_batch"
    reference_bytes = {key: output_bytes(value) for key, value in references.items()}
    digest = hashlib.sha256()
    failed = wrong = 0
    for request, reply in zip(requests, replies):
        if reply is None:
            failed += 1
            continue
        produced = output_bytes(reply.output)
        digest.update(produced)
        if request.key not in references:
            continue
        matches = (
            produced == reference_bytes[request.key]
            if exact
            else outputs_close(references[request.key], reply.output)
        )
        if not matches:
            print(f"wrong output: {request.template} {request.params}")
            wrong += 1
            failed += 1
    return failed, wrong, digest.hexdigest()


def _shares(requests: Sequence[Request], replies: Sequence[Optional[Served]]) -> Dict:
    total = max(1, len(replies))
    by_source = Counter(reply.source if reply else "failed" for reply in replies)
    by_template = Counter(request.template.split(".")[0] for request in requests)
    return {
        "source": {name: count / total for name, count in sorted(by_source.items())},
        "template": {name: count / total for name, count in sorted(by_template.items())},
    }


def _mode_rule(
    workload: Workload, shares: Dict, invalidations: int, full_size: bool
) -> Optional[str]:
    """The rule that keeps p50 and the tail inside one latency mode each.

    ``invalidations`` is how many table invalidations the pass contained.
    """
    hits = shares["source"].get("result_cache", 0.0)
    if workload.name != "serve_hot":
        return "a request was served from the result cache" if hits else None
    if not invalidations:
        return "serve_hot pass contains no invalidation"
    if full_size and not 0.60 <= hits <= 0.85:
        return f"serve_hot hit rate {hits:.3f} outside 0.60-0.85"
    return None


def host_shape(workload: Workload) -> Dict:
    return {
        "host_cores": HOST_CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {name: os.environ.get(name) for name in (*PINNED_ENV, *CLEARED_ENV)},
        "workers": workload.workers,
        "num_shards": workload.num_shards,
        "degraded": workload.degraded,
    }


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def _timing(latencies: np.ndarray, turns: np.ndarray, tail_pct: int) -> Dict[str, float]:
    return {
        "qps": len(turns) / float(turns.sum()),
        "p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "tail_ms": 1e3 * float(np.percentile(latencies, tail_pct)),
        "p99_ms": 1e3 * float(np.percentile(latencies, 99)),
    }


def run(workload: Workload, seed: int, seconds: float, scale: float, trace: bool) -> Dict:
    """Run ``workload`` once and return its record.

    ``trace=False`` measures the end-to-end metrics over ``ROUNDS`` passes
    of the whole list with no wrapper installed.  ``trace=True`` serves the
    first quarter of the same list twice on fresh services — untraced, then
    traced — and reports the per-layer metrics.  Either way the first round
    ends with the peak-memory reading and then the reference pass, while
    this process has held one database and nothing else.
    """
    count = workload.request_count(seconds, scale)
    full_size = count >= workload.request_count(RUN_SECONDS, 1.0)
    limit = max(1, round(count * TRACE_SHARE)) if trace else count

    requests: Optional[RequestList] = None
    passes: List[Pass] = []
    for round_number in range(1 if trace else ROUNDS):
        gc.collect()
        instance, requests, setup, factor = _set_up(workload, seed, count, scale, requests)
        if round_number == 0:
            setup_rss_kb = _peak_rss_kb()
        passes.append(Pass(setup, factor, *_closed_loop(instance, requests, limit)))
        instance.close()
        if round_number == 0:
            # Read before the reference pass, whose plans may need more memory
            # than anything the measured program did, and before any other
            # set-up; pool workers are reaped by now.
            peak_rss_kb = _peak_rss_kb()
            references = _references(workload, instance, requests.measured[:limit], seed)
            instance.close()
        del instance
    assert requests is not None
    measured = requests.measured[:limit]
    served = [each.replies for each in passes]

    record: Dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "requests": limit,
        "warmup_requests": len(requests.warmup),
        "checked_requests": sum(1 for request in measured if request.key in references),
        "host": host_shape(workload),
    }

    if trace:
        recorder = SpanRecorder()
        recorder.install(layers.KEEP_RESULTS)
        try:
            instance, *_ = _set_up(workload, seed, count, scale, requests)
            before = instance.counters()
            replies, traced_latencies, *_ = _closed_loop(instance, requests, limit, recorder)
            after = instance.counters()
            instance.close()
            del instance
        finally:
            recorder.uninstall()
        served.append(replies)
        metrics = layers.compute(
            workload,
            recorder,
            [reply for reply in replies if reply is not None],
            {name: after[name] - before[name] for name in after},
            passes[0].setup,
            len(shm_dir_segments()),
            float(traced_latencies.mean()),
            float(passes[0].latencies.mean()),
        )
        recorder.write(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}

    checks = [_verify(workload, measured, replies, references) for replies in served]
    failed = sum(check[0] for check in checks)
    shares = _shares(measured, served[-1])
    invalidations = sum(1 for position in requests.invalidate_before if position < limit)
    problems = [_mode_rule(workload, shares, invalidations, full_size and not trace)]
    # One client, one seed: every pass must do the same work and give the
    # same outputs.
    work_rows = [sum(reply.work_rows for reply in replies if reply) for replies in served]
    if len(set(work_rows)) != 1:
        problems.append(f"plan_work_rows differs between passes: {work_rows}")
    if len({check[2] for check in checks}) != 1:
        problems.append("output_digest differs between passes")
    problems = [problem for problem in problems if problem]
    for problem in problems:
        print(f"broken rule: {problem}")

    if not trace:
        tail_pct = 95 if limit >= 400 else 80
        clock_share = (
            hostspeed.CLOCK_SHARE if workload.workers == 1 else hostspeed.POOL_CLOCK_SHARE
        )
        scales = [each.reference_factors() ** clock_share for each in passes]
        fastest = _timing(
            np.min([each.latencies * scale for each, scale in zip(passes, scales)], axis=0),
            np.min([each.turns * scale for each, scale in zip(passes, scales)], axis=0),
            tail_pct,
        )
        setups = [sum(each.setup.values()) for each in passes]
        metrics = {
            # Every set-up runs in the client's process.
            "setup_s": statistics.median(
                seconds * each.setup_factor ** hostspeed.CLOCK_SHARE
                for seconds, each in zip(setups, passes)
            ),
            "qps": fastest["qps"] * (limit - max(check[0] for check in checks)) / limit,
            "p50_ms": fastest["p50_ms"],
            "tail_ms": fastest["tail_ms"],
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "plan_work_rows": work_rows[0],
        }
        record["tail_pct"] = tail_pct
        record["p99_ms"] = fastest["p99_ms"]
        record["measured_wall_s"] = sum(float(each.turns.sum()) for each in passes)
        record["setup_rss_mb"] = setup_rss_kb / 1024.0
        record["clock_share"] = clock_share
        #: What each pass alone showed on the wall clock, and the median
        #: probe reading beside it.
        record["passes"] = [
            {
                "setup_s": setup,
                "probe_ms": 1e3 * float(np.median(each.probes[:, 1])),
                **_timing(each.latencies, each.turns, tail_pct),
            }
            for setup, each in zip(setups, passes)
        ]
        units = END_TO_END_UNITS

    record.update(
        attempted=limit * len(served),
        failed=failed,
        wrong_output=sum(check[1] for check in checks),
        correct=failed == 0 and not problems,
        output_digest=checks[0][2],
        shares=shares,
        metrics={
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    )
    return record
