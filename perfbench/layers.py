"""Per-layer metrics of one traced pass.

``PER_LAYER`` is the list ``BENCHMARK.json`` repeats: name, unit, direction.
Times are self times (see :mod:`perfbench.spans`) as mean ms per traced
request; counts come from objects the program already returns.  A layer a
workload bypasses reports zero, never a missing name.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from perfbench.spans import TARGETS, SpanRecorder
from perfbench.workloads import Served, Workload

#: Set-up phases, timed by the benchmark around the public set-up calls.
SETUP_PHASES = (
    "storage.generate_s",
    "stats.analyze_s",
    "storage.create_samples_s",
    "service.shard_database_s",
    "service.construct_s",
    "bench.warmup_s",
)

#: The serving entry points: time they do not pass on to a wrapped callee is
#: what ``bench.attributed_share`` counts as unattributed.
ENTRY_SPANS = ("bench.request", "service.self_ms", "coordinator.self_ms")

#: Spans whose return values carry counters (``owner.attribute``).
KEEP_RESULTS = (
    "repro.cardinality.sampling_estimator.SamplingEstimator.validate_plan",
    "repro.reopt.algorithm.Reoptimizer.reoptimize",
    "repro.relalg.shm.ShmArena.share_array",
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sql.bind_ms", "ms", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("service.source.result_cache", "count", "higher"),
    ("service.source.validated_reuse", "count", "higher"),
    ("service.source.replan", "count", "lower"),
    ("service.source.fresh", "count", "lower"),
    ("service.drift_replan_rate", "ratio", "lower"),
    ("service.cache.get_ms", "ms", "lower"),
    ("service.cache.put_ms", "ms", "lower"),
    ("service.cache.invalidate_ms", "ms", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.cache.evictions", "count", "lower"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.admission.acquire_ms", "ms", "lower"),
    ("service.admission.queue_wait_ms", "ms", "lower"),
    ("cardinality.validate_ms", "ms", "lower"),
    ("cardinality.sample_join_row_ops", "count", "lower"),
    ("cardinality.joins_validated", "count", "lower"),
    ("cardinality.prefix_cache_hit_rate", "ratio", "higher"),
    ("optimizer.plan_ms", "ms", "lower"),
    ("optimizer.dp_masks_expanded", "count", "lower"),
    ("optimizer.incremental_mask_ratio", "ratio", "lower"),
    ("reopt.self_ms", "ms", "lower"),
    ("reopt.rounds", "count", "lower"),
    ("reopt.plans_changed", "count", "higher"),
    ("reopt.overhead_share", "ratio", "lower"),
    ("executor.self_ms", "ms", "lower"),
    ("executor.canonical_sort_ms", "ms", "lower"),
    ("executor.rows_out", "count", "lower"),
    ("executor.median_q_error", "ratio", "lower"),
    ("relalg.filter_ms", "ms", "lower"),
    ("relalg.join_ms", "ms", "lower"),
    ("relalg.aggregate_ms", "ms", "lower"),
    ("relalg.scheduler.map_kernel_ms", "ms", "lower"),
    ("relalg.scheduler.busy_ms", "ms", "lower"),
    ("relalg.scheduler.efficiency", "ratio", "higher"),
    ("relalg.scheduler.tasks_process", "count", "lower"),
    ("relalg.scheduler.tasks_inline", "count", "lower"),
    ("relalg.shm.share_ms", "ms", "lower"),
    ("relalg.shm.bytes_shared", "bytes", "lower"),
    ("relalg.shm.leaked_segments", "count", "lower"),
    ("coordinator.self_ms", "ms", "lower"),
    ("coordinator.scatter_ms", "ms", "lower"),
    ("coordinator.merge_ms", "ms", "lower"),
    ("coordinator.partial_merges", "count", "lower"),
    ("coordinator.gather_merges", "count", "lower"),
    ("coordinator.fallback_queries", "count", "lower"),
    ("coordinator.inline_shard_reruns", "count", "lower"),
    ("coordinator.gossip_entries", "count", "lower"),
    ("storage.generate_s", "s", "lower"),
    ("stats.analyze_s", "s", "lower"),
    ("storage.create_samples_s", "s", "lower"),
    ("service.shard_database_s", "s", "lower"),
    ("service.construct_s", "s", "lower"),
    ("bench.warmup_s", "s", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.attributed_share", "ratio", "higher"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(
    workload: Workload,
    recorder: SpanRecorder,
    served: Sequence[Served],
    counters: Mapping[str, float],
    setup_phases: Mapping[str, float],
    leaked_segments: int,
    traced_mean_s: float,
    untraced_mean_s: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass.

    ``counters`` is the difference of ``Instance.counters()`` across the
    pass; ``served`` the pass's results in request order.
    """
    requests = max(1, len(served))
    self_seconds = recorder.self_seconds()
    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in TARGETS:
        metrics[name] = 1e3 * self_seconds.get(name, 0.0) / requests

    for source in ("result_cache", "validated_reuse", "replan", "fresh"):
        metrics[f"service.source.{source}"] = counters.get(f"source.{source}", 0)
    metrics["service.drift_replan_rate"] = _ratio(
        counters.get("source.replan", 0),
        counters.get("source.replan", 0) + counters.get("source.validated_reuse", 0),
    )
    metrics["service.cache.hit_rate"] = _ratio(
        counters.get("cache.hits", 0),
        counters.get("cache.hits", 0) + counters.get("cache.misses", 0),
    )
    metrics["service.cache.evictions"] = counters.get("cache.evictions", 0)
    metrics["service.cache.invalidations"] = counters.get("cache.invalidations", 0)

    traces = [item.result.trace for item in served if hasattr(item.result, "trace")]
    metrics["service.admission.queue_wait_ms"] = (
        1e3 * sum(trace.queue_wait_s for trace in traces) / requests
    )
    if workload.num_shards > 1:
        metrics["coordinator.scatter_ms"] = (
            1e3 * sum(trace.execution_s for trace in traces) / requests
        )
        metrics["coordinator.merge_ms"] = (
            1e3 * sum(trace.merge_s for trace in traces) / requests
        )
    for name in (
        "partial_merges", "gather_merges", "fallback_queries",
        "inline_shard_reruns", "gossip_entries",
    ):
        metrics[f"coordinator.{name}"] = counters.get(f"coordinator.{name}", 0)

    validations = recorder.returned["cardinality.validate_ms"]
    joins_validated = sum(v.joins_validated for v in validations)
    metrics["cardinality.sample_join_row_ops"] = sum(
        v.sample_join_row_ops for v in validations
    )
    metrics["cardinality.joins_validated"] = joins_validated
    metrics["cardinality.prefix_cache_hit_rate"] = _ratio(
        sum(v.prefix_cache_hits for v in validations), joins_validated
    )

    reoptimizations = recorder.returned["reopt.self_ms"]
    first_round = later_rounds = 0
    for result in reoptimizations:
        masks = [m or 0 for m in result.report.dp_masks_per_round()]
        first_round += masks[0]
        later_rounds += sum(masks[1:])
    metrics["optimizer.dp_masks_expanded"] = first_round + later_rounds
    metrics["optimizer.incremental_mask_ratio"] = _ratio(later_rounds, first_round)
    metrics["reopt.rounds"] = sum(result.rounds for result in reoptimizations)
    metrics["reopt.plans_changed"] = sum(
        1 for result in reoptimizations if result.plan_changed
    )
    reopt_seconds = recorder.outermost_seconds("reopt.self_ms")
    metrics["reopt.overhead_share"] = _ratio(
        reopt_seconds, reopt_seconds + recorder.outermost_seconds("executor.self_ms")
    )

    executions = [
        item.result[1] if isinstance(item.result, tuple) else item.result.execution
        for item in served
        if item.source != "result_cache"
    ]
    metrics["executor.rows_out"] = sum(execution.num_rows for execution in executions)
    q_errors: List[float] = []
    for execution in executions:
        for node in execution.node_executions:
            estimated = max(1.0, float(node.estimated_rows))
            actual = max(1.0, float(node.actual_rows))
            q_errors.append(max(estimated, actual) / min(estimated, actual))
    metrics["executor.median_q_error"] = statistics.median(q_errors) if q_errors else 0.0

    busy_seconds = counters.get("scheduler.busy_s", 0.0)
    map_kernel_seconds = recorder.outermost_seconds("relalg.scheduler.map_kernel_ms")
    metrics["relalg.scheduler.busy_ms"] = 1e3 * busy_seconds / requests
    metrics["relalg.scheduler.efficiency"] = _ratio(
        busy_seconds, workload.workers * map_kernel_seconds
    )
    metrics["relalg.scheduler.tasks_process"] = counters.get("scheduler.tasks_process", 0)
    metrics["relalg.scheduler.tasks_inline"] = counters.get("scheduler.tasks_inline", 0)
    metrics["relalg.shm.bytes_shared"] = sum(
        descriptor.length * np.dtype(descriptor.dtype).itemsize
        for descriptor in recorder.returned["relalg.shm.share_ms"]
    )
    metrics["relalg.shm.leaked_segments"] = leaked_segments

    for phase in SETUP_PHASES:
        metrics[phase] = setup_phases.get(phase, 0.0)
    metrics["bench.trace_overhead_share"] = _ratio(
        traced_mean_s - untraced_mean_s, untraced_mean_s
    )
    unattributed = sum(self_seconds.get(name, 0.0) for name in ENTRY_SPANS)
    metrics["bench.attributed_share"] = 1.0 - _ratio(
        unattributed, recorder.outermost_seconds("bench.request")
    )
    return metrics
