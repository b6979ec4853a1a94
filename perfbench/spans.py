"""Spans recorded from the benchmark's side of each layer boundary.

``install`` replaces the listed **public** callables of ``src/repro`` with
wrappers that record one span per call — name, start, end, the span that
caused it and the request it belongs to — into memory.  Nothing inside
``src/repro`` knows about it; functions imported by name into other modules
are patched in every ``repro`` module that holds a reference.

Only calls on the client thread of the installing process are recorded:
wrappers inherited by forked pool workers, or reached from a pool thread,
pass straight through (worker-side time is read from ``SchedulerStats``).

A layer's *self time* is a span's duration minus the part its child spans
cover; the per-layer metrics are sums of self times by span name.
"""

from __future__ import annotations

import functools
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: (owner, attribute) pairs wrapped under each span name.  An owner is a
#: dotted path to a class, or to a module for a plain function.
TARGETS: Dict[str, Sequence[Tuple[str, str]]] = {
    "sql.bind_ms": (
        ("repro.service.service.QueryService", "prepare"),
        ("repro.service.coordinator.ShardedQueryService", "prepare"),
        ("repro.service.templates.PreparedStatement", "bind"),
        ("repro.service.templates.PreparedStatement", "binding_key"),
    ),
    "service.self_ms": (("repro.service.service.QueryService", "execute"),),
    "service.cache.get_ms": (("repro.service.cache.ResultCache", "get"),),
    "service.cache.put_ms": (("repro.service.cache.ResultCache", "put"),),
    "service.cache.invalidate_ms": (
        ("repro.service.cache.ResultCache", "invalidate_table"),
    ),
    "service.admission.acquire_ms": (
        ("repro.service.admission.AdmissionController", "acquire"),
        ("repro.service.admission.AdmissionController", "release"),
    ),
    "cardinality.validate_ms": (
        ("repro.cardinality.sampling_estimator", "validate_plan_for_bindings"),
        ("repro.cardinality.sampling_estimator.SamplingEstimator", "validate_plan"),
    ),
    "optimizer.plan_ms": (
        ("repro.optimizer.optimizer.Optimizer", "optimize"),
        ("repro.optimizer.optimizer.PlanningSession", "optimize"),
    ),
    "reopt.self_ms": (
        ("repro.reopt.algorithm", "reoptimize"),
        ("repro.reopt.algorithm.Reoptimizer", "reoptimize"),
    ),
    "executor.self_ms": (
        ("repro.executor.executor.Executor", "execute_plan"),
        ("repro.executor.executor.Executor", "execute_fragment"),
    ),
    "executor.canonical_sort_ms": (
        ("repro.executor.materialization", "canonicalize_relation"),
        ("repro.service.service", "finalize_canonical_execution"),
    ),
    "relalg.filter_ms": (
        ("repro.relalg.predicates", "filter_relation"),
        ("repro.relalg.predicates", "predicate_mask"),
    ),
    "relalg.join_ms": (
        ("repro.relalg.joins", "hash_join"),
        ("repro.relalg.joins", "parallel_hash_join"),
        ("repro.relalg.joins", "merge_join"),
        ("repro.relalg.joins", "nested_loop_join"),
    ),
    "relalg.aggregate_ms": (
        ("repro.relalg.aggregate", "group_aggregate"),
        ("repro.relalg.aggregate", "partial_aggregate"),
        ("repro.relalg.aggregate", "merge_partials"),
    ),
    "relalg.scheduler.map_kernel_ms": (
        ("repro.relalg.scheduler.TaskScheduler", "map_kernel"),
    ),
    "relalg.shm.share_ms": (
        ("repro.relalg.shm.ShmArena", "share_relation"),
        ("repro.relalg.shm.ShmArena", "share_column"),
        ("repro.relalg.shm.ShmArena", "share_array"),
    ),
    "coordinator.self_ms": (
        ("repro.service.coordinator.ShardedQueryService", "execute"),
    ),
}

#: A span: (name, start, end, index of the parent span or -1, request id).
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Spans of one traced pass, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Values returned by wrapped callables, by span name, for the
        #: counters the program reports through its return values.
        self.returned: Dict[str, List[object]] = defaultdict(list)
        self.request_id = -1
        self.active = False
        self._stack: List[int] = []
        self._owner = (os.getpid(), threading.get_ident())
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn: Callable, keep_result: bool = False) -> Callable:
        """``fn`` recording one ``name`` span per call on the client thread."""
        spans = self.spans
        stack = self._stack
        kept = self.returned[name]

        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            if not self.active or (os.getpid(), threading.get_ident()) != self._owner:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # children come first
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                spans[index] = (name, started, ended, parent, self.request_id)
            if keep_result:
                kept.append(result)
            return result

        return wrapper

    def install(self, keep_results: Sequence[str] = ()) -> None:
        """Wrap every target; ``keep_results`` names the spans whose return
        values are kept (by ``owner.attribute``)."""
        for name, targets in TARGETS.items():
            for owner_path, attribute in targets:
                owner = pkgutil.resolve_name(owner_path)
                original = getattr(owner, attribute)
                wrapper = self.wrap(
                    name, original, f"{owner_path}.{attribute}" in keep_results
                )
                holders = [owner]
                if not isinstance(owner, type):
                    # A plain function: also patch every repro module that
                    # imported it by name.
                    holders = [
                        module
                        for module_name, module in list(sys.modules.items())
                        if module is not None
                        and (module_name == "repro" or module_name.startswith("repro."))
                        and getattr(module, attribute, None) is original
                    ]
                for holder in holders:
                    self._restore.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._restore):
            setattr(holder, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_seconds = [0.0] * len(self.spans)
        for _, started, ended, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += ended - started
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, started, ended, _, _) in enumerate(self.spans):
            totals[name] += (ended - started) - child_seconds[index]
        return totals

    def outermost_seconds(self, name: str) -> float:
        """Total duration of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for span_name, started, ended, parent, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += ended - started
        return total

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, started, ended, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": started, "end": ended,
                    "parent": parent, "request": request,
                }) + "\n")
