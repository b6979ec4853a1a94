"""Config-driven load generator for the query service.

Drives a :class:`~repro.service.QueryService` (or the sharded coordinator —
anything with the service ``execute`` signature) with a reproducible request
stream over a zipf-skewed mix of prepared templates, and collects the
per-request traces (:class:`~repro.service.tracing.RequestTrace`) the
latency harness aggregates into p50/p95/p99, shed rate and per-stage
breakdowns.

The arrival process is a **closed loop**: ``num_clients`` synchronous
clients each issue a request, wait for the response, think for
``think_time_s`` and repeat.  Offered load adapts to service speed; this is
the process that models interactive sessions and measures latency at a
sustainable operating point.

Reproducibility contract: :func:`build_schedule` is a pure function of the
config — every random draw (template choice via zipf weights) comes from
one ``numpy.random.default_rng(seed)`` consumed in a single thread, and
clients are assigned round-robin, so the same config always yields the
bit-identical schedule.  Execution timing is of course wall-clock, but the
*work* (which template, which binding, which client, in which order per
client) is seed-determined, and query outputs are bit-identical across
runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.bench.reporting import LatencySummary, stage_breakdown, summarize_latencies
from repro.clock import monotonic_s
from repro.relalg import Relation
from repro.service.admission import BackpressureError
from repro.service.tracing import RequestTrace
from repro.sql.ast import Bindings, Query


class _ExecutesStatements(Protocol):
    """Structural type of the services loadgen can drive."""

    def execute(
        self,
        statement: Query,
        params: Optional[Bindings] = None,
        client: str = "default",
        trace: Optional[RequestTrace] = None,
    ) -> object: ...


@dataclass(frozen=True)
class TemplateMix:
    """The prepared statements and binding sets a load run draws from.

    ``weights`` ranks the flattened (template, binding) pairs for the zipf
    skew: pair ``k`` (0-based, in the deterministic order ``pairs()``
    returns) is drawn with probability proportional to ``1 / (k+1)**s``.
    """

    templates: Tuple[Query, ...]
    bindings: Tuple[Tuple[str, Tuple[Bindings, ...]], ...]

    @classmethod
    def build(
        cls, templates: Sequence[Query], bindings: Dict[str, Sequence[Bindings]]
    ) -> "TemplateMix":
        """Freeze a template list plus bindings-by-template-name into a mix."""
        ordered = tuple(templates)
        named = tuple(
            (template.name, tuple(bindings[template.name])) for template in ordered
        )
        return cls(templates=ordered, bindings=named)

    def pairs(self) -> List[Tuple[int, int]]:
        """All (template_index, binding_index) pairs, deterministic order."""
        out: List[Tuple[int, int]] = []
        for template_index, (_, binding_set) in enumerate(self.bindings):
            for binding_index in range(len(binding_set)):
                out.append((template_index, binding_index))
        return out

    def lookup(self, template_index: int, binding_index: int) -> Tuple[Query, Bindings]:
        template = self.templates[template_index]
        return template, self.bindings[template_index][1][binding_index]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: clients, mix skew, scale, seed."""

    #: Total requests in the schedule.
    num_requests: int = 100
    #: Number of synchronous clients.
    num_clients: int = 4
    #: Seconds each client thinks between its requests.
    think_time_s: float = 0.0
    #: Zipf skew exponent over the (template, binding) pairs; ``0`` is
    #: uniform, ``1`` is the classic web-workload skew.
    zipf_s: float = 1.0
    #: Seed of the one RNG every schedule draw comes from.
    seed: int = 17

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")


@dataclass(frozen=True)
class ScheduledRequest:
    """One request of the schedule (pure data, no timing state)."""

    index: int
    client: str
    template_index: int
    binding_index: int


@dataclass
class LoadResult:
    """Everything one load run measured."""

    config: LoadgenConfig
    #: Wall seconds from the first request to the last response.
    wall_s: float = 0.0
    #: Requests offered / completed / rejected.
    offered: int = 0
    completed: int = 0
    shed: int = 0
    timed_out: int = 0
    #: Completed requests per wall second.
    achieved_qps: float = 0.0
    #: Rejected (shed + timed out) fraction of offered requests.
    shed_rate: float = 0.0
    #: Latency summary over *completed* requests only.
    latency: LatencySummary = field(default_factory=LatencySummary)
    #: Mean seconds per serving stage over completed requests.
    stages: Dict[str, float] = field(default_factory=dict)
    #: Completed-request count per serving source (fresh/result_cache/...).
    sources: Dict[str, int] = field(default_factory=dict)
    #: Every request's trace, completed and rejected alike.
    traces: List[RequestTrace] = field(default_factory=list)
    #: (template name, binding index) → output columns, for bit-identity
    #: checks across runs.
    outputs: Dict[Tuple[str, int], Relation] = field(default_factory=dict)


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Normalized zipf(s) probabilities over ``count`` ranks."""
    if count <= 0:
        raise ValueError("count must be positive")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, float(s))
    return weights / weights.sum()


def build_schedule(config: LoadgenConfig, mix: TemplateMix) -> List[ScheduledRequest]:
    """The full request schedule — a pure function of ``config`` and ``mix``.

    All draws come from one seeded generator consumed sequentially in this
    single-threaded function, so the schedule is bit-reproducible: same
    config and mix, same schedule, always.
    """
    rng = np.random.default_rng(config.seed)
    pairs = mix.pairs()
    weights = zipf_weights(len(pairs), config.zipf_s)
    choices = rng.choice(len(pairs), size=config.num_requests, p=weights)
    schedule: List[ScheduledRequest] = []
    for index in range(config.num_requests):
        template_index, binding_index = pairs[int(choices[index])]
        schedule.append(
            ScheduledRequest(
                index=index,
                client=f"client{index % config.num_clients}",
                template_index=template_index,
                binding_index=binding_index,
            )
        )
    return schedule


class _RunCollector:
    """Thread-safe accumulation of traces and outputs during a run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.traces: List[RequestTrace] = []
        self.outputs: Dict[Tuple[str, int], Relation] = {}

    def record(
        self,
        trace: RequestTrace,
        key: Optional[Tuple[str, int]] = None,
        columns: Optional[Relation] = None,
    ) -> None:
        with self.lock:
            self.traces.append(trace)
            if key is not None and columns is not None:
                self.outputs[key] = columns


def _issue(
    service: _ExecutesStatements,
    mix: TemplateMix,
    request: ScheduledRequest,
    collector: _RunCollector,
) -> None:
    """Issue one scheduled request and record its trace (never raises)."""
    template, binding = mix.lookup(request.template_index, request.binding_index)
    trace = RequestTrace(client=request.client)
    try:
        result = service.execute(template, binding, client=request.client, trace=trace)
    except BackpressureError:
        collector.record(trace)  # outcome/waited stamped by the service
        return
    columns = getattr(getattr(result, "execution", None), "columns", None)
    key = (template.name, request.binding_index)
    collector.record(trace, key=key, columns=columns)


def _run_closed_loop(
    service: _ExecutesStatements,
    mix: TemplateMix,
    schedule: Sequence[ScheduledRequest],
    config: LoadgenConfig,
    collector: _RunCollector,
) -> float:
    """N synchronous clients, each request → response → think → repeat."""
    by_client: Dict[str, List[ScheduledRequest]] = {}
    for request in schedule:
        by_client.setdefault(request.client, []).append(request)
    started = monotonic_s()

    def client_session(requests: List[ScheduledRequest]) -> None:
        for position, request in enumerate(requests):
            _issue(service, mix, request, collector)
            if config.think_time_s > 0 and position + 1 < len(requests):
                pause = threading.Event()
                pause.wait(timeout=config.think_time_s)

    threads = [
        threading.Thread(target=client_session, args=(requests,))
        for _, requests in sorted(by_client.items())
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return monotonic_s() - started


def run_load(
    service: _ExecutesStatements, mix: TemplateMix, config: LoadgenConfig
) -> LoadResult:
    """Run one configured load against ``service`` and aggregate the traces."""
    schedule = build_schedule(config, mix)
    collector = _RunCollector()
    wall_s = _run_closed_loop(service, mix, schedule, config, collector)

    traces = collector.traces
    ok = [trace for trace in traces if trace.outcome == "ok"]
    shed = sum(1 for trace in traces if trace.outcome == "shed")
    timed_out = sum(1 for trace in traces if trace.outcome == "timeout")
    sources: Dict[str, int] = {}
    for trace in ok:
        sources[trace.source] = sources.get(trace.source, 0) + 1
    result = LoadResult(
        config=config,
        wall_s=wall_s,
        offered=len(traces),
        completed=len(ok),
        shed=shed,
        timed_out=timed_out,
        achieved_qps=len(ok) / max(wall_s, 1e-9),
        shed_rate=(shed + timed_out) / max(len(traces), 1),
        latency=summarize_latencies([trace.total_s for trace in ok]),
        stages=stage_breakdown(ok),
        sources=dict(sorted(sources.items())),
        traces=traces,
        outputs=collector.outputs,
    )
    return result

