"""Per-request tracing: where did this request's latency go?

A :class:`RequestTrace` rides along one ``execute`` call through the whole
serving stack — admission (queue wait), the sampling validator, Algorithm 1
planning, the join pipeline, and the canonical-order merge/finalize stage —
and comes back with one wall-clock duration per stage, all read from the
shared monotonic clock (:func:`repro.clock.monotonic_s`), so the
stages of one request are directly comparable with each other and with the
admission deadline the request ran under.

``perfbench`` sums the stage fields into its per-layer times; a trace costs
two clock reads per stage and allocates nothing after construction, so it
is cheap enough to leave on for every request.

Callers can pass their own trace into
:meth:`repro.service.QueryService.execute` to keep it even when the request
is shed with :class:`~repro.service.admission.BackpressureError`; when they
don't, the service creates one and attaches it to the returned
:class:`~repro.service.service.ServiceResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RequestTrace"]


@dataclass
class RequestTrace:
    """Per-stage wall-clock accounting of one served (or shed) request.

    All durations are seconds on the shared monotonic clock.  Stages a
    request never entered stay ``0.0`` — e.g. a result-cache hit has only
    ``total_s``, a validated reuse has no ``planning_s``, and a shed
    request has only ``queue_wait_s``.
    """

    #: Prepared-statement name (filled once the statement is normalized).
    template: str = ""
    #: How the request was served — the cache-hit class: ``result_cache``,
    #: ``coalesced``, ``validated_reuse``, ``replan``, ``fresh`` or a
    #: ``scatter_*`` mode on the sharded coordinator.  Empty while in flight
    #: and for shed requests.
    source: str = ""
    #: ``ok``, or how the request failed: ``shed`` (admission queue full),
    #: ``timeout`` (admission/coalesce deadline expired).
    outcome: str = "ok"
    #: Seconds spent waiting for an execution slot (admission queue), or for
    #: a coalesced leader's published result.
    queue_wait_s: float = 0.0
    #: Seconds the sampling validator spent guarding the cached plan.
    validation_s: float = 0.0
    #: Seconds inside Algorithm 1 (fresh plan or drift replan).
    planning_s: float = 0.0
    #: Seconds executing the join pipeline (scatter fragments included).
    execution_s: float = 0.0
    #: Seconds merging/finalizing: canonical-order sort + final
    #: projection/aggregation stage (single node), or the coordinator's
    #: partial/gather merge (sharded).
    merge_s: float = 0.0
    #: End-to-end service-side latency (every stage plus overhead).
    total_s: float = 0.0
