"""The query service layer: prepared statements served through a
sampling-validated plan cache, an epoch-stamped result cache and a FIFO
admission gate (see :mod:`repro.service.service`), plus the sharded
scatter-gather coordinator over hash-partitioned catalog slices
(:mod:`repro.service.coordinator`, :mod:`repro.service.sharding`)."""

from __future__ import annotations

from repro.service.admission import AdmissionController, BackpressureError
from repro.service.cache import (
    PlanCacheEntry,
    ResultCache,
    ResultCacheStats,
    max_drift,
)
from repro.service.coordinator import (
    ShardedQueryService,
    ShardedServiceStats,
)
from repro.service.service import (
    QueryService,
    ServiceResult,
    ServiceSettings,
    ServiceStats,
)
from repro.service.sharding import (
    ShardRouting,
    ShardingSpec,
    hash_partition,
    route_query,
    shard_database,
)
from repro.service.templates import (
    PreparedStatement,
    prepare_statement,
)
from repro.service.tracing import (
    STAGE_FIELDS,
    RequestTrace,
)

__all__ = [
    "STAGE_FIELDS",
    "RequestTrace",
    "AdmissionController",
    "BackpressureError",
    "PlanCacheEntry",
    "PreparedStatement",
    "QueryService",
    "ResultCache",
    "ResultCacheStats",
    "ServiceResult",
    "ServiceSettings",
    "ServiceStats",
    "ShardRouting",
    "ShardedQueryService",
    "ShardedServiceStats",
    "ShardingSpec",
    "hash_partition",
    "max_drift",
    "prepare_statement",
    "route_query",
    "shard_database",
]
