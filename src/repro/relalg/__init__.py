"""The shared vectorised relational-algebra core.

Every layer that evaluates relational operators — the physical executor
(:mod:`repro.executor`), the sampling-based cardinality estimator
(:mod:`repro.cardinality.sampling_estimator`) and ANALYZE
(:mod:`repro.stats.analyze`) — runs on the kernels in this package; none of
them carries a private kernel copy.

Layout
------
``relation``
    The :class:`Relation` runtime representation (qualified column →
    NumPy array / dictionary-encoded column) with an explicit row count.
``encoding``
    Dictionary encoding for string columns (``int32`` codes into a sorted
    dictionary) plus the shared key-factorization used by the join kernels.
``predicates``
    Compiled local-predicate evaluation (``= <> < <= > >= IN BETWEEN``).
``joins``
    Hash, sort-merge, block nested-loop and index-probe equi-join kernels,
    plus the partition-parallel hash join.
``aggregate``
    ``reduceat``-based grouped aggregation (serial and chunk-parallel).
``scheduler``
    The shared morsel-task scheduler (bounded worker pool with ordered,
    deterministic result collection) every parallel kernel dispatches onto.
    Kernel tasks run on a persistent pool of worker *processes*, with
    adaptive per-stage morsel sizing; coordination tasks stay on threads.
``shm``
    The shared-memory column transport of the process runtime: refcounted
    segment registry, scoped arenas, ``(segment, dtype, offset, length)``
    descriptors and zero-copy worker-side attachment.

The parallel paths are **bit-identical** to their serial counterparts: task
results are always merged in deterministic (morsel/partition) order, and
float reductions keep their serial accumulation order by aligning chunk
boundaries with group boundaries.
"""

from repro.relalg.aggregate import (
    group_aggregate,
    merge_partials,
    partial_aggregate,
    partial_merge_exact,
)
from repro.relalg.encoding import (
    ColumnData,
    DictEncodedArray,
    column_fingerprint,
    decode_column,
    factorize_pair,
    slice_column,
    take_column,
    value_counts,
)
from repro.relalg.joins import (
    hash_join,
    index_nested_loop_join,
    join_indices,
    merge_join,
    nested_loop_join,
    parallel_hash_join,
    parallel_join_indices,
)
from repro.relalg.predicates import (
    compile_predicate,
    filter_relation,
    predicate_mask,
)
from repro.relalg.relation import (
    DEFAULT_MORSEL_ROWS,
    ChunkedRelation,
    Relation,
    RelationLike,
    as_relation,
    concat_relations,
    relation_num_rows,
)
from repro.relalg.scheduler import (
    AdaptiveMorselSizer,
    TaskScheduler,
    default_worker_count,
    get_default_scheduler,
    resolve_worker_count,
    set_default_scheduler,
)
from repro.relalg.shm import (
    ArrayDescriptor,
    ColumnDescriptor,
    RelationDescriptor,
    SegmentRegistry,
    ShmArena,
    attach_array,
    attach_column,
    attach_columns,
    segment_registry,
    shm_dir_segments,
)

__all__ = [
    "AdaptiveMorselSizer",
    "ArrayDescriptor",
    "ChunkedRelation",
    "ColumnData",
    "ColumnDescriptor",
    "DEFAULT_MORSEL_ROWS",
    "DictEncodedArray",
    "Relation",
    "RelationLike",
    "RelationDescriptor",
    "SegmentRegistry",
    "ShmArena",
    "TaskScheduler",
    "as_relation",
    "attach_array",
    "attach_column",
    "attach_columns",
    "column_fingerprint",
    "compile_predicate",
    "concat_relations",
    "decode_column",
    "default_worker_count",
    "factorize_pair",
    "filter_relation",
    "get_default_scheduler",
    "group_aggregate",
    "hash_join",
    "index_nested_loop_join",
    "join_indices",
    "merge_join",
    "merge_partials",
    "nested_loop_join",
    "parallel_hash_join",
    "parallel_join_indices",
    "partial_aggregate",
    "partial_merge_exact",
    "predicate_mask",
    "relation_num_rows",
    "resolve_worker_count",
    "segment_registry",
    "set_default_scheduler",
    "shm_dir_segments",
    "slice_column",
    "take_column",
    "value_counts",
]
