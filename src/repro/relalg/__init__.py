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
    Hash, sort-merge, block nested-loop and index-probe equi-join kernels.
``aggregate``
    ``reduceat``-based grouped aggregation, plus the shard partial/merge
    kernels of the sharded coordinator.
``scheduler``
    The in-process task runner the sharded coordinator submits its scatter
    to (runs in order in the caller, counts tasks and busy seconds).
``shm``
    Only the names the frozen benchmark resolves: the ``/dev/shm`` leak
    audit and an :class:`~repro.relalg.shm.ShmArena` whose methods raise.

Every operator of a query runs serially in the caller's process.
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
    decode_column,
    factorize_pair,
    take_column,
    value_counts,
)
from repro.relalg.joins import (
    hash_join,
    index_nested_loop_join,
    join_indices,
    merge_join,
    nested_loop_join,
)
from repro.relalg.predicates import (
    compile_predicate,
    filter_relation,
    predicate_mask,
)
from repro.relalg.relation import (
    Relation,
    concat_relations,
)
from repro.relalg.scheduler import TaskScheduler
from repro.relalg.shm import shm_dir_segments

__all__ = [
    "ColumnData",
    "DictEncodedArray",
    "Relation",
    "TaskScheduler",
    "compile_predicate",
    "concat_relations",
    "decode_column",
    "factorize_pair",
    "filter_relation",
    "group_aggregate",
    "hash_join",
    "index_nested_loop_join",
    "join_indices",
    "merge_join",
    "merge_partials",
    "nested_loop_join",
    "partial_aggregate",
    "partial_merge_exact",
    "predicate_mask",
    "shm_dir_segments",
    "take_column",
    "value_counts",
]
