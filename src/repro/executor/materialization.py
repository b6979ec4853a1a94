"""Pipeline-breaker checkpoints: the intermediate materialization registry.

Adaptive (mid-execution) re-optimization executes a plan pipeline by
pipeline.  Every pipeline breaker — a completed scan or join — materializes
its output relation here, keyed by its *join-set fingerprint*: the frozenset
of relation aliases the result covers.  Within one query execution that key
uniquely identifies the content (local and join predicates of the query
applied to exactly those relations), whatever join order produced it, which
is what makes the registry reusable across re-planned join orders: a freshly
planned tree that contains a sub-tree over an already-materialized join set
resumes from the stored relation instead of restarting from scans.

The module also provides :func:`canonical_row_order` — a deterministic row
ordering by the output stage's input columns.  A join's output row
*multiset* is independent of the join order that produced it, but its row
*order* is not; sorting the final pipeline's output canonically makes
order-sensitive results (:func:`needs_canonical_order`: float ``SUM``/``AVG``
accumulation, bare projections) a pure function of the row multiset, which
is the bit-identity guarantee of the service, the sharded coordinator and
the adaptive executor alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.relalg import Relation
from repro.relalg.aggregate import partial_merge_exact
from repro.relalg.encoding import sort_key
from repro.sql.ast import Query
from repro.storage.catalog import Database


def exact_partial_columns(
    db: Database, query: Query
) -> AbstractSet[Tuple[Optional[str], Optional[str]]]:
    """The aggregate input columns whose sums are exact in any row order.

    Integer-typed columns sum exactly in any order (int64 sums, and float64
    holds integer-valued sums exactly below 2**53 — the engine's aggregation
    dtype); float columns do not.  The result feeds
    :func:`repro.relalg.aggregate.partial_merge_exact`.
    """
    exact: Set[Tuple[Optional[str], Optional[str]]] = set()
    for aggregate in query.aggregates:
        if aggregate.alias is None or aggregate.column is None:
            continue
        table = db.table(query.table_for_alias(aggregate.alias))
        if table.schema.column(aggregate.column).type == "int":
            exact.add((aggregate.alias, aggregate.column))
    return exact


def needs_canonical_order(db: Database, query: Query) -> bool:
    """Whether the query's output depends on the input row order.

    The one order-sensitivity classification: bare projections expose row
    order directly; aggregates are order-sensitive exactly when
    :func:`~repro.relalg.aggregate.partial_merge_exact` says their partials
    do not compose — float ``SUM``/``AVG`` accumulate in row order, while
    ``COUNT``/``MIN``/``MAX``, integer ``SUM``/``AVG`` and group keys (which
    are sorted) do not.  The sharded coordinator takes its ``partial`` merge
    path on the same answer.
    """
    if not query.aggregates and not query.group_by:
        return True
    return not partial_merge_exact(query.aggregates, exact_partial_columns(db, query))


def canonical_row_order(relation: Relation) -> Optional[np.ndarray]:
    """A permutation sorting the relation's rows lexicographically by all
    columns (column names in sorted order, ``np.lexsort`` stable ties).

    Returns ``None`` when the relation carries no columns (nothing to order
    by — and nothing whose order could matter) or fewer than two rows.
    """
    if not relation or relation.num_rows < 2:
        return None
    names = sorted(relation)
    keys = tuple(reversed([sort_key(relation[name]) for name in names]))
    return np.lexsort(keys)


def canonicalize_relation(
    relation: Relation, live: Optional[AbstractSet[str]] = None
) -> Relation:
    """``relation`` projected to the ``live`` columns (``None`` = all it has)
    with its rows in canonical order (see above)."""
    if live is not None:
        relation = relation.project(live)
    order = canonical_row_order(relation)
    if order is None:
        return relation
    return relation.take(order)


@dataclass
class MaterializedIntermediate:
    """One checkpointed pipeline output."""

    #: The join set the relation covers (the registry key).
    join_set: FrozenSet[str]
    #: The materialized rows (all columns the plan carries past this point).
    relation: Relation
    #: True output cardinality — the exact Γ entry the checkpoint feeds back.
    actual_rows: int
    #: ``signature()`` of the plan fragment that produced the relation.
    source_signature: Tuple = ()
    #: How often a later pipeline consumed this intermediate.
    reuse_count: int = 0


@dataclass
class IntermediateRegistry:
    """Materialized intermediates of one adaptive query execution."""

    _entries: Dict[FrozenSet[str], MaterializedIntermediate] = field(default_factory=dict)

    def store(
        self,
        join_set: Iterable[str],
        relation: Relation,
        source_signature: Tuple = (),
    ) -> MaterializedIntermediate:
        """Checkpoint one pipeline output (overwrites a same-key entry)."""
        key = frozenset(join_set)
        if not key:
            raise ValueError("cannot materialize an empty join set")
        entry = MaterializedIntermediate(
            join_set=key,
            relation=relation,
            actual_rows=relation.num_rows,
            source_signature=source_signature,
        )
        self._entries[key] = entry
        return entry

    def get(self, join_set: Iterable[str]) -> Optional[MaterializedIntermediate]:
        """The entry covering exactly ``join_set``, or None."""
        return self._entries.get(frozenset(join_set))

    def relation(self, join_set: Iterable[str]) -> Relation:
        """The materialized relation of ``join_set`` (KeyError if absent);
        bumps the entry's reuse counter."""
        entry = self._entries.get(frozenset(join_set))
        if entry is None:
            raise KeyError(f"no materialized intermediate for {sorted(join_set)!r}")
        entry.reuse_count += 1
        return entry.relation

    def __contains__(self, join_set: Iterable[str]) -> bool:
        return frozenset(join_set) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def join_sets(self) -> List[FrozenSet[str]]:
        """All materialized join sets, largest first (reuse prefers them)."""
        return sorted(self._entries, key=lambda key: (-len(key), sorted(key)))

    def items(self) -> List[Tuple[FrozenSet[str], MaterializedIntermediate]]:
        """(join set, entry) pairs in :meth:`join_sets` order."""
        return [(key, self._entries[key]) for key in self.join_sets()]

    def cardinalities(self) -> Dict[FrozenSet[str], int]:
        """Join set → exact observed cardinality, for every checkpoint."""
        return {key: entry.actual_rows for key, entry in self._entries.items()}

    def total_rows(self) -> int:
        """Rows currently pinned across all materialized intermediates."""
        return sum(entry.actual_rows for entry in self._entries.values())

    def total_reuses(self) -> int:
        """How many times later pipelines consumed stored intermediates."""
        return sum(entry.reuse_count for entry in self._entries.values())
