"""Hash partitioning of stored tables across in-process service shards.

The sharded service splits a :class:`~repro.storage.catalog.Database` into
``N`` catalog slices.  Tables named in a :class:`ShardingSpec` are
*partitioned*: each row goes to the shard selected by a deterministic hash
of its partition-column value.  Every other table is *replicated*: all
shards share the very same (immutable) :class:`~repro.storage.table.Table`
object, so replication costs no memory.  Co-partitioning is what makes
scatter-gather correct — when two partitioned tables hash on the columns an
equi-join connects them by (TPC-H ``lineitem.l_orderkey`` =
``orders.o_orderkey``), every join match lives inside one shard and the
sharded join result is the disjoint union of the per-shard joins.

Hashing is deterministic across processes and runs: integers go through a
SplitMix64-style bit mixer, strings through a 64-bit FNV-1a over their
UTF-8 bytes — never Python's builtin ``hash`` (randomized per process by
``PYTHONHASHSEED``).  Dictionary-encoded string columns hash each distinct
dictionary value once and fan the result out through the codes.

The module also owns the routing analysis (:func:`route_query`) deciding
whether a query can scatter at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from repro.relalg.encoding import ColumnData, DictEncodedArray
from repro.sql.ast import Query
from repro.storage.catalog import Database

__all__ = [
    "ShardRouting",
    "ShardingSpec",
    "hash_partition",
    "route_query",
    "shard_database",
]


# --------------------------------------------------------------------------- #
# Deterministic hashing
# --------------------------------------------------------------------------- #
def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: scatter 64-bit keys uniformly (vectorized).

    Sequential keys (TPC-H orderkeys) would otherwise land on shards in
    runs; the mixer makes ``key % num_shards`` behave like a uniform hash.
    """
    mixed = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        mixed ^= mixed >> np.uint64(30)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(27)
        mixed *= np.uint64(0x94D049BB133111EB)
        mixed ^= mixed >> np.uint64(31)
    return mixed


def _fnv1a64(text: str) -> int:
    """64-bit FNV-1a of the UTF-8 bytes — stable across processes and runs."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def hash_partition(column: ColumnData, num_shards: int) -> np.ndarray:
    """Shard id of every row, from a deterministic hash of ``column``.

    Integer columns go through the SplitMix64 mixer; dictionary-encoded
    string columns hash each *dictionary* value once with FNV-1a and map
    the hashes through the codes.  Float columns are rejected — a float is
    not a partition key (equality on floats is not a join contract the
    schema supports sharding on).
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if isinstance(column, DictEncodedArray):
        hashes = np.fromiter(
            (_fnv1a64(str(value)) for value in column.dictionary),
            dtype=np.uint64,
            count=len(column.dictionary),
        )
        mixed = hashes[column.codes]
    else:
        array = np.asarray(column)
        if array.dtype.kind not in ("i", "u"):
            raise ValueError(
                f"partition column must be int or str, got dtype {array.dtype}"
            )
        mixed = _mix64(array)
    return (mixed % np.uint64(num_shards)).astype(np.int64)


# --------------------------------------------------------------------------- #
# The sharding spec and catalog slicing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardingSpec:
    """Which tables partition, and on which column.

    Tables absent from ``partitioned`` are replicated to every shard by
    reference.  Two partitioned tables are co-partitioned exactly when an
    equi-join on both partition columns connects them; :func:`route_query`
    only scatters queries whose partitioned aliases form one component
    under such joins.
    """

    #: table name → partition column.
    partitioned: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def tpch(cls) -> "ShardingSpec":
        """The TPC-H default: co-partition the two big tables on orderkey."""
        return cls(partitioned={"lineitem": "l_orderkey", "orders": "o_orderkey"})

    def validate_against(self, db: Database) -> None:
        """Fail fast when the spec names unknown tables/columns or a
        partition column that is not hash-partitionable."""
        for table_name in sorted(self.partitioned):
            column_name = self.partitioned[table_name]
            table = db.table(table_name)
            declaration = table.schema.column(column_name)
            if declaration.type not in ("int", "str"):
                raise ValueError(
                    f"partition column {table_name}.{column_name} has type "
                    f"{declaration.type!r}; only int/str columns partition"
                )


def shard_database(
    db: Database,
    num_shards: int,
    spec: ShardingSpec,
    *,
    sampling_ratio: float,
    sampling_seed: Optional[int],
) -> List[Database]:
    """Slice ``db`` into ``num_shards`` shard catalogs.

    Partitioned tables are split row-wise by :func:`hash_partition`
    (:meth:`~repro.storage.table.Table.take` keeps the parent's string
    dictionaries, so no re-encoding happens); replicated tables are shared
    by reference — :class:`~repro.storage.table.Table` is immutable.  Each
    shard gets its own ANALYZE statistics and sample tables, so per-shard
    planning sees per-shard data, and **no indexes** — shard plans stay
    sequential-scan shaped.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    spec.validate_against(db)
    shard_dbs = [
        Database(name=f"{db.name}.shard{index}") for index in range(num_shards)
    ]
    for table_name in db.table_names():  # sorted: deterministic epochs
        table = db.table(table_name)
        partition_column = spec.partitioned.get(table_name)
        if partition_column is None or num_shards == 1:
            for shard_db in shard_dbs:
                shard_db.create_table(table)
            continue
        shard_ids = hash_partition(table.data_column(partition_column), num_shards)
        for index, shard_db in enumerate(shard_dbs):
            rows = np.flatnonzero(shard_ids == index)
            shard_db.create_table(table.take(rows))
    for shard_db in shard_dbs:
        shard_db.analyze()
        shard_db.create_samples(ratio=sampling_ratio, seed=sampling_seed)
    return shard_dbs


# --------------------------------------------------------------------------- #
# Routing analysis
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardRouting:
    """How one query executes against the shards.

    ``scatter``
        Every partitioned alias is connected to the others through
        partition-column equi-joins: run on all shards, merge partials.
    ``single``
        The query touches replicated tables only — every shard shares the
        source catalog's copies, so the source alone answers it exactly.
    ``fallback``
        The query joins partitioned tables off their partition columns
        (matches would cross shards): serve it from the unsharded catalog.
    """

    mode: str
    reason: str


def route_query(query: Query, spec: ShardingSpec) -> ShardRouting:
    """Decide scatter / single / fallback for one bound query."""
    partitioned = [
        alias
        for alias in query.aliases
        if query.table_for_alias(alias) in spec.partitioned
    ]
    if not partitioned:
        return ShardRouting(
            mode="single", reason="replicated tables only; the source is exact"
        )
    adjacency: Dict[str, Set[str]] = {alias: set() for alias in partitioned}
    for predicate in query.join_predicates:
        left, right = predicate.left_alias, predicate.right_alias
        if left not in adjacency or right not in adjacency:
            continue
        left_key = spec.partitioned[query.table_for_alias(left)]
        right_key = spec.partitioned[query.table_for_alias(right)]
        if predicate.left_column == left_key and predicate.right_column == right_key:
            adjacency[left].add(right)
            adjacency[right].add(left)
    start = sorted(adjacency)[0]
    reached = {start}
    frontier = [start]
    while frontier:
        alias = frontier.pop()
        for neighbor in sorted(adjacency[alias]):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    unreached = sorted(set(adjacency) - reached)
    if unreached:
        return ShardRouting(
            mode="fallback",
            reason=(
                "partitioned aliases not co-partitioned by the join graph: "
                + ", ".join(unreached)
            ),
        )
    return ShardRouting(mode="scatter", reason="co-partitioned equi-join subgraph")

