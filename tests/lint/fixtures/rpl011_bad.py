"""RPL011 bad fixture: shard/merge loops whose order is insertion- or
hash-dependent — each would let two runs of the same scatter merge in a
different order."""

from __future__ import annotations

from typing import Dict, List, Set


def invalidate_shards(shards: Dict[int, object], table: str) -> None:
    for shard in shards.values():  # violation: dict-view (arrival) order
        shard.invalidate_table(table)  # type: ignore[attr-defined]


def merge_columns(partials: Dict[str, List[float]]) -> List[List[float]]:
    # violation: dict-view order decides the merge column order
    return [partials[name] for name in partials.keys()]


def scatter_targets(routed: Set[int], extra: Set[int]) -> List[int]:
    targets = []
    for shard_id in routed.union(extra):  # violation: set union, hash order
        targets.append(shard_id)
    return targets
