"""RPL011 good fixture: the same shard/merge loops in canonical sorted
order — the merged bytes are now a pure function of the shard contents."""

from __future__ import annotations

from typing import Dict, List, Set


def invalidate_shards(shards: Dict[int, object], table: str) -> None:
    for shard_id in sorted(shards):  # canonical shard-id order
        shards[shard_id].invalidate_table(table)  # type: ignore[attr-defined]


def merge_columns(partials: Dict[str, List[float]]) -> List[List[float]]:
    return [partials[name] for name in sorted(partials)]


def scatter_targets(routed: Set[int], extra: Set[int]) -> List[int]:
    targets = []
    for shard_id in sorted(routed.union(extra)):
        targets.append(shard_id)
    return targets


def merge_parts(parts: List[object]) -> List[object]:
    # Lists carry an explicit order — iteration is fine.
    return [part for part in parts]
