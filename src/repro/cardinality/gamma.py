"""Γ — the store of sampling-validated cardinalities (Algorithm 1).

Algorithm 1 maintains a set Γ of cardinality estimates that have been
validated by sampling.  Each entry maps a *join set* — the set of relation
aliases joined together (local predicates of the query applied) — to the
validated number of rows.  Singleton sets record validated base-table
cardinalities after their local selections.

Γ only ever grows during re-optimization (``Γ ← Γ ∪ Δ_i``); when the same
join set is re-validated the newer estimate wins, which is what "merging"
means operationally.

Entries carry a **provenance** rank: *sampled* entries come from validating
plans over the sample tables (the paper's Δ), *exact* entries are true
cardinalities observed by actually executing a (sub-)plan — the sharded
coordinator's gossip records one for every join set a shard fragment
executed.  An exact entry
outranks every sampled entry for the same join set: merging a sampled Δ
never overwrites an exact value, while recording an exact value always
wins (and re-recording a different exact value for the same join set keeps
the newest, which only happens when the underlying data changed).

Γ is also *versioned*: every mutation that actually changes a stored value
bumps a monotone epoch counter and remembers the epoch at which each join set
last changed.  ``changed_since(epoch)`` returns the dirty join sets, which is
what lets the incremental DP planner re-expand only the affected subsets of
the search space instead of re-running the whole System-R enumeration every
re-optimization round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple

#: A join set: the relation aliases joined together.
JoinSet = FrozenSet[str]


@dataclass
class Gamma:
    """Validated cardinalities keyed by join set."""

    _cardinalities: Dict[JoinSet, float] = field(default_factory=dict)
    #: Monotone version counter; bumped whenever a stored value changes.
    _epoch: int = 0
    #: Epoch at which each join set last changed (added or re-valued).
    _changed_at: Dict[JoinSet, int] = field(default_factory=dict)
    #: Join sets whose stored value is an exact (executed) cardinality.
    _exact: Set[JoinSet] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Current version; strictly increases whenever an entry changes."""
        return self._epoch

    def changed_since(self, epoch: int) -> FrozenSet[JoinSet]:
        """Join sets whose value changed after ``epoch`` (the dirty set).

        A re-validation that stored the same float does not dirty the entry,
        so a fixed-point round reports an empty dirty set and the incremental
        planner re-expands nothing.
        """
        return frozenset(
            key for key, changed in self._changed_at.items() if changed > epoch
        )

    def _store(self, key: JoinSet, value: float, exact: bool = False) -> None:
        if not exact and key in self._exact:
            # A sampled estimate never downgrades an exact observation.
            return
        if self._cardinalities.get(key) != value:
            self._epoch += 1
            self._changed_at[key] = self._epoch
        self._cardinalities[key] = value
        if exact:
            self._exact.add(key)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def record(self, relations: Iterable[str], cardinality: float, exact: bool = False) -> None:
        """Record (or overwrite) the validated cardinality of one join set.

        ``exact=True`` marks the entry as a true executed cardinality, which
        from then on outranks any sampled re-validation of the same join set.
        """
        key = frozenset(relations)
        if not key:
            raise ValueError("cannot record a cardinality for an empty join set")
        self._store(key, float(cardinality), exact=exact)

    def record_exact(self, relations: Iterable[str], cardinality: float) -> None:
        """Record a true cardinality observed by executing the join set."""
        self.record(relations, cardinality, exact=True)

    def merge(self, delta: Mapping[JoinSet, float] | "Gamma") -> int:
        """Merge ``delta`` into Γ; return how many entries were new.

        The return value drives the coverage argument: a plan whose validation
        adds zero new entries is covered by the earlier plans (Theorem 1).
        Merging a :class:`Gamma` preserves each entry's provenance; merging a
        plain mapping treats every entry as sampled, so existing exact entries
        keep their values.
        """
        if isinstance(delta, Gamma):
            items: Iterable[Tuple[JoinSet, float, bool]] = [
                (key, value, key in delta._exact)
                for key, value in delta._cardinalities.items()
            ]
        else:
            items = [(frozenset(key), value, False) for key, value in delta.items()]
        newly_added = 0
        for key, value, exact in items:
            if key not in self._cardinalities:
                newly_added += 1
            self._store(key, float(value), exact=exact)
        return newly_added

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, relations: Iterable[str]) -> Optional[float]:
        """Return the validated cardinality of a join set, or None if unknown."""
        return self._cardinalities.get(frozenset(relations))

    def is_exact(self, relations: Iterable[str]) -> bool:
        """True when the join set's stored value is an executed cardinality."""
        return frozenset(relations) in self._exact

    def exact_join_sets(self) -> FrozenSet[JoinSet]:
        """All join sets whose stored cardinality is exact."""
        return frozenset(self._exact)

    def __contains__(self, relations: Iterable[str]) -> bool:
        return frozenset(relations) in self._cardinalities

    def __len__(self) -> int:
        return len(self._cardinalities)

    def __iter__(self) -> Iterator[JoinSet]:
        return iter(self._cardinalities)

    def items(self) -> Iterable[Tuple[JoinSet, float]]:
        """Iterate over (join set, cardinality) pairs."""
        return self._cardinalities.items()

    def copy(self) -> "Gamma":
        """Return an independent copy (used by what-if experiments)."""
        clone = Gamma()
        clone._cardinalities = dict(self._cardinalities)
        clone._epoch = self._epoch
        clone._changed_at = dict(self._changed_at)
        clone._exact = set(self._exact)
        return clone

    def covered_join_sets(self) -> FrozenSet[JoinSet]:
        """All join sets with a validated cardinality."""
        return frozenset(self._cardinalities)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entries = ", ".join(
            f"{{{','.join(sorted(k))}}}={v:.1f}" for k, v in sorted(
                self._cardinalities.items(), key=lambda item: (len(item[0]), sorted(item[0]))
            )
        )
        return f"Gamma({entries})"
