"""The sampling-based cardinality estimator of Haas et al. (Section 2.1).

For a join query ``q = R1 ⋈ ... ⋈ RK`` the estimator runs the join over the
per-table samples ``R1s ... RKs`` and scales the observed cardinality back up:

    |q|_hat = |R1s ⋈ ... ⋈ RKs| * (|R1| / |R1s|) * ... * (|RK| / |RKs|)

which is exactly ``rho_hat * |R1| * ... * |RK|`` with ``rho_hat`` the paper's
selectivity estimator.  The estimator is unbiased and strongly consistent for
Bernoulli samples.  Local predicates of the query are applied to the samples
before joining, so the same machinery also yields validated base-table
(selection) cardinalities.

``validate_plan`` is the entry point Algorithm 1 uses: it computes the
sampling estimate for every join appearing in a plan (plus the scanned base
relations) and returns them as a Δ mapping ready to be merged into Γ.

All relational kernels come from :mod:`repro.relalg` (shared with the
executor) and run serially in the caller's process.  Two properties of this
workload make sample joins much cheaper than re-running them naively:

* filtered samples are projected down to their *join columns* — counting the
  join result needs no payload columns;
* the join sets Algorithm 1 validates are nested (every join node of a plan
  contains its child's join set), so intermediate sample joins are kept in a
  **join-prefix cache**: validating ``{R1,R2,R3}`` after ``{R1,R2}`` reuses
  the cached two-way join and performs only the third join, both within one
  plan and across re-optimization rounds.

Cache keys are **content fingerprints**: each alias's filtered sample is
fingerprinted by its row data (``Relation.fingerprint``), and the
prefix/count/estimate caches key on frozensets of ``(alias, fingerprint)``
pairs.  Identical sample content therefore hits the cache across rounds,
while a changed sample (e.g. a re-created :class:`SampleSet`) can never
alias a stale entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx

from repro.cardinality.gamma import JoinSet
from repro.errors import SamplingError
from repro.plans.nodes import JoinNode, PlanNode, ScanNode
from repro.relalg import Relation, filter_relation, hash_join
from repro.sql.ast import Bindings, Query
from repro.storage.catalog import Database
from repro.storage.sampling import SampleSet

#: A join-set cache key: one ``(alias, fingerprint)`` pair per member.
SampleSetKey = FrozenSet[Tuple[str, Tuple]]

#: Intermediate sample joins larger than this are not kept in the prefix
#: cache: a many-to-many (or cross-product) sample join can dwarf the base
#: samples, and pinning such relations for the estimator's lifetime would
#: grow memory without bound.  Their *counts* are still cached.
PREFIX_CACHE_MAX_ROWS = 2_000_000

#: Total rows the prefix cache may hold across all entries; the least
#: recently used entries are evicted beyond this budget.
PREFIX_CACHE_TOTAL_ROWS = 10_000_000


@dataclass
class SamplingValidation:
    """The Δ of one validation round: cardinalities plus bookkeeping."""

    cardinalities: Dict[JoinSet, float] = field(default_factory=dict)
    #: Wall-clock seconds spent running plans over samples in this round.
    elapsed_seconds: float = 0.0
    #: Number of distinct join sets evaluated over samples.
    joins_validated: int = 0
    #: Join sets skipped because some member's filtered sample was empty
    #: while its selection is estimated non-empty: the Haas estimator has no
    #: support there and would "validate" a spurious zero.
    joins_skipped_no_support: int = 0
    #: Sample sub-joins answered from the join-prefix cache in this round.
    prefix_cache_hits: int = 0
    #: Row operations (input + output rows of each executed sample join) this
    #: round actually performed; cache hits keep this low.
    sample_join_row_ops: int = 0


class SamplingEstimator:
    """Run (sub-)joins of a query over sample tables and scale the counts up."""

    def __init__(
        self,
        db: Database,
        query: Query,
        samples: Optional[SampleSet] = None,
    ) -> None:
        self.db = db
        query.ensure_bound()
        self.query = query
        self.samples = samples if samples is not None else db.samples
        if self.samples is None:
            raise SamplingError(
                "no sample tables available; call Database.create_samples() first"
            )
        #: Cache of filtered (and join-column-projected) sample relations.
        self._filtered_cache: Dict[str, Relation] = {}
        #: Content fingerprint of each alias's filtered sample, memoized
        #: per relation identity (see ``_fingerprint_for``).
        self._fingerprints: Dict[str, Tuple[Relation, Tuple]] = {}
        #: Join-prefix cache: sample-set key → joined sample relation.
        #: Fingerprints pin the entries to the exact sample content they were
        #: computed from, so cached sub-joins stay valid across
        #: re-optimization rounds for as long as the samples are unchanged.
        self._prefix_cache: Dict[SampleSetKey, Relation] = {}
        #: Cache of observed sample-join counts per sample-set key (shared by
        #: ``estimate_cardinality`` and ``estimate_selectivity``).
        self._count_cache: Dict[SampleSetKey, int] = {}
        #: Cache of sampling estimates per sample-set key (samples are fixed,
        #: so the estimate for a join set never changes within one
        #: re-optimization).
        self._estimate_cache: Dict[SampleSetKey, float] = {}
        #: The query's join graph (aliases as nodes), built once.
        self._join_graph = query.join_graph()
        #: Lifetime counters (``validate_plan`` reports per-round deltas).
        self.prefix_cache_hits = 0
        self.sample_join_row_ops = 0

    # ------------------------------------------------------------------ #
    # Sample-side evaluation
    # ------------------------------------------------------------------ #
    def _join_columns_for(self, alias: str) -> List[str]:
        """The columns of ``alias`` that appear in any join predicate."""
        columns = set()
        for predicate in self.query.join_predicates:
            if predicate.left_alias == alias:
                columns.add(predicate.left_column)
            elif predicate.right_alias == alias:
                columns.add(predicate.right_column)
        return sorted(columns)

    def _filtered_sample(self, alias: str) -> Relation:
        """The sample of ``alias`` filtered by the query's local predicates.

        The result is projected down to the alias's join columns: the
        estimator only ever counts rows, so payload columns are dead weight.
        """
        if alias in self._filtered_cache:
            return self._filtered_cache[alias]
        table_name = self.query.table_for_alias(alias)
        sample = self.samples.sample_for(table_name)
        predicate_columns = {
            p.column for p in self.query.local_predicates_for(alias)
        }
        join_columns = self._join_columns_for(alias)
        relation = Relation.from_table(
            sample, alias, sorted(predicate_columns | set(join_columns))
        )
        filtered = filter_relation(
            relation,
            alias,
            self.query.local_predicates_for(alias),
            keep=[f"{alias}.{name}" for name in join_columns],
        )
        self._filtered_cache[alias] = filtered
        return filtered

    def _fingerprint_for(self, alias: str) -> Tuple:
        """Content fingerprint of ``alias``'s current filtered sample.

        Memoized per relation *identity*: if the filtered sample is replaced
        (fresh estimator state, test injection), the fingerprint is
        recomputed, so cache keys can never alias content they were not
        computed from.
        """
        relation = self._filtered_sample(alias)
        entry = self._fingerprints.get(alias)
        if entry is None or entry[0] is not relation:
            entry = (relation, relation.fingerprint())
            self._fingerprints[alias] = entry
        return entry[1]

    def _sample_set_key(self, aliases: Iterable[str]) -> SampleSetKey:
        """The cache key of a join set: its members' content fingerprints."""
        return frozenset((alias, self._fingerprint_for(alias)) for alias in aliases)

    @staticmethod
    def _key_aliases(key: SampleSetKey) -> FrozenSet[str]:
        """The alias set a sample-set key covers."""
        return frozenset(alias for alias, _ in key)

    def _join_relation(self, aliases: FrozenSet[str]) -> Relation:
        """The joined sample relation for ``aliases``, reusing cached sub-joins.

        The join result for an alias set does not depend on the join order,
        so *any* cached subset is a valid starting point: the largest one is
        picked and the remaining aliases are joined outward from it (staying
        connected in the join graph where possible).  Every intermediate
        result is cached, so validating the join sets of one plan — and of
        later re-optimization rounds — degenerates to at most one new join
        per join set.
        """
        key = self._sample_set_key(aliases)
        cached = self._prefix_cache.get(key)
        if cached is not None:
            self.prefix_cache_hits += 1
            self._touch_prefix(key)
            return cached
        best: Optional[FrozenSet[str]] = None
        for cached_key in self._prefix_cache:
            subset = self._key_aliases(cached_key)
            if subset < aliases and (best is None or len(subset) > len(best)):
                # A disconnected cached subset is a sample cross product —
                # typically far larger than a freshly built connected join —
                # so it is never worth starting from.
                if len(subset) > 1 and not self._is_connected(subset):
                    continue
                best = subset
        promoted: Optional[Relation] = None
        if best is not None and len(best) > 1:
            # Re-key with the *current* fingerprints: a stale entry (filtered
            # sample replaced since it was stored) has a matching alias set
            # but a different key, and must be a silent miss, not a hit.
            best_key = self._sample_set_key(best)
            promoted = self._prefix_cache.get(best_key)
        if promoted is not None:
            self.prefix_cache_hits += 1
            self._touch_prefix(best_key)
            current = promoted
            included = best
        else:
            first = min(aliases)
            current = self._filtered_sample(first)
            included = frozenset({first})
            self._store_prefix(self._sample_set_key(included), current)
        for alias in self._extension_order(included, aliases):
            right = self._filtered_sample(alias)
            predicates = self.query.join_predicates_between(included, {alias})
            joined = hash_join(current, right, predicates, included)
            self.sample_join_row_ops += current.num_rows + right.num_rows + joined.num_rows
            current = joined
            included = included | {alias}
            self._store_prefix(self._sample_set_key(included), current)
        return current

    def _touch_prefix(self, key: SampleSetKey) -> None:
        """Mark a cache entry as recently used (dict order is LRU order)."""
        self._prefix_cache[key] = self._prefix_cache.pop(key)

    def _store_prefix(self, key: SampleSetKey, relation: Relation) -> None:
        """Cache an intermediate sample join, evicting LRU entries beyond the
        per-entry and total row budgets."""
        if relation.num_rows > PREFIX_CACHE_MAX_ROWS:
            return
        self._prefix_cache[key] = relation
        total = sum(entry.num_rows for entry in self._prefix_cache.values())
        for old_key in list(self._prefix_cache):
            if total <= PREFIX_CACHE_TOTAL_ROWS or old_key == key:
                continue
            total -= self._prefix_cache.pop(old_key).num_rows

    def _is_connected(self, aliases: FrozenSet[str]) -> bool:
        """True when ``aliases`` are mutually reachable via join predicates."""
        return nx.is_connected(self._join_graph.subgraph(aliases))

    def _extension_order(
        self, included: FrozenSet[str], aliases: FrozenSet[str]
    ) -> List[str]:
        """Order for joining ``aliases - included`` onto an existing sub-join.

        Each step prefers an alias connected (through a join predicate) to
        what is already included, so cross products only appear for genuinely
        disconnected join graphs.
        """
        graph = self._join_graph.subgraph(aliases)
        done = set(included)
        remaining = set(aliases) - done
        ordered: List[str] = []
        while remaining:
            connected = sorted(
                alias
                for alias in remaining
                if any(neighbor in done for neighbor in graph.neighbors(alias))
            )
            next_alias = connected[0] if connected else sorted(remaining)[0]
            ordered.append(next_alias)
            done.add(next_alias)
            remaining.discard(next_alias)
        return ordered

    def has_sample_support(self, aliases: Iterable[str]) -> bool:
        """True when every member's filtered sample contains at least one row.

        A join-set estimate built on an empty factor sample is degenerate —
        the observed count is 0 whatever the true join size, so scaling it up
        still yields 0 with unbounded relative error.  Validation skips such
        join sets (see :meth:`validate_plan`): a lucky-zero sample of a
        non-empty selection must not poison Γ with false empty joins.
        """
        return all(self._filtered_sample(alias).num_rows > 0 for alias in aliases)

    def _sample_join_count(self, aliases: FrozenSet[str]) -> int:
        """Number of rows the join of ``aliases`` produces over the samples."""
        key = self._sample_set_key(aliases)
        if key in self._count_cache:
            return self._count_cache[key]
        count = self._join_relation(aliases).num_rows
        self._count_cache[key] = count
        return count

    # ------------------------------------------------------------------ #
    # Public estimation API
    # ------------------------------------------------------------------ #
    def estimate_cardinality(self, aliases: Iterable[str]) -> float:
        """Sampling-based estimate of the join of ``aliases`` on the full data."""
        key = frozenset(aliases)
        if not key:
            raise ValueError("join set must contain at least one relation")
        cache_key = self._sample_set_key(key)
        if cache_key in self._estimate_cache:
            return self._estimate_cache[cache_key]
        observed = self._sample_join_count(key)
        scale = 1.0
        # Sorted iteration keeps the float product independent of set
        # construction order (and therefore run-to-run reproducible).
        for alias in sorted(key):
            table_name = self.query.table_for_alias(alias)
            scale *= self.samples.scale_factor(table_name)
        estimate = observed * scale
        self._estimate_cache[cache_key] = estimate
        return estimate

    def estimate_selectivity(self, aliases: Iterable[str]) -> float:
        """The paper's rho_hat: sample join size over the product of sample sizes."""
        key = frozenset(aliases)
        if not key:
            raise ValueError("join set must contain at least one relation")
        observed = self._sample_join_count(key)
        denominator = 1.0
        for alias in sorted(key):
            table_name = self.query.table_for_alias(alias)
            denominator *= max(1, self.samples.sample_for(table_name).num_rows)
        return observed / denominator

    def validate_plan(
        self, plan: PlanNode, validate_base_relations: bool = False
    ) -> SamplingValidation:
        """Validate every join of ``plan`` (Algorithm 1, line 9).

        Returns the Δ of Algorithm 1: a mapping from join set to the
        sampling-based cardinality estimate.  Following the paper (Section 2:
        "we focus on using sampling to refine selectivity estimates for join
        predicates"), only join nodes are validated by default; pass
        ``validate_base_relations=True`` to also validate the base-relation
        selections (useful for ablation experiments).

        The returned :class:`SamplingValidation` also reports how much work
        the round performed (``sample_join_row_ops``) and how often the
        join-prefix cache satisfied a sub-join (``prefix_cache_hits``).
        """
        started = time.perf_counter()
        hits_before = self.prefix_cache_hits
        row_ops_before = self.sample_join_row_ops
        validation = SamplingValidation()
        join_sets: List[FrozenSet[str]] = []
        for node in plan.walk():
            if isinstance(node, ScanNode) and validate_base_relations:
                join_sets.append(frozenset({node.alias}))
            elif isinstance(node, JoinNode):
                join_sets.append(frozenset(node.relations))
        # Validate small join sets first so every larger one finds its
        # sub-join already in the prefix cache.
        for join_set in sorted(join_sets, key=len):
            if join_set in validation.cardinalities:
                continue
            if not self.has_sample_support(join_set):
                # No sample support for some member: the estimate would be a
                # spurious zero (see has_sample_support).  Leave the join set
                # unvalidated; the optimizer keeps its histogram estimate.
                # This applies to singletons too — an empty filtered sample
                # of a non-empty selection must not validate the base
                # relation to zero rows.
                validation.joins_skipped_no_support += 1
                continue
            validation.cardinalities[join_set] = self.estimate_cardinality(join_set)
            validation.joins_validated += 1
        validation.elapsed_seconds = time.perf_counter() - started
        validation.prefix_cache_hits = self.prefix_cache_hits - hits_before
        validation.sample_join_row_ops = self.sample_join_row_ops - row_ops_before
        return validation


def validate_plan_for_bindings(
    db: Database,
    template: Query,
    bindings: Bindings,
    plan: PlanNode,
    samples: Optional[SampleSet] = None,
    validate_base_relations: bool = False,
) -> Tuple[Query, SamplingValidation]:
    """Validate a cached ``plan`` under *new* parameter ``bindings``.

    This is the paper's sampling validator repurposed as a plan-cache guard
    (the query service's layer 1): the parameterized ``template`` is bound to
    the new constants, a fresh estimator runs the cached plan's join sets
    over the samples *with the new bindings' local predicates applied*, and
    the resulting Δ is returned next to the bound query.  The caller compares
    the Δ against the Γ expectations the plan was originally chosen under
    (see :func:`repro.cardinality.gamma.Gamma` and
    :meth:`repro.service.QueryService.execute`) to decide whether the cached
    plan is still supported or must be re-planned.

    ``bindings`` may be ``None`` when ``template`` is already a bound query.
    """
    query = template.bind(bindings) if bindings is not None else template
    query.ensure_bound()
    estimator = SamplingEstimator(db, query, samples=samples)
    validation = estimator.validate_plan(
        plan, validate_base_relations=validate_base_relations
    )
    return query, validation
