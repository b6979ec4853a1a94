"""The sampling-based cardinality estimator of Haas et al. (Section 2.1).

For a join query ``q = R1 ⋈ ... ⋈ RK`` the estimator runs the join over the
per-table samples ``R1s ... RKs`` and scales the observed cardinality back up:

    |q|_hat = |R1s ⋈ ... ⋈ RKs| * (|R1| / |R1s|) * ... * (|RK| / |RKs|)

which is exactly ``rho_hat * |R1| * ... * |RK|`` with ``rho_hat`` the paper's
selectivity estimator.  The estimator is unbiased and strongly consistent for
Bernoulli samples.  Local predicates of the query are applied to the samples
before joining.

``validate_plan`` is the entry point Algorithm 1 uses (line 9): it runs the
plan over the samples and returns the scaled-up count of every join node as a
Δ mapping ready to be merged into Γ.  A scan node's sample relation is its
filtered sample, projected down to its join columns (counting needs no
payload columns); a join node's sample relation is one ``hash_join`` of its
two children's sample relations.  Join cardinality does not depend on join
order, so a join set's estimate is the same whichever plan reaches it.

All relational kernels come from :mod:`repro.relalg` (shared with the
executor) and run serially in the caller's process.  Joined sample relations
are cached in one dict keyed by the join set, so a join node whose child
joins were run before — lower in the same plan, or in an earlier
re-optimization round — costs one sample join.  An estimator lives for one
``reoptimize()`` call or one service validation over one fixed
:class:`~repro.storage.sampling.SampleSet`, so a join set names one sample
relation for the cache's whole life.  The cache skips relations above
:data:`PREFIX_CACHE_MAX_ROWS` and evicts least recently used entries beyond
:data:`PREFIX_CACHE_TOTAL_ROWS` in total.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.cardinality.gamma import JoinSet
from repro.errors import SamplingError
from repro.plans.nodes import JoinNode, PlanNode, ScanNode
from repro.relalg import Relation, filter_relation, hash_join
from repro.sql.ast import Query
from repro.storage.catalog import Database

#: Joined sample relations larger than this are not cached: a many-to-many
#: (or cross-product) sample join can dwarf the base samples, and pinning
#: such relations for the estimator's lifetime would grow memory without
#: bound.
PREFIX_CACHE_MAX_ROWS = 2_000_000

#: Total rows the join cache may hold across all entries; the least
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
    #: Joined sample relations read from the join cache in this round.
    prefix_cache_hits: int = 0
    #: Row operations (input + output rows of each executed sample join) this
    #: round actually performed; cache hits keep this low.
    sample_join_row_ops: int = 0


class SamplingEstimator:
    """Run a plan's joins over the sample tables and scale the counts up."""

    def __init__(self, db: Database, query: Query) -> None:
        query.ensure_bound()
        if db.samples is None:
            raise SamplingError(
                "no sample tables available; call Database.create_samples() first"
            )
        self.query = query
        self.samples = db.samples
        #: Cache of filtered (and join-column-projected) sample relations.
        self._filtered_cache: Dict[str, Relation] = {}
        #: Join set → joined sample relation, in least-recently-used order.
        self._join_cache: Dict[JoinSet, Relation] = {}
        #: Lifetime counters (``validate_plan`` reports per-round deltas).
        self.prefix_cache_hits = 0
        self.sample_join_row_ops = 0

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

    def _sample_relation(self, node: PlanNode) -> Relation:
        """``node``'s output over the samples: a filtered sample or one join."""
        if isinstance(node, ScanNode):
            return self._filtered_sample(node.alias)
        assert isinstance(node, JoinNode)
        join_set = frozenset(node.relations)
        cached = self._join_cache.pop(join_set, None)
        if cached is not None:
            self.prefix_cache_hits += 1
            self._join_cache[join_set] = cached
            return cached
        left = self._sample_relation(node.left)
        right = self._sample_relation(node.right)
        predicates = self.query.join_predicates_between(
            node.left.relations, node.right.relations
        )
        joined = hash_join(left, right, predicates, node.left.relations)
        self.sample_join_row_ops += left.num_rows + right.num_rows + joined.num_rows
        self._store(join_set, joined)
        return joined

    def _store(self, join_set: JoinSet, relation: Relation) -> None:
        """Cache a joined sample relation, evicting LRU entries beyond the
        per-entry and total row budgets."""
        if relation.num_rows > PREFIX_CACHE_MAX_ROWS:
            return
        self._join_cache[join_set] = relation
        total = sum(entry.num_rows for entry in self._join_cache.values())
        for old_key in list(self._join_cache):
            if total <= PREFIX_CACHE_TOTAL_ROWS or old_key == join_set:
                continue
            total -= self._join_cache.pop(old_key).num_rows

    def _scale_up(self, join_set: JoinSet, observed: int) -> float:
        """The Haas et al. estimate: ``observed`` times each ``|R| / |Rs|``."""
        scale = 1.0
        # Sorted iteration keeps the float product independent of set
        # construction order (and therefore run-to-run reproducible).
        for alias in sorted(join_set):
            scale *= self.samples.scale_factor(self.query.table_for_alias(alias))
        return observed * scale

    def has_sample_support(self, aliases: Iterable[str]) -> bool:
        """True when every member's filtered sample contains at least one row.

        A join-set estimate built on an empty factor sample is degenerate —
        the observed count is 0 whatever the true join size, so scaling it up
        still yields 0 with unbounded relative error.  Validation skips such
        join sets (see :meth:`validate_plan`): a lucky-zero sample of a
        non-empty selection must not poison Γ with false empty joins.
        """
        return all(self._filtered_sample(alias).num_rows > 0 for alias in aliases)

    def validate_plan(self, plan: PlanNode) -> SamplingValidation:
        """Validate every join of ``plan`` (Algorithm 1, line 9).

        Returns the Δ of Algorithm 1: a mapping from each join node's join
        set to its sampling-based cardinality estimate.  Following the paper
        (Section 2: "we focus on using sampling to refine selectivity
        estimates for join predicates"), only join nodes are validated.

        The returned :class:`SamplingValidation` also reports how much work
        the round performed (``sample_join_row_ops``) and how many joined
        sample relations the join cache supplied (``prefix_cache_hits``).
        """
        started = time.perf_counter()
        hits_before = self.prefix_cache_hits
        row_ops_before = self.sample_join_row_ops
        validation = SamplingValidation()
        # Reversed pre-order visits children before parents, so every join
        # node finds its child joins in the cache.
        for node in reversed(plan.join_nodes()):
            join_set = frozenset(node.relations)
            if not self.has_sample_support(join_set):
                # No sample support for some member: the estimate would be a
                # spurious zero (see has_sample_support).  Leave the join set
                # unvalidated; the optimizer keeps its histogram estimate.
                validation.joins_skipped_no_support += 1
                continue
            observed = self._sample_relation(node).num_rows
            validation.cardinalities[join_set] = self._scale_up(join_set, observed)
            validation.joins_validated += 1
        validation.elapsed_seconds = time.perf_counter() - started
        validation.prefix_cache_hits = self.prefix_cache_hits - hits_before
        validation.sample_join_row_ops = self.sample_join_row_ops - row_ops_before
        return validation


def validate_plan_for_bindings(
    db: Database, query: Query, plan: PlanNode
) -> SamplingValidation:
    """Validate a cached ``plan`` under the bound ``query``'s constants.

    This is the paper's sampling validator repurposed as a plan-cache guard
    (the query service's layer 1): a fresh estimator runs the cached plan
    over the samples *with ``query``'s local predicates applied*, and returns
    the resulting Δ.  The caller compares it against the Γ expectations the
    plan was originally chosen under (see :func:`repro.service.cache.max_drift`)
    to decide whether the cached plan is still supported or must be
    re-planned.
    """
    return SamplingEstimator(db, query).validate_plan(plan)
