"""Determinism rules: RPL001 (unseeded RNG), RPL002 (unordered iteration),
RPL011 (unordered shard/merge iteration in the scatter-gather coordinator
and merge kernels).

The paper's Algorithm-1 guarantee — re-optimization converges to a stable
plan, and sharded execution is bit-identical to single-node — only holds if
every run of the pipeline is a pure function of database, query and seed.  These
rules ban the ways nondeterminism has historically leaked in.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from repro_lint.astutils import (
    import_aliases,
    iteration_targets,
    qualified_name,
)
from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register

#: Legacy global-state NumPy RNG entry points (unseeded by construction —
#: they mutate a hidden process-wide state no test can pin).
_NUMPY_GLOBAL_RNG = frozenset(
    f"numpy.random.{name}"
    for name in (
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "seed",
        "bytes",
    )
)

#: Module-level ``random.*`` functions (same hidden global state).
_STDLIB_GLOBAL_RNG = frozenset(
    f"random.{name}"
    for name in (
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
        "getrandbits",
        "randbytes",
        "seed",
    )
)


@register
class UnseededRngRule(Rule):
    code = "RPL001"
    name = "unseeded-rng"
    summary = (
        "RNG must be seeded: no bare default_rng()/random.Random() and no "
        "global-state numpy.random.* / random.* calls"
    )
    contract = (
        "determinism — every sample, shuffled workload and generated table "
        "must be a pure function of an explicit seed, or re-running a query "
        "can silently produce a different Γ and a different plan "
        "(runtime guard: the bit-identity property suites and the seeded "
        "make_rng test fixture)"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            target = qualified_name(node.func, aliases)
            if target is None:
                continue
            message = None
            if target == "numpy.random.default_rng":
                if not node.args and not any(
                    keyword.arg == "seed" for keyword in node.keywords
                ):
                    message = (
                        "np.random.default_rng() without a seed is entropy-"
                        "seeded; pass an explicit seed"
                    )
            elif target == "random.Random":
                if not node.args:
                    message = (
                        "random.Random() without a seed is entropy-seeded; "
                        "pass an explicit seed"
                    )
            elif target in _NUMPY_GLOBAL_RNG:
                message = (
                    f"{target} draws from the hidden global NumPy RNG; use a "
                    "seeded np.random.default_rng(seed) generator"
                )
            elif target in _STDLIB_GLOBAL_RNG:
                message = (
                    f"{target} draws from the hidden global stdlib RNG; use "
                    "a seeded random.Random(seed) instance"
                )
            if message is not None:
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    message,
                )


def _unwrap_order_transparent(node: ast.expr) -> ast.expr:
    """Strip wrappers that forward their argument's iteration order."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple", "enumerate", "reversed", "iter")
        and node.args
    ):
        node = node.args[0]
    return node


def _is_set_producing(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


@register
class UnorderedIterationRule(Rule):
    code = "RPL002"
    name = "unordered-iteration"
    summary = (
        "no iteration over set-producing expressions in plan-enumeration / "
        "merge modules without an explicit sorted(...)"
    )
    contract = (
        "determinism — plan enumeration (DP subset expansion and split order) "
        "and result merges must visit candidates in a content-defined order; "
        "set iteration order depends on insertion history and PYTHONHASHSEED "
        "for strings, so an unsorted loop can pick a different tie-breaking "
        "plan between runs (runtime guard: golden-plan suite and plan-"
        "stability property tests)"
    )
    scope_prefixes = (
        "src/repro/plans",
        "src/repro/optimizer",
        "src/repro/relalg",
        "src/repro/reopt",
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for target in iteration_targets(context.tree):
            candidate = _unwrap_order_transparent(target)
            if _is_set_producing(candidate):
                yield Diagnostic(
                    context.path.as_posix(),
                    candidate.lineno,
                    candidate.col_offset,
                    self.code,
                    "iterating a set-producing expression has hash-dependent "
                    "order; wrap it in sorted(...) before feeding plan "
                    "enumeration or a result merge",
                )


def _is_dict_view(node: ast.expr) -> bool:
    """An argless ``.keys()`` / ``.values()`` / ``.items()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


@register
class UnorderedShardIterationRule(Rule):
    code = "RPL011"
    name = "unordered-shard-iteration"
    summary = (
        "shard/merge loops in the scatter-gather coordinator and merge "
        "kernels must iterate in canonical sorted order — no bare dict-view "
        "or set iteration"
    )
    contract = (
        "determinism — the sharded coordinator's bit-identity guarantee "
        "rests on visiting shards and merging partials in canonical sorted "
        "shard-id order; a loop over a dict view reflects insertion (i.e. "
        "arrival) history and a set loop is hash-dependent, so either can "
        "reorder a merge or a per-shard invalidation between runs (runtime "
        "guard: the sharded-vs-single-node bit-identity suites)"
    )
    #: File-scoped, not directory-scoped: exactly the modules whose loop
    #: order the merge-determinism proof depends on.
    scope_files = (
        "src/repro/service/coordinator.py",
        "src/repro/service/sharding.py",
        "src/repro/relalg/aggregate.py",
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        text = path.as_posix()
        return any(
            text == scoped or text.endswith("/" + scoped)
            for scoped in self.scope_files
        )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for target in iteration_targets(context.tree):
            candidate = _unwrap_order_transparent(target)
            if _is_set_producing(candidate) or _is_dict_view(candidate):
                what = (
                    "a dict view (insertion-order)"
                    if _is_dict_view(candidate)
                    else "a set-producing expression (hash-order)"
                )
                yield Diagnostic(
                    context.path.as_posix(),
                    candidate.lineno,
                    candidate.col_offset,
                    self.code,
                    f"iterating {what} in a shard/merge module; visit shards "
                    "and merge inputs in canonical sorted order "
                    "(sorted(...), or an explicitly ordered list)",
                )
