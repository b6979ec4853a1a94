"""Float-order rule: RPL008 — float reduction primitives only inside the
canonical aggregation module.

Floating-point addition is not associative: the same values summed in a
different order give a different last bit.  The reproduction's
sharded/single-node and plan-independence bit-identity therefore hinge on
*one* float reduction, implemented once in ``src/repro/relalg/aggregate.py``:
the correctly rounded grouped sum (``exact_group_sums``), whose result no
row order changes; shard partials merge there too.  A second ``reduceat`` /
``fsum`` call site elsewhere is someone re-implementing grouped float
reduction with its own order — exactly the drift the kernel-equivalence
suites exist to catch at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.astutils import import_aliases, qualified_name
from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register

#: Order-sensitive (or order-redefining) reduction entry points.
_BANNED_QUALIFIED = frozenset(
    (
        "math.fsum",
        "numpy.nansum",
        "numpy.nanmean",
        "numpy.einsum",
    )
)


@register
class FloatReductionOutsideHelpersRule(Rule):
    code = "RPL008"
    name = "float-order"
    summary = (
        "float reduction primitives (*.reduceat, math.fsum, np.nansum) only "
        "inside relalg/aggregate.py's canonical helpers"
    )
    contract = (
        "float order — cross-chunk float aggregation must go through the "
        "canonical reduceat/merge helpers so accumulation order is a pure "
        "function of the data; an ad-hoc reduction elsewhere picks its own "
        "order and breaks sharded/single-node and plan-independence "
        "bit-identity in the last ulp (runtime guard: the kernel-equivalence, "
        "partial-aggregate and plan-independence property tests)"
    )
    scope_prefixes = ("src/repro",)
    scope_skip = ("src/repro/relalg/aggregate.py",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "reduceat":
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    "reduceat outside relalg/aggregate.py re-implements "
                    "grouped reduction with its own accumulation order; use "
                    "group_aggregate / the canonical helpers",
                )
                continue
            target = qualified_name(func, aliases)
            if target in _BANNED_QUALIFIED:
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"{target} uses a different accumulation/rounding order "
                    "than the canonical reduceat helpers; route float "
                    "aggregation through relalg/aggregate.py",
                )
