"""Sort-order rule: RPL014 — one stable order.

Every stable sort the engine runs — join buckets, merge-join order, group
keys, sorted indexes, the canonical output order, the MCV ranking — goes
through ``repro.relalg.encoding.stable_order``, which picks ``uint16`` radix
passes where a key's value span allows.  A ``lexsort`` or ``argsort`` call
elsewhere either sorts wide keys the slow way or, left unstable, orders ties
by whatever the host's SIMD sort does (ANALYZE's MCV cut once differed
between CPUs that way).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.astutils import import_aliases
from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register

_SORTS = frozenset(("argsort", "lexsort"))


@register
class OneStableOrderRule(Rule):
    code = "RPL014"
    name = "one-stable-order"
    summary = "lexsort/argsort calls only inside relalg/encoding.py (use stable_order)"
    contract = (
        "one stable order — every sort permutation the engine builds comes "
        "from encoding.stable_order, so ties always go by row and keys with "
        "a narrow value span take uint16 radix passes; a direct argsort is "
        "slower on wide integer keys and, unstable, host-dependent on ties "
        "(runtime guard: the stable_order property test and the "
        "statistics digest)"
    )
    scope_prefixes = ("src/repro",)
    scope_skip = ("src/repro/relalg/encoding.py",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called = func.attr
            elif isinstance(func, ast.Name):
                called = aliases.get(func.id, "").rpartition(".")[2]
            else:
                continue
            if called in _SORTS:
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"{called} outside relalg/encoding.py; build the "
                    "permutation with repro.relalg.encoding.stable_order",
                )
