"""Typing gate: RPL009 — every function in ``src/repro`` (and repro-lint
itself) carries complete parameter and return annotations.

This is the locally runnable half of the strict-typing contract: CI runs
``mypy --strict src/repro`` (which additionally type-*checks* the
annotations), but mypy is a dev-only dependency — this rule keeps the
"fully annotated" floor enforceable with the stdlib alone, so a module can
never regress to implicit-``Any`` signatures between mypy runs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register


def _missing_annotations(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> List[str]:
    missing: List[str] = []
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg in ("self", "cls"):
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    if node.returns is None:
        missing.append("return")
    return missing


@register
class MissingAnnotationsRule(Rule):
    code = "RPL009"
    name = "typing-gate"
    summary = (
        "every function in src/repro and tools/repro_lint must annotate all "
        "parameters and the return type"
    )
    contract = (
        "strict typing — mypy --strict (the CI gate) treats an unannotated "
        "function body as unchecked Any soup; this rule keeps the fully-"
        "annotated floor enforceable locally with the stdlib alone, so "
        "signature regressions are caught even where mypy is not installed"
    )
    scope_prefixes = ("src/repro", "tools/repro_lint", "repro_lint")

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _missing_annotations(node)
            if missing:
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"function {node.name!r} is missing annotations for: "
                    + ", ".join(missing),
                )
