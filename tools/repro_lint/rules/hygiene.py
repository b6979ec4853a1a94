"""Hygiene rules: RPL010 and RPL012.

RPL010 — no mutable default arguments.  A mutable default is shared across
every call of the function: state leaks between queries, between benchmark
repetitions, and — worst for this codebase — between the serial and parallel
runs a bit-identity test compares, making the second run see the first run's
accumulations.

RPL012 — no undefined global names.  A name read as a global that the module
never binds is a ``NameError`` waiting for the first call that reaches it;
on an error path (an ``except`` clause naming a class that was never
imported) that call is the one no happy-path test makes.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from typing import Iterator, List, Set

from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray")
    )


@register
class MutableDefaultRule(Rule):
    code = "RPL010"
    name = "mutable-default"
    summary = "no mutable default arguments (list/dict/set literals or calls)"
    contract = (
        "determinism + isolation — a mutable default is one object shared "
        "by every call, so state from one query/run leaks into the next; "
        "use None and construct inside the body (runtime guard: whichever "
        "property test happens to run the function twice)"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_default(default):
                    name = getattr(node, "name", "<lambda>")
                    yield Diagnostic(
                        context.path.as_posix(),
                        default.lineno,
                        default.col_offset,
                        self.code,
                        f"mutable default argument in {name!r} is shared "
                        "across calls; default to None and build the "
                        "container in the body",
                    )


#: Names every module or class body can read without binding them.
_IMPLICIT_GLOBALS = frozenset(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__package__", "__spec__", "__loader__",
    "__path__", "__cached__", "__annotations__", "__module__", "__qualname__",
}


def _scopes(table: symtable.SymbolTable) -> Iterator[symtable.SymbolTable]:
    yield table
    for child in table.get_children():
        yield from _scopes(child)


@register
class UndefinedGlobalRule(Rule):
    code = "RPL012"
    name = "undefined-global"
    summary = "no name read as a global that the module never binds"
    contract = (
        "robustness — a global the module neither imports, defines nor "
        "assigns (and builtins lacks) raises NameError on the first call "
        "that reaches it, typically an error path no test drives; mypy and "
        "pyflakes report it too, where they are installed (runtime guard: "
        "the fault-injection tests of tests/service)"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        if any(
            isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
            for node in ast.walk(context.tree)
        ):
            return  # a star import binds names this rule cannot see
        scopes = list(_scopes(symtable.symtable(context.source, context.path.name, "exec")))
        bound: Set[str] = set(_IMPLICIT_GLOBALS)
        for scope in scopes:
            for symbol in scope.get_symbols():
                module_level = scope.get_type() == "module" or symbol.is_declared_global()
                if module_level and (symbol.is_assigned() or symbol.is_imported()):
                    bound.add(symbol.get_name())
        undefined = [
            (scope.get_lineno(), symbol.get_name())
            for scope in scopes
            for symbol in scope.get_symbols()
            if symbol.is_global() and symbol.is_referenced() and symbol.get_name() not in bound
        ]
        if not undefined:
            return
        loads: List[ast.Name] = sorted(
            (
                node
                for node in ast.walk(context.tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ),
            key=lambda node: (node.lineno, node.col_offset),
        )
        reported: Set[ast.Name] = set()
        for scope_line, name in undefined:
            # The scope's body is contiguous from its first line, so the
            # first read at or after it is a read inside the scope.
            first = next(
                (n for n in loads if n.id == name and n.lineno >= scope_line), None
            )
            if first is None or first in reported:
                continue
            reported.add(first)
            yield Diagnostic(
                context.path.as_posix(),
                first.lineno,
                first.col_offset,
                self.code,
                f"name {name!r} is read as a global but the module never "
                "imports, defines or assigns it (and builtins lacks it): "
                "NameError on the first call that reaches this line",
            )
