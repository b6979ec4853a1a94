"""Hygiene rules: RPL010, RPL012 and RPL013.

RPL010 — no mutable default arguments.  A mutable default is shared across
every call of the function: state leaks between queries, between benchmark
repetitions, and — worst for this codebase — between the two runs a
bit-identity test compares, making the second run see the first run's
accumulations.

RPL012 — no undefined global names.  A name read as a global that the module
never binds is a ``NameError`` waiting for the first call that reaches it;
on an error path (an ``except`` clause naming a class that was never
imported) that call is the one no happy-path test makes.

RPL013 — no unused imports.  An import nothing reads is dead weight that
outlives the code it served: after a helper is deleted its imports stay and
still claim a dependency the module no longer has.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from typing import Iterator, List, Set, Tuple

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


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, in code, in string annotations or in ``__all__``."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(
                n.value
                for n in ast.walk(node)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    return used


@register
class UnusedImportRule(Rule):
    code = "RPL013"
    name = "unused-import"
    summary = "no imported name that the module never reads"
    contract = (
        "minimality — an import nothing reads outlives the code it served "
        "and claims a dependency the module no longer has; a name counts as "
        "read in code, in a string annotation or in __all__, and package "
        "__init__.py re-exports and __future__ imports are exempt"
    )
    scope_skip = ("__init__.py",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        imported: List[Tuple[ast.alias, str]] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                imported.extend(
                    (alias, alias.asname or alias.name.split(".")[0]) for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.extend(
                    (alias, alias.asname or alias.name) for alias in node.names
                    if alias.name != "*"
                )
        if not imported:
            return
        used = _names_read(context.tree)
        for alias, name in imported:
            if name not in used:
                yield Diagnostic(
                    context.path.as_posix(),
                    alias.lineno,
                    alias.col_offset,
                    self.code,
                    f"{name!r} is imported but never read; delete the import",
                )
