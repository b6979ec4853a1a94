"""Picklability rules: RPL004 (non-top-level kernel callables) and RPL005
(Relation objects in task signatures).

The process tier ships kernel tasks as ``pickle.dumps((fn, payload))``: the
function travels by module reference, the payload by value.  Both halves
have a contract — ``fn`` must be importable by name from a worker process,
and payloads must be descriptor-sized (shm handles plus scalars), never
materialised columns.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register

#: Type names that mark a materialised-relation parameter.
_RELATION_TYPE_NAMES = ("Relation", "Table")
_RELATION_TYPE_RE = re.compile(
    r"\b(" + "|".join(_RELATION_TYPE_NAMES) + r")\b"
)


def _function_scopes(
    tree: ast.Module,
) -> List[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Every node paired with its chain of enclosing function definitions."""
    out: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = []

    def visit(node: ast.AST, stack: Tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            out.append((child, stack))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, stack + (child,))
            else:
                visit(child, stack)

    visit(tree, ())
    return out


def _locally_defined_functions(scope: ast.AST) -> Set[str]:
    """Names bound to functions *directly inside* one function scope."""
    names: Set[str] = set()
    for child in ast.walk(scope):
        if child is scope:
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(child.name)
        elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Lambda):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


@register
class NonPicklableKernelRule(Rule):
    code = "RPL004"
    name = "nonpicklable-kernel"
    summary = (
        "callables passed to map_kernel must be top-level module functions "
        "(no lambdas, closures or bound methods)"
    )
    contract = (
        "picklability — the process tier pickles (fn, payload) by module "
        "reference; a lambda, closure or bound method fails pickling and "
        "silently degrades the whole batch to serial inline execution, "
        "erasing the parallel speedup without failing any correctness test "
        "(runtime guard: the scheduler's unpicklable-task fallback; perfbench "
        "serve_sharded, whose shard scatter is the one kernel, would show it "
        "as relalg.scheduler.tasks_process = 0)"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node, stack in _function_scopes(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_map_kernel = (
                isinstance(func, ast.Attribute) and func.attr == "map_kernel"
            ) or (isinstance(func, ast.Name) and func.id == "map_kernel")
            if not is_map_kernel or not node.args:
                continue
            kernel = node.args[0]
            reason = None
            if isinstance(kernel, ast.Lambda):
                reason = "a lambda cannot be pickled by module reference"
            elif isinstance(kernel, ast.Attribute):
                reason = (
                    "an attribute reference (bound method / object field) is "
                    "not a top-level module function"
                )
            elif isinstance(kernel, ast.Name):
                enclosing = [
                    scope
                    for scope in stack
                    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                if any(
                    kernel.id in _locally_defined_functions(scope)
                    for scope in enclosing
                ):
                    reason = (
                        f"{kernel.id!r} is defined inside an enclosing "
                        "function (a closure); move it to module top level"
                    )
            if reason is not None:
                yield Diagnostic(
                    context.path.as_posix(),
                    kernel.lineno,
                    kernel.col_offset,
                    self.code,
                    f"map_kernel callable must be a picklable top-level "
                    f"function: {reason}",
                )


def _annotation_names(annotation: ast.expr) -> str:
    """Flatten an annotation expression to searchable text."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return ast.unparse(annotation)


@register
class RelationInTaskRule(Rule):
    code = "RPL005"
    name = "relation-in-task"
    summary = (
        "*_task kernel bodies must take descriptor payloads, never "
        "Relation/Table parameters"
    )
    contract = (
        "picklability + zero-copy — a Relation parameter in a task signature "
        "means whole columns get pickled through the task queue instead of "
        "crossing once via shared-memory descriptors, reintroducing the "
        "per-task copy cost the shm runtime exists to remove (no runtime "
        "guard: the result would be correct, just quietly slow — perfbench "
        "serve_sharded's relalg.scheduler.map_kernel_ms would show it)"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or not node.name.endswith("_task"):
                continue
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is None:
                    continue
                text = _annotation_names(arg.annotation)
                match = _RELATION_TYPE_RE.search(text)
                if match is not None:
                    yield Diagnostic(
                        context.path.as_posix(),
                        arg.annotation.lineno,
                        arg.annotation.col_offset,
                        self.code,
                        f"kernel task {node.name!r} takes a "
                        f"{match.group(1)} parameter {arg.arg!r}; ship a "
                        "shared-memory descriptor payload and attach inside "
                        "the task instead",
                    )
