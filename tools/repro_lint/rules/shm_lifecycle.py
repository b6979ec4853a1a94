"""Shared-memory lifecycle rules: RPL006 (segment creation outside the
registry) and RPL007 (raw ``.unlink()`` outside the registry).

``src/repro/relalg/shm.py`` is the single module allowed to create or
unlink ``multiprocessing.shared_memory`` segments: every segment goes
through the refcounting :class:`~repro.relalg.shm.SegmentRegistry` so that
``SegmentRegistry.unlink_all()`` can enumerate and force-unlink whatever is
still alive, and the leak tests can audit the ledger against ``/dev/shm``.  A
segment created (or unlinked) anywhere else is invisible to that ledger —
the exact class of leak the lifecycle tests only catch after the fact.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro_lint.astutils import call_keyword, import_aliases, is_constant, qualified_name
from repro_lint.diagnostics import Diagnostic
from repro_lint.registry import FileContext, Rule, register

_SHM_MODULE = "src/repro/relalg/shm.py"


def _is_shared_memory_call(node: ast.Call, aliases: dict) -> bool:
    target = qualified_name(node.func, aliases)
    if target is not None:
        return target.endswith("shared_memory.SharedMemory") or target == (
            "multiprocessing.shared_memory.SharedMemory"
        )
    # Unresolvable root but the terminal name is unmistakable.
    func = node.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "SharedMemory"
    ) or (isinstance(func, ast.Name) and func.id == "SharedMemory")


@register
class ShmCreateOutsideRegistryRule(Rule):
    code = "RPL006"
    name = "shm-create-outside-registry"
    summary = (
        "SharedMemory(create=True) only inside relalg/shm.py "
        "(SegmentRegistry.create is the one factory)"
    )
    contract = (
        "shm lifecycle — a segment created outside SegmentRegistry.create "
        "is missing from the refcount ledger, so arenas cannot release it "
        "and SegmentRegistry.unlink_all() cannot force-unlink it: a guaranteed "
        "/dev/shm leak on any non-happy path (runtime guard: the lifecycle "
        "tests' registry-ledger and /dev/shm audits, which only fire for "
        "code paths the tests happen to execute)"
    )
    scope_skip = (_SHM_MODULE,)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_shared_memory_call(node, aliases):
                continue
            create = call_keyword(node, "create")
            positional_create = node.args[1] if len(node.args) > 1 else None
            if is_constant(create, True) or is_constant(positional_create, True):
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    "SharedMemory(create=True) outside relalg/shm.py "
                    "bypasses the SegmentRegistry ledger; create segments "
                    "through an ShmArena / SegmentRegistry.create",
                )


@register
class RawUnlinkRule(Rule):
    code = "RPL007"
    name = "raw-unlink"
    summary = ".unlink() only inside relalg/shm.py (release via the registry)"
    contract = (
        "shm lifecycle — the registry refcounts attachments; a raw "
        ".unlink() elsewhere either double-unlinks (FileNotFoundError races "
        "in workers) or unlinks a segment another arena still references, "
        "invalidating live zero-copy views (runtime guard: the scope-exit/"
        "exception leak-freedom tests)"
    )
    scope_skip = (_SHM_MODULE,)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unlink"
            ):
                yield Diagnostic(
                    context.path.as_posix(),
                    node.lineno,
                    node.col_offset,
                    self.code,
                    ".unlink() outside relalg/shm.py; release segments "
                    "through SegmentRegistry.release / ShmArena scope exit "
                    "(or Path.unlink via os.remove for regular files)",
                )
