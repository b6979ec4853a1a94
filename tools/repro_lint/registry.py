"""Rule base class and the process-wide rule registry.

Every rule has a stable code (``RPL001`` …) that never changes meaning once
shipped: suppression comments, ``--select``/``--ignore`` filters and the CI
gate all key on it.  New rules take the next free code; retired rules leave
a hole rather than renumbering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Dict, Iterator, List, Sequence, Type

from repro_lint.diagnostics import Diagnostic


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one file.

    ``path`` is the repository-relative POSIX path (or a caller-supplied
    virtual path for in-memory sources — the fixture tests use virtual paths
    to exercise path-scoped rules without touching the real tree).
    """

    path: PurePosixPath
    tree: ast.Module
    source: str
    lines: Sequence[str]


class Rule:
    """One invariant check.  Subclasses set the class metadata and ``check``.

    ``scope_prefixes`` restricts a rule to files under the given
    repository-relative directories (empty means every file); ``scope_skip``
    exempts specific files *inside* the scope — e.g. the shm-lifecycle rules
    exempt ``src/repro/relalg/shm.py`` itself, the one module allowed to
    create and unlink segments.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    #: The contract the rule protects (shown by ``--list-rules``).
    contract: str = ""
    #: Directory prefixes the rule applies to (empty: every file).
    scope_prefixes: Sequence[str] = ()
    #: Paths (exact or suffix) exempt from the rule.
    scope_skip: Sequence[str] = ()

    def applies_to(self, path: PurePosixPath) -> bool:
        text = path.as_posix()
        if any(text == skip or text.endswith("/" + skip) for skip in self.scope_skip):
            return False
        if not self.scope_prefixes:
            return True
        return any(
            text.startswith(prefix + "/") or ("/" + prefix + "/") in text
            for prefix in self.scope_prefixes
        )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        return f"{cls.code} [{cls.name}] {cls.summary}"


#: code -> rule class.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY` (codes are unique)."""
    if not rule.code or not rule.code.startswith("RPL"):
        raise ValueError(f"rule {rule.__name__} has no RPL code")
    if rule.code in REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    REGISTRY[rule.code] = rule
    return rule


def all_rules() -> List[Type[Rule]]:
    """Every registered rule, sorted by code (rule modules must be imported
    first — importing :mod:`repro_lint.rules` does that)."""
    import repro_lint.rules  # noqa: F401  # repro-lint: ignore[RPL013] (registers on import)

    return [REGISTRY[code] for code in sorted(REGISTRY)]


def rule_for_code(code: str) -> Type[Rule]:
    import repro_lint.rules  # noqa: F401  # repro-lint: ignore[RPL013]

    return REGISTRY[code]
