"""Nothing in ``src/repro`` crosses a process boundary or reads the environment.

Every query operator and every shard runs in the caller's process, so no
module may import ``multiprocessing`` or ``pickle`` or read an environment
variable.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _modules() -> Iterator[Tuple[Path, ast.AST]]:
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )


def _imported_roots(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_the_source_tree_is_found():
    assert (SRC / "relalg" / "__init__.py").is_file()
    assert sum(1 for _ in _modules()) > 20


@pytest.mark.parametrize("module", ["multiprocessing", "pickle"])
def test_no_module_imports(module):
    offenders = [
        str(path) for path, tree in _modules() if module in set(_imported_roots(tree))
    ]
    assert offenders == []


def test_no_module_reads_the_environment():
    offenders: List[str] = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            reads = (
                isinstance(node, ast.Attribute)
                and node.attr in {"environ", "environb", "getenv", "getenvb"}
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in {"environ", "getenv"} for alias in node.names)
            )
            if reads:
                offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("name", ["REPRO_WORKERS", "REPRO_MP_START"])
def test_removed_env_vars_are_gone(name):
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
