"""Packaging metadata agrees with the package it ships, every package's
``__all__`` resolves, the docstring examples run, and every settings field
has a production caller."""

from __future__ import annotations

import ast
import dataclasses
import doctest
import importlib
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.sql.builder
from repro.optimizer.settings import OptimizerSettings
from repro.reopt.algorithm import ReoptimizationSettings
from repro.service.service import ServiceSettings

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_version_is_the_package_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__


PACKAGES = sorted(
    [repro.__name__]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_all_entry_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [entry for entry in exported if not hasattr(package, entry)]
    assert missing == [], f"{name}.__all__ names what the package does not define"


@pytest.mark.parametrize("module", [repro, repro.sql.builder], ids=lambda m: m.__name__)
def test_docstring_examples_run(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0 and failed == 0


#: Where production callers live; tests under ``tests/`` do not count.
PRODUCTION_TREES = ("src", "perfbench", "benchmarks", "examples", "tools")
SETTINGS_CLASSES = (ServiceSettings, ReoptimizationSettings, OptimizerSettings)
#: Fields no production caller sets, each kept for the reason given.
UNSET_FIELDS_KEPT = {
    ("ServiceSettings", "admission_timeout"): (
        "deadline expiry is a fault the service must handle; its tests set it"
    ),
}


def _keywords_passed(tree: ast.AST, classes: frozenset, owner: str = "") -> set:
    """``(class, keyword)`` pairs passed to a call of one of ``classes`` or to
    any ``replace``, outside the class's own body."""
    if isinstance(tree, ast.ClassDef) and tree.name in classes:
        owner = tree.name
    passed = set()
    if isinstance(tree, ast.Call):
        func = tree.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        targets = classes if name == "replace" else classes & {name}
        passed |= {
            (target, keyword.arg)
            for target in targets - {owner}
            for keyword in tree.keywords
            if keyword.arg is not None
        }
    for child in ast.iter_child_nodes(tree):
        passed |= _keywords_passed(child, classes, owner)
    return passed


def test_every_settings_field_has_a_production_caller():
    """An option only tests set is a constant in disguise: each field of the
    settings dataclasses is passed by keyword (to the class or to
    ``dataclasses.replace``) somewhere in production code."""
    classes = frozenset(cls.__name__ for cls in SETTINGS_CLASSES)
    passed = set()
    for tree in PRODUCTION_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            passed |= _keywords_passed(ast.parse(path.read_text(), str(path)), classes)
    fields = {
        (cls.__name__, field.name)
        for cls in SETTINGS_CLASSES
        for field in dataclasses.fields(cls)
    }
    assert sorted(fields - passed - set(UNSET_FIELDS_KEPT)) == []
    assert set(UNSET_FIELDS_KEPT) <= fields - passed


#: Documents whose python code blocks readers copy.
DOCUMENTS = ("README.md", ".claude/skills/verify/SKILL.md")


def _python_blocks(text: str):
    """The ```python fenced blocks of a markdown text, dedented."""
    blocks, block = [], None
    for line in text.splitlines():
        fence = line.strip()
        if block is None and fence == "```python":
            block = []
        elif block is not None and fence == "```":
            blocks.append(textwrap.dedent("\n".join(block)))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def _documented_imports():
    """``(document, module, name)`` of every ``from repro… import name``."""
    imports = []
    for document in DOCUMENTS:
        for block in _python_blocks((ROOT / document).read_text()):
            imports += [(document, node.module, alias.name)
                        for node in ast.walk(ast.parse(block))
                        if isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module.split(".")[0] == "repro"
                        for alias in node.names]
    return imports


def _resolves(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of ``module``."""
    try:
        package = importlib.import_module(module)
        return hasattr(package, name) or bool(importlib.import_module(f"{module}.{name}"))
    except ModuleNotFoundError:
        return False


def test_documented_snippets_import_names_that_exist():
    imports = _documented_imports()
    assert {document for document, _, _ in imports} == set(DOCUMENTS)
    missing = [f"{document}: from {module} import {name}"
               for document, module, name in imports if not _resolves(module, name)]
    assert missing == []
