"""Packaging metadata agrees with the package it ships, every package's
``__all__`` resolves, and the docstring examples run."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.sql.builder

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
