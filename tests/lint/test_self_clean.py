"""The repo's own source must satisfy its invariant checker.

This is the in-suite mirror of the CI ``static-analysis`` gate: the real
``src/``, ``benchmarks/``, ``tests/``, ``tools/`` and ``examples/`` trees
(fixtures excluded) produce zero diagnostics, and the linter's own
implementation passes its typing and hygiene rules.
"""

from __future__ import annotations

from pathlib import Path

from repro_lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint(*relative: str) -> list:
    paths = [str(REPO_ROOT / rel) for rel in relative]
    return lint_paths(paths)


def test_src_is_clean() -> None:
    diagnostics = _lint("src")
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


def test_benchmarks_are_clean() -> None:
    diagnostics = _lint("benchmarks")
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


def test_test_suite_is_clean() -> None:
    diagnostics = _lint("tests")
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


def test_tools_and_examples_are_clean() -> None:
    diagnostics = _lint("tools", "examples")
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


def test_linter_lints_itself() -> None:
    diagnostics = _lint("tools/repro_lint")
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)
