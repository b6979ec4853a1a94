"""End-to-end CLI behaviour: exit codes, filters, rule listing."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_lint(*args: str) -> Tuple[int, str, str]:
    completed = subprocess.run(
        [sys.executable, "-m", "repro_lint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return completed.returncode, completed.stdout, completed.stderr


def test_clean_tree_exits_zero() -> None:
    code, stdout, stderr = run_lint("src", "benchmarks", "tests", "tools", "examples")
    assert code == 0, stdout + stderr


def test_bad_fixture_exits_one_with_diagnostics() -> None:
    bad = str(FIXTURES / "rpl001_bad.py")
    code, stdout, stderr = run_lint(bad)
    assert code == 1
    assert "RPL001" in stdout
    # path:line:col: CODE message, clickable and grep-able.
    first = stdout.splitlines()[0]
    assert first.count(":") >= 3 and "rpl001_bad.py" in first
    assert "suppress" in stderr


def test_select_filter_restricts_rules() -> None:
    bad = str(FIXTURES / "rpl010_bad.py")
    code, stdout, _ = run_lint(bad, "--select", "RPL001")
    assert code == 0, stdout
    code, stdout, _ = run_lint(bad, "--select", "RPL010")
    assert code == 1 and "RPL010" in stdout


def test_ignore_filter_drops_rules() -> None:
    bad = str(FIXTURES / "rpl010_bad.py")
    code, stdout, _ = run_lint(bad, "--ignore", "RPL010")
    assert code == 0, stdout


def test_unknown_code_is_a_usage_error() -> None:
    code, _, stderr = run_lint("src", "--select", "RPL999")
    assert code == 2
    assert "RPL999" in stderr


def test_missing_path_is_a_usage_error() -> None:
    code, _, stderr = run_lint("does_not_exist_dir")
    assert code == 2
    assert "does_not_exist_dir" in stderr


def test_list_rules_shows_all_codes() -> None:
    code, stdout, _ = run_lint("--list-rules")
    assert code == 0
    for rule_code in [f"RPL{n:03d}" for n in range(1, 11)]:
        assert rule_code in stdout


def test_statistics_summarises_per_code() -> None:
    bad = str(FIXTURES / "rpl001_bad.py")
    code, stdout, _ = run_lint(bad, "--statistics")
    assert code == 1
    lines: List[str] = stdout.splitlines()
    assert any("RPL001" in line and "4" in line for line in lines)


def test_fixture_directory_excluded_from_directory_walks() -> None:
    # The gate lints tests/ wholesale; the deliberately-broken fixtures must
    # only be reachable as explicit file arguments.
    code, stdout, stderr = run_lint("tests")
    assert code == 0, stdout + stderr
