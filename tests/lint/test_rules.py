"""Every repro-lint rule fires on its bad fixture and stays quiet on the good one.

The fixtures under ``tests/lint/fixtures`` contain violations *on purpose*
(the directory is excluded from the repo-wide gate); each is linted here
in-memory under a virtual path inside the rule's scope, so path-scoped rules
(RPL002's plan-enumeration modules, RPL008's src/repro scope, ...) are
exercised exactly as they would be on real source.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict

import pytest

from repro_lint import REGISTRY, all_rules, lint_source, rule_for_code
from repro_lint.engine import _SUPPRESSION_RE

FIXTURES = Path(__file__).parent / "fixtures"

#: Virtual path each rule's fixtures are linted under — inside the rule's
#: scope (and outside its skip list) so path-scoped rules actually run.
VIRTUAL_PATHS: Dict[str, str] = {
    "RPL001": "src/repro/workloads/fixture.py",
    "RPL002": "src/repro/plans/fixture.py",
    "RPL008": "src/repro/executor/fixture.py",
    "RPL009": "src/repro/typing_fixture.py",
    "RPL010": "src/repro/service/fixture.py",
    "RPL011": "src/repro/service/coordinator.py",
    "RPL012": "src/repro/service/fixture.py",
    "RPL013": "src/repro/service/fixture.py",
    "RPL014": "src/repro/executor/fixture.py",
}

#: How many distinct violations the bad fixture plants (the rule must find
#: every one, not just the first).
EXPECTED_BAD_COUNTS: Dict[str, int] = {
    "RPL001": 4,
    "RPL002": 4,
    "RPL008": 3,
    "RPL009": 3,
    "RPL010": 3,
    "RPL011": 3,
    "RPL012": 3,
    "RPL013": 4,
    "RPL014": 3,
}

ALL_CODES = sorted(VIRTUAL_PATHS)


def _fixture(code: str, kind: str) -> str:
    return (FIXTURES / f"{code.lower()}_{kind}.py").read_text(encoding="utf-8")


def test_registry_has_at_least_eight_rules() -> None:
    all_rules()  # rule modules register on import
    assert len(REGISTRY) >= 8
    assert sorted(REGISTRY) == ALL_CODES


def test_every_rule_has_fixture_coverage() -> None:
    # A new rule without a bad/good fixture pair fails here, not silently.
    for rule in all_rules():
        assert rule.code in VIRTUAL_PATHS, f"no fixture mapping for {rule.code}"
        assert (FIXTURES / f"{rule.code.lower()}_bad.py").is_file()
        assert (FIXTURES / f"{rule.code.lower()}_good.py").is_file()


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_fires_on_bad_fixture(code: str) -> None:
    diagnostics = lint_source(
        _fixture(code, "bad"), VIRTUAL_PATHS[code], select=[code]
    )
    assert len(diagnostics) == EXPECTED_BAD_COUNTS[code], [
        d.render() for d in diagnostics
    ]
    assert all(d.code == code for d in diagnostics)
    assert all(d.line > 0 and d.path == VIRTUAL_PATHS[code] for d in diagnostics)


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_quiet_on_good_fixture(code: str) -> None:
    diagnostics = lint_source(
        _fixture(code, "good"), VIRTUAL_PATHS[code], select=[code]
    )
    assert diagnostics == [], [d.render() for d in diagnostics]


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_metadata_complete(code: str) -> None:
    rule = rule_for_code(code)
    assert rule.name and rule.summary and rule.contract


def test_suppression_comment_silences_one_line() -> None:
    source = "import numpy as np\nrng = np.random.default_rng()  # repro-lint: ignore[RPL001]\n"
    assert lint_source(source, "src/repro/fixture.py", select=["RPL001"]) == []


def test_suppression_comment_is_code_specific() -> None:
    source = "import numpy as np\nrng = np.random.default_rng()  # repro-lint: ignore[RPL010]\n"
    diagnostics = lint_source(source, "src/repro/fixture.py", select=["RPL001"])
    assert [d.code for d in diagnostics] == ["RPL001"]


def test_bare_suppression_comment_silences_all_codes() -> None:
    source = "import numpy as np\nrng = np.random.default_rng()  # repro-lint: ignore\n"
    assert lint_source(source, "src/repro/fixture.py") == []
    assert _SUPPRESSION_RE.search("# repro-lint: ignore") is not None


def test_scoped_rule_ignores_out_of_scope_paths() -> None:
    # RPL002 only polices the plan-enumeration/merge modules.
    bad = _fixture("RPL002", "bad")
    assert lint_source(bad, "src/repro/plans/fixture.py", select=["RPL002"])
    assert lint_source(bad, "src/repro/workloads/fixture.py", select=["RPL002"]) == []


def test_shard_order_rule_is_file_scoped() -> None:
    # RPL011 polices exactly the coordinator/sharding/merge-kernel modules.
    bad = _fixture("RPL011", "bad")
    assert lint_source(bad, "src/repro/service/sharding.py", select=["RPL011"])
    assert lint_source(bad, "src/repro/relalg/aggregate.py", select=["RPL011"])
    assert lint_source(bad, "src/repro/service/service.py", select=["RPL011"]) == []


def test_stable_order_rule_exempts_only_the_encoding_module() -> None:
    # RPL014: the one stable order lives in relalg/encoding.py; tests and
    # benchmarks compare against np.lexsort freely.
    bad = _fixture("RPL014", "bad")
    assert lint_source(bad, "src/repro/relalg/joins.py", select=["RPL014"])
    assert lint_source(bad, "src/repro/relalg/encoding.py", select=["RPL014"]) == []
    assert lint_source(bad, "tests/relalg/fixture.py", select=["RPL014"]) == []


def test_unused_import_rule_exempts_package_reexports() -> None:
    # An ``__init__.py`` imports names for its importers, not for itself.
    bad = _fixture("RPL013", "bad")
    assert lint_source(bad, "src/repro/service/__init__.py", select=["RPL013"]) == []


def test_syntax_error_reported_as_rpl000() -> None:
    diagnostics = lint_source("def broken(:\n", "src/repro/fixture.py")
    assert [d.code for d in diagnostics] == ["RPL000"]


def test_fixtures_are_valid_python() -> None:
    for path in sorted(FIXTURES.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
