"""Command-line interface: ``python -m repro_lint <paths>``."""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional, Sequence

from repro_lint.engine import lint_paths
from repro_lint.registry import all_rules


def _parse_codes(value: str) -> List[str]:
    return [code.strip() for code in value.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description=(
            "AST-based invariant checker for the determinism / float-order "
            "/ typing / hygiene contracts of this reproduction.  Exits "
            "1 when any diagnostic is emitted."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks", "tests"],
        help="files or directories to lint (default: src benchmarks tests)",
    )
    parser.add_argument(
        "--select",
        type=_parse_codes,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. RPL001,RPL002)",
    )
    parser.add_argument(
        "--ignore",
        type=_parse_codes,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (code, name, contract) and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-code diagnostic count summary",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            print(rule.describe())
            print(f"    protects: {rule.contract}")
        return 0

    try:
        diagnostics = lint_paths(
            options.paths, select=options.select, ignore=options.ignore
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    for diagnostic in diagnostics:
        print(diagnostic.render())
    if options.statistics and diagnostics:
        print()
        for code, count in sorted(Counter(d.code for d in diagnostics).items()):
            print(f"{code}: {count}")
    if diagnostics:
        print(
            f"\nrepro-lint: {len(diagnostics)} diagnostic"
            f"{'s' if len(diagnostics) != 1 else ''} "
            "(suppress a line with '# repro-lint: ignore[CODE]')",
            file=sys.stderr,
        )
        return 1
    return 0
