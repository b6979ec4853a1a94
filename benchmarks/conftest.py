"""Shared helpers for the figure benchmarks.

Every benchmark runs its experiment driver exactly once (``rounds=1``), prints
the regenerated table (visible with ``pytest -s``) and applies light sanity
assertions on the *shape* of the result (who wins, roughly by how much), which
is the level at which the reproduction is expected to match the paper.

When ``BENCH_OUTPUT_DIR`` is set, each run also dumps the table there as
``BENCH_<experiment>.json`` (CI sets it to ``.`` and uploads the files as
artifacts); unset — the tier-1 default — nothing is written, so a test run
leaves the working tree clean.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest


def _dump_result(result) -> None:
    """Write one experiment result as a BENCH_*.json artifact, if asked to."""
    directory = os.environ.get("BENCH_OUTPUT_DIR")
    if not directory:
        return
    payload = {
        "experiment": result.experiment,
        "description": result.description,
        "columns": result.columns,
        "rows": result.rows,
    }
    path = pathlib.Path(directory) / f"BENCH_{result.experiment}.json"
    try:
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    except OSError:  # pragma: no cover - read-only working directories
        pass


def run_once(benchmark, driver, *args, **kwargs):
    """Run an experiment driver once under pytest-benchmark and print its table."""
    result = benchmark.pedantic(lambda: driver(*args, **kwargs), rounds=1, iterations=1)
    print()
    print(result.to_text())
    _dump_result(result)
    return result
