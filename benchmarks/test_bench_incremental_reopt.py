"""Incremental re-optimization engine: per-round DP work.

Not a paper figure — this benchmark gates the incremental-planning engine:
rounds after the first must re-expand strictly fewer DP masks than the full
round-1 enumeration (the Section 3.3 overhead argument, made literal).
"""

from conftest import run_once

from repro.bench.experiments import incremental_planning


def test_bench_incremental_dp_masks(benchmark):
    result = run_once(benchmark, incremental_planning, joins=4, num_queries=6)
    assert result.rows, "expected at least one DP-planned query"
    multi_round = [row for row in result.rows if row["rounds"] >= 2]
    assert multi_round, "expected at least one query needing re-optimization"
    for row in result.rows:
        # Round 1 is the full System-R enumeration over all 2^K - 1 masks.
        assert row["round1_masks"] == 2 ** 5 - 1
        # Incremental rounds only re-expand Γ-dirtied masks.
        assert row["max_later_masks"] < row["round1_masks"]
