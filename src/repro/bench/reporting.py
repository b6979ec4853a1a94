"""Plain-text reporting of experiment results and latency aggregation.

Every figure of the paper scorecard (:mod:`repro.bench.experiments`) becomes
an :class:`ExperimentResult`: a titled list of row dictionaries plus the
column order to print.  ``to_text()`` renders the same rows/series the
corresponding figure of the paper plots, which is the table REPRODUCTION.md
records next to the paper's claim.

The latency helpers (:class:`LatencySummary`, :func:`summarize_latencies`,
:func:`stage_breakdown`) turn the per-request traces the load generator
collects (:mod:`repro.bench.loadgen`) into the tail percentiles and
per-stage means the SLO gate reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.tracing import RequestTrace


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure."""

    experiment: str
    description: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        """Render the result as an aligned plain-text table (missing cells blank)."""
        formatted: List[List[str]] = []
        for row in self.rows:
            formatted.append([_format_value(row.get(column)) for column in self.columns])
        widths = [len(column) for column in self.columns]
        for line in formatted:
            for index, cell in enumerate(line):
                widths[index] = max(widths[index], len(cell))
        header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(self.columns))
        separator = "  ".join("-" * widths[i] for i in range(len(self.columns)))
        body = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)) for line in formatted
        ]
        lines = [f"== {self.experiment}: {self.description} ==", header, separator, *body]
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


@dataclass
class LatencySummary:
    """Order statistics of one latency population (seconds).

    Percentiles use ``numpy.percentile`` with linear interpolation, so two
    runs over identical samples summarize bit-identically."""

    count: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """The summary as plain floats (JSON-artifact friendly)."""
        return {
            "count": float(self.count),
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """Aggregate a latency population into count/mean/p50/p95/p99/max."""
    if not values:
        return LatencySummary()
    array = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(array, [50.0, 95.0, 99.0])
    return LatencySummary(
        count=int(array.size),
        mean_s=float(array.mean()),
        p50_s=float(p50),
        p95_s=float(p95),
        p99_s=float(p99),
        max_s=float(array.max()),
    )


def stage_breakdown(traces: Iterable["RequestTrace"]) -> Dict[str, float]:
    """Mean seconds spent per serving stage across ``traces``.

    Keys are :data:`repro.service.tracing.STAGE_FIELDS` plus ``overhead_s``
    (wall time no stage accounts for: statement prep, cache probes, trace
    bookkeeping).  Empty input yields all-zero means rather than NaN."""
    from repro.service.tracing import STAGE_FIELDS

    sums: Dict[str, float] = {name: 0.0 for name in STAGE_FIELDS}
    sums["overhead_s"] = 0.0
    count = 0
    for trace in traces:
        for name, seconds in trace.stage_seconds().items():
            sums[name] += seconds
        sums["overhead_s"] += trace.overhead_s
        count += 1
    if count == 0:
        return sums
    return {name: total / count for name, total in sums.items()}


def _format_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
