"""Plain-text reporting of experiment results.

Every figure of the paper scorecard (:mod:`repro.bench.experiments`) becomes
an :class:`ExperimentResult`: a titled list of row dictionaries plus the
column order to print.  ``to_text()`` renders the same rows/series the
corresponding figure of the paper plots, which is the table REPRODUCTION.md
records next to the paper's claim."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


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
