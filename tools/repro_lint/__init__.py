"""repro-lint: AST-based invariant checker for the reproduction's contracts.

The runtime property suites (bit-identity, one process per query) catch contract
violations *after* they ship into a hot path; this package catches them at
review time.  Each rule encodes one invariant the runtime tests otherwise
guard dynamically:

* **determinism** — plans and merged results must be pure functions of the
  inputs (no unseeded RNG, no hash-order iteration feeding plan enumeration
  or result merges);
* **float order** — grouped float aggregation goes through the canonical
  ``reduceat`` helpers so accumulation order (and therefore every bit of
  the result) never depends on the plan or the shard count;
* **typing** — ``src/repro`` stays fully annotated (the local gate behind
  the CI ``mypy --strict`` sweep).

Run ``python -m repro_lint <paths>`` from the repository root; see
``python -m repro_lint --list-rules`` for the rule catalogue and the README
section *Invariants & static checks* for the contract each code protects.
"""

from __future__ import annotations

from repro_lint.diagnostics import Diagnostic
from repro_lint.engine import lint_paths, lint_source
from repro_lint.registry import REGISTRY, Rule, all_rules, rule_for_code

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "REGISTRY",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "rule_for_code",
    "__version__",
]
