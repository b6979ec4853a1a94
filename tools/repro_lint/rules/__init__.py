"""Rule modules — importing this package registers every rule."""

from __future__ import annotations

from repro_lint.rules import (  # noqa: F401  (imported for registration)
    determinism,
    float_order,
    hygiene,
    sort_order,
    typing_gate,
)
