"""The paper scorecard (:mod:`repro.bench.experiments`, run it with
``python -m``) and the zipf weights ``perfbench`` draws skewed streams from.

The package re-exports nothing and does not import the scorecard, so that
``python -m repro.bench.experiments`` runs it as a fresh ``__main__``.
"""

from __future__ import annotations

from repro.bench import loadgen

__all__ = ["loadgen"]
