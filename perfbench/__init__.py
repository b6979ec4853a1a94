"""perfbench — the repository's one performance benchmark.

``python3 -m perfbench --seed 17`` runs five closed-loop, single-client
workloads over the stack (``relalg → executor → optimizer/validator → reopt
→ service → coordinator``), checks every output against a reference, and
prints the six end-to-end metrics per workload; ``--trace`` adds the
per-layer pass.  See ``perfbench/README.md`` for the metric ↔ layer ↔
workload table and how a later change states a claim against it.
"""

#: Environment the benchmark pins before the interpreter starts (see
#: ``__main__``): one BLAS thread, fixed hashing, no inherited pool sizing.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_SCHED_BACKEND", "REPRO_MP_START")
