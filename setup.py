"""Packaging for the sampling-based query re-optimization reproduction.

Two importable pieces ship from this repository:

* ``repro`` — the library itself, from the ``src/`` layout, with a
  ``py.typed`` marker so downstream type checkers consume the inline
  annotations (PEP 561);
* ``repro_lint`` — the project's AST invariant checker, from ``tools/``,
  so ``python -m repro_lint`` works in any environment the package is
  installed into (the repo root also symlinks it for in-tree runs).
"""

from setuptools import find_packages, setup

setup(
    name="repro-sampling-reopt",
    version="0.7.0",
    description=(
        "Reproduction of sampling-based query re-optimization (SIGMOD 2016): "
        "deterministic relational runtime, Algorithm 1, and benchmarks"
    ),
    python_requires=">=3.10",
    packages=find_packages("src") + ["repro_lint", "repro_lint.rules"],
    package_dir={
        "repro": "src/repro",
        "repro_lint": "tools/repro_lint",
    },
    package_data={"repro": ["py.typed"]},
    install_requires=[
        "numpy",
        "scipy",
    ],
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database :: Database Engines/Servers",
        "Topic :: Scientific/Engineering",
        "Typing :: Typed",
    ],
)
