"""Packaging for the sampling-based query re-optimization reproduction.

Two importable pieces ship from this repository:

* ``repro`` — the library itself, from the ``src/`` layout, with a
  ``py.typed`` marker so downstream type checkers consume the inline
  annotations (PEP 561);
* ``repro_lint`` — the project's AST invariant checker, from ``tools/``,
  so ``python -m repro_lint`` works in any environment the package is
  installed into (the repo root also symlinks it for in-tree runs).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read without importing the package."""
    source = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"$', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro-sampling-reopt",
    version=_version(),
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
