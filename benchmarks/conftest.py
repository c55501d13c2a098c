"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see the
section "repro.analysis and the CLI" of docs/ARCHITECTURE.md).  The data sets are built once per session; their scale is
controlled by the ``REPRO_BENCH_SCALE`` environment variable (``tiny``,
``small`` -- the default -- or ``full``).  Each benchmark prints the
regenerated table/profile and also appends it to
``benchmarks/results/<experiment>.txt`` so the output survives pytest's
capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.datasets import assembly_tree_dataset, random_tree_dataset

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("tiny", "small", "full"):
        raise ValueError(f"invalid REPRO_BENCH_SCALE={scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def assembly_instances(scale):
    """The assembly-tree data set (matrices x orderings x amalgamation)."""
    return assembly_tree_dataset(scale)


@pytest.fixture(scope="session")
def random_instances(scale, assembly_instances):
    """The Section VI-E randomly reweighted data set."""
    return random_tree_dataset(scale, seed=0, assembly_instances=assembly_instances)


@pytest.fixture(scope="session")
def report():
    """Callable writing a labelled report both to stdout and to a file."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n===== {name} =====\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _report
