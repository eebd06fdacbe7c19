"""Shared benchmark fixtures.

The benchmarks operate on the *paper-scale* cohort (261 patients) and
regenerate every table/figure of the evaluation section.  Each
experiment bench renders its artefact into ``<results>/<exp>.txt`` so a
bench run leaves a complete paper-vs-measured record behind.  With
``REPRO_RECORD_RESULTS=1`` that directory is the committed ``results/``
(the CI benchmarks job sets it and uploads the files); otherwise it is a
per-session temporary directory, so running the test suite leaves the
committed artefacts alone.

The benches assert the paper's shapes, the engines' equivalence to
their oracles and their speedup floors; they record no timings.
Timings come from ``perfbench`` (``python3 -m perfbench.run``), which
repeats each run and reports a spread.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def ctx():
    """Paper-scale experiment context shared by all benches."""
    return ExperimentContext(seed=7, n_folds=3)


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Where benches write artefacts: ``results/`` only when recording."""
    if os.environ.get("REPRO_RECORD_RESULTS") != "1":
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def record(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered artefact (and echo it for -s runs)."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")
