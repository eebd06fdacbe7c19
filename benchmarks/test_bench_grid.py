"""GRID bench — the full experiment grid, serial vs parallel backend.

The deterministic executor's contract, measured end to end: FIG4 (12
protocol runs) + TABLE1 (36 per-clinic models) + ABL2 (6 interpolation
arms) + ABL3 (4 weighting arms) rendered under both backends from fresh
contexts.  The rendered artefacts must be **bitwise identical** — that
assertion always runs, so single-core CI boxes stay green — and on
machines with more than two cores the parallel grid must clear a 1.8x
wall-clock speedup.
"""

import os
import time

from repro.experiments import (
    ExperimentContext,
    run_fig4,
    run_imbalance_ablation,
    run_imputation_ablation,
    run_table1,
)
from repro.experiments.ablation_imbalance import render_imbalance_ablation
from repro.experiments.ablation_imputation import render_imputation_ablation
from repro.experiments.fig4_performance import render_fig4
from repro.experiments.table1_clinics import render_table1

SPEEDUP_TARGET = 1.8


def _run_grid(n_jobs: int) -> tuple[dict[str, str], float]:
    """Run the whole grid on a fresh context; return artefacts + seconds."""
    ctx = ExperimentContext(seed=7, n_folds=3, n_jobs=n_jobs)
    start = time.perf_counter()
    artefacts = {
        "fig4": render_fig4(run_fig4(ctx)),
        "table1": render_table1(run_table1(ctx)),
        "abl2": render_imputation_ablation(run_imputation_ablation(ctx)),
        "abl3": render_imbalance_ablation(run_imbalance_ablation(ctx)),
    }
    return artefacts, time.perf_counter() - start


def test_grid_parallel_equivalence_and_speedup():
    cpus = os.cpu_count() or 1
    jobs = max(2, min(4, cpus))

    parallel_artefacts, t_parallel = _run_grid(jobs)
    serial_artefacts, t_serial = _run_grid(1)

    # The hard guarantee: scheduling must not leak into any artefact.
    for name, serial_text in serial_artefacts.items():
        assert parallel_artefacts[name] == serial_text, (
            f"{name} artefact differs between serial and parallel backends"
        )

    speedup = t_serial / t_parallel
    if cpus > 2:
        assert speedup >= SPEEDUP_TARGET, (
            f"speedup {speedup:.2f}x < {SPEEDUP_TARGET}x: serial "
            f"{t_serial:.1f}s, parallel {t_parallel:.1f}s with {jobs} "
            f"workers on {cpus} CPUs"
        )
