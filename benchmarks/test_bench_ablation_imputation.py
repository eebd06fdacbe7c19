"""ABL2 bench — interpolation-aggressiveness ablation (paper section 3).

Expected shape vs the paper: the training-set size grows with the
interpolation bound while held-out performance stays flat-to-slightly-
better around the paper's chosen bound (5), justifying it as the safe
maximum.
"""

from benchmarks.conftest import record
from repro.experiments import run_imputation_ablation
from repro.experiments.ablation_imputation import render_imputation_ablation


def test_imputation_bound_ablation(ctx, results_dir):
    sweep = run_imputation_ablation(ctx, max_gaps=(0, 1, 3, 5, 9, 17))
    record(results_dir, "ablation_imputation", render_imputation_ablation(sweep))

    sizes = [sweep[g]["n_samples"] for g in (0, 1, 3, 5, 9, 17)]
    assert sizes == sorted(sizes)  # retention monotone in the bound
    # Performance at the paper's bound is within noise of the best.
    best = max(row["one_minus_mape"] for row in sweep.values())
    assert sweep[5]["one_minus_mape"] >= best - 0.02
