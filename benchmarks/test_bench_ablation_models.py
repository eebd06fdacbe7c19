"""ABL1 bench — model-family ablation (paper section 5, GBM vs GA2M).

Expected shape vs the paper: gradient boosting is at least as good as
the GA2M-style EBM and the linear baseline on every outcome, and every
real model clears the dummy floor.
"""

from benchmarks.conftest import record
from repro.experiments import run_model_ablation
from repro.experiments.ablation_models import render_model_ablation


def test_model_family_ablation(ctx, results_dir):
    grid = run_model_ablation(ctx)
    record(results_dir, "ablation_models", render_model_ablation(grid))

    for outcome, row in grid.items():
        key = "accuracy" if outcome == "falls" else "one_minus_mape"
        # GBM >= interpretable baselines (the paper's model-choice
        # argument), with a small noise slack.
        assert row["gbm"][key] >= row["ebm"][key] - 0.01
        assert row["gbm"][key] >= row["linear"][key] - 0.01
        assert row["gbm"][key] >= row["dummy"][key] - 0.01
