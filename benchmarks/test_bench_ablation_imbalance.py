"""ABL3 bench — Falls class-weighting sweep (extension experiment).

Expected shape: raising the positive-class weight monotonically-ish
raises minority (True) recall while precision decreases — the standard
imbalance trade-off, quantified on the paper's Falls task.
"""

from benchmarks.conftest import record
from repro.experiments import run_imbalance_ablation
from repro.experiments.ablation_imbalance import render_imbalance_ablation


def test_falls_class_weighting(ctx, results_dir):
    sweep = run_imbalance_ablation(ctx)
    record(results_dir, "ablation_imbalance", render_imbalance_ablation(sweep))

    weights = sorted(sweep)
    # Highest weight recalls more fallers than the unweighted model.
    assert sweep[weights[-1]]["recall_true"] > sweep[1.0]["recall_true"]
    # The trade-off: precision at the highest weight does not exceed the
    # unweighted precision (allowing a small noise margin).
    assert (
        sweep[weights[-1]]["precision_true"]
        <= sweep[1.0]["precision_true"] + 0.05
    )
