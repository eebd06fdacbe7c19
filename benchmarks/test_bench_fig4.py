"""FIG4 bench — DD vs KD predictive performance (paper Fig. 4).

Expected shape vs the paper: DD >= KD for every outcome; adding FI
helps both arms; the Falls minority-class recall collapses for KD and
recovers with FI (paper: KD w/o FI recall-True = 2 %).
"""

from benchmarks.conftest import record
from repro.experiments import run_fig4
from repro.experiments.fig4_performance import render_fig4


def test_fig4_dd_vs_kd(ctx, results_dir):
    grid = run_fig4(ctx)
    record(results_dir, "fig4_performance", render_fig4(grid))

    for outcome in ("qol", "sppb"):
        cells = grid[outcome]
        # DD beats KD, with and without FI (small slack for split noise).
        assert (
            cells[("dd", False)]["one_minus_mape"]
            >= cells[("kd", False)]["one_minus_mape"] - 0.005
        )
        assert (
            cells[("dd", True)]["one_minus_mape"]
            >= cells[("kd", True)]["one_minus_mape"] - 0.005
        )
        # FI helps the DD arm.
        assert (
            cells[("dd", True)]["one_minus_mape"]
            >= cells[("dd", False)]["one_minus_mape"] - 0.005
        )
        # Magnitudes in the paper's regime (> 85 % everywhere).
        assert cells[("kd", False)]["one_minus_mape"] > 0.85

    falls = grid["falls"]
    assert falls[("dd", True)]["accuracy"] >= falls[("kd", True)]["accuracy"] - 0.01
    # The paper's imbalance effect: KD recall on the minority class is
    # far below DD recall.
    assert falls[("kd", False)]["recall_true"] < falls[("dd", False)]["recall_true"]
    # FI lifts minority recall for both arms.
    assert falls[("dd", True)]["recall_true"] >= falls[("dd", False)]["recall_true"] - 0.05
