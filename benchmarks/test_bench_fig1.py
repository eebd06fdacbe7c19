"""FIG1 bench — outcome distributions (paper Fig. 1).

Expected shape vs the paper: QoL mass concentrated in the 0.6-0.9 bins,
SPPB mass rising towards 11-12, Falls with a strong False majority.
"""

from benchmarks.conftest import record
from repro.experiments import run_fig1
from repro.experiments.fig1_distributions import render_fig1


def test_fig1_distributions(ctx, results_dir):
    result = run_fig1(ctx)
    record(results_dir, "fig1_distributions", render_fig1(result))

    # Paper-shape assertions (Fig. 1a-c).
    assert result["qol_counts"][6:9].sum() > result["qol_counts"][:5].sum()
    assert result["sppb_counts"][9:].sum() > result["sppb_counts"][:6].sum()
    assert result["falls_false"] > 2 * result["falls_true"]
