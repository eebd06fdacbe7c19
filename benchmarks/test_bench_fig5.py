"""FIG5 bench — per-patient MAE by clinic (paper Fig. 5).

Expected shape vs the paper: box statistics per clinic for QoL and
SPPB; the Hong Kong group is smaller and (relative to its size) more
outlier-prone than Modena/Sydney.
"""

from benchmarks.conftest import record
from repro.experiments import run_fig5
from repro.experiments.fig5_mae_by_clinic import render_fig5


def test_fig5_mae_by_clinic(ctx, results_dir):
    result = run_fig5(ctx)
    record(results_dir, "fig5_mae_by_clinic", render_fig5(result))

    for outcome in ("qol", "sppb"):
        groups = result[outcome]
        assert set(groups) == {"modena", "sydney", "hong_kong"}
        # Group sizes follow clinic sizes.
        assert groups["modena"].n > groups["sydney"].n > groups["hong_kong"].n
        # Medians are small relative to the outcome scale (QoL in [0,1],
        # SPPB in 0..12): the models fit every clinic reasonably.
        assert groups["modena"].median < (0.15 if outcome == "qol" else 2.0)
        for stats in groups.values():
            assert stats.q1 <= stats.median <= stats.q3
