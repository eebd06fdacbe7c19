"""TAB1 bench — single-clinic models (paper Table 1).

Expected shape vs the paper: per-clinic results consistent with the
pooled Fig. 4 grid for the two large clinics; the 33-patient Hong Kong
models are allowed to be anomalous (the paper observes the same and
attributes it to cohort size).
"""

from benchmarks.conftest import record
from repro.experiments import run_table1
from repro.experiments.table1_clinics import render_table1


def test_table1_per_clinic(ctx, results_dir):
    grid = run_table1(ctx)
    record(results_dir, "table1_clinics", render_table1(grid))

    assert set(grid) == {"modena", "sydney", "hong_kong"}
    for clinic in ("modena", "sydney"):
        block = grid[clinic]
        # Regression quality stays in the paper's regime on big clinics.
        for outcome in ("qol", "sppb"):
            assert block[(outcome, "dd", True)]["one_minus_mape"] > 0.85
        # DD does not lose to KD by more than noise on big clinics.
        assert (
            block[("qol", "dd", True)]["one_minus_mape"]
            >= block[("qol", "kd", True)]["one_minus_mape"] - 0.02
        )
    # Hong Kong present with full metric rows, values in [0, 1].
    for key, metrics in grid["hong_kong"].items():
        for value in metrics.values():
            assert 0.0 <= value or key[0] == "falls"
