"""QA bench — gap statistics and retention (paper section 3).

Expected shape vs the paper: mean gap length ~5 (max 17), ~108 gaps per
patient (max 284), and roughly 2,250 of 4,176 possible samples retained
at the paper's interpolation bound of 5.
"""

from benchmarks.conftest import record
from repro.experiments import run_qa
from repro.experiments.qa_gaps import render_qa


def test_qa_gaps_and_retention(ctx, results_dir):
    result = run_qa(ctx)
    record(results_dir, "qa_gaps", render_qa(result))

    report = result["gap_report"]
    # Calibration targets from the paper's QA paragraph.
    assert 3.5 <= report.mean_gap_length <= 6.5          # paper: ~5
    assert report.max_gap_length <= 20                   # paper: 17
    assert 80 <= report.mean_gaps_per_patient <= 140     # paper: ~108
    assert report.max_gaps_per_patient <= 300            # paper: 284

    retention = result["retention"]
    possible = retention[5]["possible"]
    assert possible == 261 * 16                          # paper: 4,176
    assert 0.45 <= retention[5]["fraction"] <= 0.70      # paper: 0.539
    # Interpolation strictly helps retention.
    assert retention[5]["retained"] >= retention[0]["retained"]
