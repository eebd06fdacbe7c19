"""Integration tests for the experiment runners (small cohort).

These tests assert the *shape* of each artefact rather than absolute
numbers: with 30 patients the metrics are noisy, but the structure
(grids complete, invariants hold) must be stable.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_imbalance_ablation,
    run_imputation_ablation,
    run_model_ablation,
    run_qa,
)
from repro.experiments.ablation_imputation import render_imputation_ablation
from repro.experiments.ablation_models import render_model_ablation
from repro.experiments.fig1_distributions import render_fig1
from repro.experiments.fig4_performance import render_fig4
from repro.experiments.fig5_mae_by_clinic import BoxStats, render_fig5
from repro.experiments.fig6_local_explanations import render_fig6
from repro.experiments.fig7_global_dependence import render_fig7
from repro.experiments.qa_gaps import render_qa
from repro.parallel import executor
from tests.conftest import small_config


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=11, n_folds=2, cohort_config=small_config())


class TestContext:
    def test_cohort_cached(self, ctx):
        assert ctx.cohort is ctx.cohort

    def test_samples_cached(self, ctx):
        a = ctx.samples("qol", "dd", True)
        b = ctx.samples("qol", "dd", True)
        assert a is b

    def test_kd_derived_from_dd(self, ctx):
        kd = ctx.samples("qol", "kd", True)
        assert kd.kind == "kd"

    def test_results_cached(self, ctx):
        a = ctx.result("qol", "kd", False)
        b = ctx.result("qol", "kd", False)
        assert a is b


class TestFig1:
    def test_series_shapes(self, ctx):
        result = run_fig1(ctx)
        assert len(result["qol_counts"]) == 10
        assert len(result["sppb_counts"]) == 13
        assert result["falls_false"] + result["falls_true"] == 60  # 30 pats x 2

    def test_falls_majority_false(self, ctx):
        result = run_fig1(ctx)
        assert result["falls_false"] > result["falls_true"]

    def test_qol_mass_in_upper_bins(self, ctx):
        counts = run_fig1(ctx)["qol_counts"]
        assert counts[5:].sum() > counts[:5].sum()

    def test_render(self, ctx):
        text = render_fig1(run_fig1(ctx))
        assert "FIG1(a)" in text and "Falls" in text


class TestQA:
    def test_bundle_structure(self, ctx):
        result = run_qa(ctx, max_gaps=(0, 5))
        assert set(result["retention"]) == {0, 5}
        assert result["gap_report"].n_patients == 30

    def test_render(self, ctx):
        assert "retention" in render_qa(run_qa(ctx, max_gaps=(0,)))


class TestFig4:
    def test_grid_complete(self, ctx):
        grid = run_fig4(ctx)
        assert set(grid) == {"qol", "sppb", "falls"}
        for outcome in grid:
            assert set(grid[outcome]) == {
                ("kd", False),
                ("kd", True),
                ("dd", False),
                ("dd", True),
            }

    def test_regression_metrics_present(self, ctx):
        grid = run_fig4(ctx)
        cell = grid["qol"][("dd", True)]
        assert "one_minus_mape" in cell and 0.0 < cell["one_minus_mape"] <= 1.0

    def test_classification_metrics_present(self, ctx):
        cell = run_fig4(ctx)["falls"][("dd", True)]
        assert "recall_true" in cell and "f1_false" in cell

    def test_render(self, ctx):
        text = render_fig4(run_fig4(ctx))
        assert "1-MAPE" in text and "Falls" in text


class TestFig5:
    def test_groups_by_clinic(self, ctx):
        result = run_fig5(ctx)
        assert set(result) == {"qol", "sppb"}
        for groups in result.values():
            assert set(groups) <= {"modena", "sydney", "hong_kong"}

    def test_box_stats_ordered(self, ctx):
        for groups in run_fig5(ctx).values():
            for stats in groups.values():
                assert stats.q1 <= stats.median <= stats.q3
                assert stats.whisker_low <= stats.q1
                assert stats.whisker_high >= stats.q3

    def test_box_stats_from_values(self):
        stats = BoxStats.from_values(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert stats.outliers == 1
        assert stats.n == 5

    def test_box_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_values(np.array([]))

    def test_render(self, ctx):
        assert "per-patient MAE" in render_fig5(run_fig5(ctx))


class TestFig6:
    def test_pair_found(self, ctx):
        pair = run_fig6(ctx, tolerance=0.6)
        assert pair.patient_a != pair.patient_b
        assert abs(pair.prediction_a - pair.prediction_b) <= 0.6

    def test_explanations_have_five_features(self, ctx):
        pair = run_fig6(ctx, tolerance=0.6)
        assert len(pair.explanation_a.features) == 5
        assert len(pair.explanation_b.features) == 5

    def test_rankings_differ(self, ctx):
        pair = run_fig6(ctx, tolerance=0.6)
        assert pair.explanation_a.features != pair.explanation_b.features

    def test_render(self, ctx):
        assert "patient A" in render_fig6(run_fig6(ctx, tolerance=0.6))


class TestFig7:
    def test_curve_over_pro_item(self, ctx):
        curve = run_fig7(ctx)
        assert curve.feature.startswith("pro_")
        assert len(curve.values) >= 2
        assert curve.counts.sum() > 0

    def test_render(self, ctx):
        assert "dependence" in render_fig7(run_fig7(ctx))


class TestAblations:
    def test_model_ablation_grid(self, ctx):
        grid = run_model_ablation(ctx)
        assert set(grid) == {"qol", "sppb", "falls"}
        for row in grid.values():
            assert set(row) == {"gbm", "ebm", "linear", "dummy"}

    def test_gbm_beats_dummy(self, ctx):
        grid = run_model_ablation(ctx)
        for outcome, row in grid.items():
            key = "accuracy" if outcome == "falls" else "one_minus_mape"
            assert row["gbm"][key] >= row["dummy"][key] - 0.02

    def test_model_ablation_render(self, ctx):
        assert "ABL1" in render_model_ablation(run_model_ablation(ctx))

    def test_model_ablation_honours_context_jobs(self, monkeypatch):
        real_pool = executor.ShardedPool
        asked: list = []

        def recording_pool(*args, n_jobs=None, **kwargs):
            asked.append(n_jobs)
            if n_jobs != 1 and not parallel_allowed:
                raise AssertionError(f"a pool of n_jobs={n_jobs} was asked for")
            return real_pool(*args, n_jobs=n_jobs, **kwargs)

        monkeypatch.setattr(executor, "ShardedPool", recording_pool)
        grids = {}
        for jobs in (1, 2):
            # A context pinned to one job stays serial even when
            # REPRO_JOBS asks for more.
            parallel_allowed = jobs > 1
            monkeypatch.setenv("REPRO_JOBS", "2" if jobs == 1 else "1")
            asked.clear()
            grids[jobs] = run_model_ablation(
                ExperimentContext(
                    seed=11,
                    n_folds=2,
                    cohort_config=small_config(),
                    n_jobs=jobs,
                )
            )
        # Per outcome, the GBM run fans its fits out over 2 workers and
        # the three cheap baseline runs stay in-process.
        assert asked == [2, 1, 1, 1] * 3
        assert grids[1] == grids[2]

    def test_imputation_ablation_sweep(self, ctx):
        sweep = run_imputation_ablation(ctx, max_gaps=(0, 5))
        assert set(sweep) == {0, 5}
        assert sweep[5]["n_samples"] >= sweep[0]["n_samples"]

    def test_imputation_ablation_render(self, ctx):
        text = render_imputation_ablation(run_imputation_ablation(ctx, max_gaps=(0,)))
        assert "max_gap" in text

    def test_imbalance_ablation_sweep(self, ctx):
        sweep = run_imbalance_ablation(ctx, pos_weights=(1.0, 6.0))
        assert set(sweep) == {1.0, 6.0}
        for metrics in sweep.values():
            assert 0.0 <= metrics["recall_true"] <= 1.0

    def test_imbalance_ablation_render(self, ctx):
        from repro.experiments.ablation_imbalance import render_imbalance_ablation

        text = render_imbalance_ablation(
            run_imbalance_ablation(ctx, pos_weights=(1.0,))
        )
        assert "pos_weight" in text
