"""Fig. 6/7 SHAP sweeps fanned across the executor == serial, bitwise.

The runners' ``n_jobs`` shards the population SHAP pass across the
executor (:func:`repro.experiments.shap_sweep.parallel_shap`); because
the batched engine is row-deterministic, the parallel artefacts must
equal the serial ones bit for bit — not approximately.
"""

import copy

import numpy as np
import pytest

from repro.boosting import GBRegressor
from repro.experiments import ExperimentContext, run_fig6, run_fig7
from repro.experiments.fig6_local_explanations import render_fig6
from repro.experiments.fig7_global_dependence import render_fig7
from repro.experiments.shap_sweep import parallel_shap
from repro.explain import TreeShapExplainer

from tests.conftest import small_config


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=11, n_folds=2, cohort_config=small_config())


@pytest.fixture(scope="module")
def regressor():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 7))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, 3]) + rng.normal(
        0, 0.1, 300
    )
    return GBRegressor(n_estimators=18, max_depth=3).fit(X, y), X


class TestParallelShap:
    def test_serial_matches_plain_explainer(self, regressor):
        model, X = regressor
        phi, expected = parallel_shap(model, X[:60], n_jobs=1)
        baseline = TreeShapExplainer(model)
        assert np.array_equal(phi, baseline.shap_values(X[:60]))
        assert expected == baseline.expected_value

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_workers_bitwise_equal_serial(self, regressor, jobs):
        model, X = regressor
        serial, expected_serial = parallel_shap(model, X, n_jobs=1)
        fanned, expected_fanned = parallel_shap(model, X, n_jobs=jobs)
        assert np.array_equal(fanned, serial)
        assert expected_fanned == expected_serial

    def test_more_workers_than_rows(self, regressor):
        model, X = regressor
        serial, _ = parallel_shap(model, X[:3], n_jobs=1)
        fanned, _ = parallel_shap(model, X[:3], n_jobs=8)
        assert np.array_equal(fanned, serial)


class TestParallelShapFallback:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_mapperless_model_bitwise(self, regressor, jobs):
        # Without a mapper the sweep routes on raw thresholds, in the
        # workers as well: that path is row-deterministic too.
        model, X = regressor
        stripped = copy.copy(model)
        stripped.mapper_ = None  # e.g. a reloaded format-v1 document
        serial, e1 = parallel_shap(stripped, X[:40], n_jobs=1)
        fanned, e2 = parallel_shap(stripped, X[:40], n_jobs=jobs)
        assert np.array_equal(fanned, serial)
        assert e1 == e2


class TestFig6Parallel:
    def test_two_workers_bitwise_equal_serial(self, ctx):
        serial = run_fig6(ctx, n_jobs=1)
        fanned = run_fig6(ctx, n_jobs=2)
        assert fanned.patient_a == serial.patient_a
        assert fanned.patient_b == serial.patient_b
        assert fanned.prediction_a == serial.prediction_a
        assert fanned.prediction_b == serial.prediction_b
        assert (
            fanned.explanation_a.contributions
            == serial.explanation_a.contributions
        )
        assert (
            fanned.explanation_b.contributions
            == serial.explanation_b.contributions
        )
        assert render_fig6(fanned) == render_fig6(serial)


class TestFig7Parallel:
    def test_two_workers_bitwise_equal_serial(self, ctx):
        serial = run_fig7(ctx, n_jobs=1)
        fanned = run_fig7(ctx, n_jobs=2)
        assert fanned.feature == serial.feature
        assert np.array_equal(fanned.values, serial.values)
        assert np.array_equal(fanned.mean_shap, serial.mean_shap)
        assert fanned.threshold == serial.threshold
        assert render_fig7(fanned) == render_fig7(serial)
