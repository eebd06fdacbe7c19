"""Integration tests for the gradient-boosting estimators."""

import numpy as np
import pytest

from repro.boosting import GBClassifier, GBConfig, GBRegressor


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(600, 8))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = (
        2.0 * np.nan_to_num(X[:, 0])
        + np.sin(2.0 * np.nan_to_num(X[:, 1]))
        + rng.normal(0, 0.2, 600)
    )
    return X, y


@pytest.fixture(scope="module")
def classification_data():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(600, 6))
    logits = 4.0 * X[:, 0] - 2.5 * X[:, 1]
    y = rng.random(600) < 1 / (1 + np.exp(-logits))
    return X, y


class TestConfig:
    def test_defaults_valid(self):
        GBConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"max_depth": 0},
            {"min_child_weight": -1.0},
            {"reg_lambda": -0.1},
            {"gamma": -0.1},
            {"subsample": 0.0},
            {"colsample_bytree": 1.0001},
            {"max_bins": 1},
            {"early_stopping_rounds": -1},
        ],
    )
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            GBConfig(**kwargs)

    def test_estimator_rejects_config_plus_overrides(self):
        with pytest.raises(ValueError, match="either"):
            GBRegressor(GBConfig(), n_estimators=10)

    def test_estimator_accepts_overrides(self):
        model = GBRegressor(n_estimators=13)
        assert model.config.n_estimators == 13


class TestRegressor:
    def test_learns_signal(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=80, max_depth=3)
        model.fit(X[:500], y[:500])
        # Without an eval set every round keeps its tree.
        assert model.ensemble_.n_trees == 80
        pred = model.predict(X[500:])
        mae = float(np.mean(np.abs(pred - y[500:])))
        baseline = float(np.mean(np.abs(np.mean(y[:500]) - y[500:])))
        assert mae < 0.5 * baseline

    def test_deterministic_given_seed(self, regression_data):
        X, y = regression_data
        a = GBRegressor(n_estimators=10).fit(X, y).predict(X[:5])
        b = GBRegressor(n_estimators=10).fit(X, y).predict(X[:5])
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, regression_data):
        X, y = regression_data
        a = GBRegressor(n_estimators=10, random_state=0).fit(X, y).predict(X[:20])
        b = GBRegressor(n_estimators=10, random_state=1).fit(X, y).predict(X[:20])
        assert not np.array_equal(a, b)

    def test_early_stopping_truncates(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=300, early_stopping_rounds=5)
        model.fit(X[:400], y[:400], eval_set=(X[400:], y[400:]))
        assert model.best_iteration_ < 300
        assert len(model.ensemble_.trees) == model.best_iteration_

    def test_eval_history_recorded(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=20, early_stopping_rounds=0)
        model.fit(X[:400], y[:400], eval_set=(X[400:], y[400:]))
        assert len(model.eval_history_) == 20

    def test_eval_history_truncated_with_ensemble(self, regression_data):
        # After early stopping rewinds to best_iteration_, the recorded
        # history must not keep the post-best entries.
        X, y = regression_data
        model = GBRegressor(n_estimators=300, early_stopping_rounds=5)
        model.fit(X[:400], y[:400], eval_set=(X[400:], y[400:]))
        assert model.best_iteration_ < 300
        assert len(model.eval_history_) == model.best_iteration_
        assert model.eval_history_[-1] == min(model.eval_history_)

    def test_constant_target_predicts_constant(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 7.0)
        model = GBRegressor(n_estimators=5).fit(X, y)
        assert np.allclose(model.predict(X), 7.0)

    def test_single_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 1))
        y = 3.0 * X[:, 0]
        model = GBRegressor(n_estimators=60, max_depth=2).fit(X, y)
        assert float(np.mean(np.abs(model.predict(X) - y))) < 0.5

    def test_fit_starts_no_worker_pool(self, regression_data, monkeypatch):
        # REPRO_JOBS sizes the grid and serving pools; a standalone fit
        # grows every tree in-process whatever it says.
        from repro.parallel import ShardedPool

        X, y = regression_data
        serial = GBRegressor(n_estimators=20, max_depth=3).fit(X, y)

        def refuse(self, *args, **kwargs):
            raise AssertionError("GBRegressor.fit constructed a ShardedPool")

        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(ShardedPool, "__init__", refuse)
        model = GBRegressor(n_estimators=20, max_depth=3).fit(X, y)
        assert np.array_equal(model.predict(X), serial.predict(X))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GBRegressor().predict(np.zeros((1, 2)))

    def test_feature_count_mismatch(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=3).fit(X, y)
        with pytest.raises(ValueError, match="expected shape"):
            model.predict(np.zeros((2, 3)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GBRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_length_mismatch_rejected(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="rows"):
            GBRegressor().fit(X, y[:-1])
        with pytest.raises(ValueError, match="rows"):
            GBRegressor().fit(X, y[:, None])  # a column, not a vector

    def test_empty_eval_set_rejected(self, regression_data):
        # An empty eval set used to give NaN losses that never improve,
        # so early stopping silently cut the fit to its patience.
        X, y = regression_data
        model = GBRegressor(n_estimators=50, early_stopping_rounds=5)
        with pytest.raises(ValueError, match="empty"):
            model.fit(X, y, eval_set=(X[:0], y[:0]))

    def test_eval_target_length_mismatch_rejected(self, regression_data):
        # A length-1 target used to broadcast against every eval row.
        X, y = regression_data
        with pytest.raises(ValueError, match="rows"):
            GBRegressor(n_estimators=5).fit(
                X[:400], y[:400], eval_set=(X[400:450], y[400:401])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_targets_rejected(self, regression_data, bad):
        # Non-finite targets used to give NaN predictions, and a NaN in
        # y_val NaN eval losses that stop the fit at its patience.
        X, y = regression_data
        y_bad = y.copy()
        y_bad[[3, 403]] = bad
        with pytest.raises(ValueError, match="finite"):
            GBRegressor(n_estimators=5).fit(X, y_bad)
        with pytest.raises(ValueError, match="finite"):
            GBRegressor(n_estimators=50, early_stopping_rounds=5).fit(
                X[:400], y[:400], eval_set=(X[400:], y_bad[400:])
            )

    @pytest.mark.parametrize(
        "make_val",
        [
            lambda X: X[400:450, :-1],  # one feature short
            lambda X: X[400:450, 0],  # 1-D
            lambda X: X[400:450][None],  # 3-D
        ],
    )
    def test_eval_feature_shape_rejected(self, regression_data, make_val):
        X, y = regression_data
        with pytest.raises(ValueError, match="eval_set"):
            GBRegressor(n_estimators=5).fit(
                X[:400], y[:400], eval_set=(make_val(X), y[400:450])
            )

    def test_eval_set_validated_for_classifier(self, classification_data):
        X, y = classification_data
        with pytest.raises(ValueError, match="rows"):
            GBClassifier(n_estimators=5).fit(
                X[:400], y[:400], eval_set=(X[400:], y[400:401])
            )
        with pytest.raises(ValueError, match="binary"):
            GBClassifier(n_estimators=5).fit(
                X[:400], y[:400], eval_set=(X[400:], np.full(200, 2.0))
            )

    def test_feature_importances_normalised(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=20).fit(X, y)
        imp = model.feature_importances()
        assert imp.shape == (8,)
        assert float(imp.sum()) == pytest.approx(1.0)
        assert imp[0] > imp[5]  # signal feature beats noise feature

    def test_missing_values_at_predict_time(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=20).fit(X, y)
        X_missing = X[:10].copy()
        X_missing[:, 0] = np.nan
        assert np.isfinite(model.predict(X_missing)).all()

    def test_gamma_prunes_splits(self, regression_data):
        X, y = regression_data
        free = GBRegressor(n_estimators=10, gamma=0.0).fit(X, y)
        pruned = GBRegressor(n_estimators=10, gamma=1e6).fit(X, y)
        n_free = sum(t.n_leaves for t in free.ensemble_.trees)
        n_pruned = sum(t.n_leaves for t in pruned.ensemble_.trees)
        assert n_pruned < n_free

    def test_max_depth_respected(self, regression_data):
        X, y = regression_data
        model = GBRegressor(n_estimators=5, max_depth=2).fit(X, y)
        assert all(t.max_depth() <= 2 for t in model.ensemble_.trees)


class TestClassifier:
    def test_learns_signal(self, classification_data):
        X, y = classification_data
        model = GBClassifier(n_estimators=60, max_depth=3)
        model.fit(X[:500], y[:500])
        acc = float(np.mean(model.predict(X[500:]) == y[500:]))
        assert acc > 0.75

    def test_probabilities_in_unit_interval(self, classification_data):
        X, y = classification_data
        model = GBClassifier(n_estimators=20).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_predict_returns_int_labels(self, classification_data):
        # The docstring promises class labels, not booleans.
        X, y = classification_data
        model = GBClassifier(n_estimators=20).fit(X, y)
        pred = model.predict(X)
        assert pred.dtype == np.int64
        assert set(np.unique(pred)) <= {0, 1}
        assert np.array_equal(pred, (model.predict_proba(X) >= 0.5).astype(np.int64))

    def test_predict_int_labels_with_bool_targets(self, classification_data):
        X, y = classification_data
        model = GBClassifier(n_estimators=10).fit(X, y.astype(bool))
        pred = model.predict(X)
        assert pred.dtype == np.int64
        assert float(np.mean(pred == y.astype(np.int64))) > 0.7

    def test_threshold_shifts_predictions(self, classification_data):
        X, y = classification_data
        model = GBClassifier(n_estimators=20).fit(X, y)
        strict = model.predict(X, threshold=0.9).sum()
        lax = model.predict(X, threshold=0.1).sum()
        assert lax > strict

    def test_invalid_threshold(self, classification_data):
        X, y = classification_data
        model = GBClassifier(n_estimators=5).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(X, threshold=0.0)

    def test_bool_targets_accepted(self, classification_data):
        X, y = classification_data
        GBClassifier(n_estimators=3).fit(X, y.astype(bool))

    def test_non_binary_targets_rejected(self, classification_data):
        X, _ = classification_data
        with pytest.raises(ValueError, match="binary"):
            GBClassifier().fit(X, np.full(len(X), 2.0))
