"""Unit tests for repro.boosting.serialize (JSON model round trips)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.boosting import (
    GBClassifier,
    GBRegressor,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


@pytest.fixture(scope="module")
def fitted_regressor():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 5))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) + rng.normal(0, 0.1, 200)
    return GBRegressor(n_estimators=15, max_depth=3).fit(X, y), X


@pytest.fixture(scope="module")
def fitted_classifier():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(200, 4))
    y = X[:, 0] > 0
    return GBClassifier(n_estimators=10, max_depth=2).fit(X, y), X


class TestRoundTrip:
    def test_regressor_predictions_identical(self, fitted_regressor, tmp_path):
        model, X = fitted_regressor
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(restored.predict(X), model.predict(X))

    def test_classifier_probabilities_identical(self, fitted_classifier, tmp_path):
        model, X = fitted_classifier
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(restored.predict_proba(X), model.predict_proba(X))
        assert isinstance(restored, GBClassifier)

    def test_config_preserved(self, fitted_regressor):
        model, _ = fitted_regressor
        restored = model_from_dict(model_to_dict(model))
        assert restored.config == model.config
        assert restored.best_iteration_ == model.best_iteration_

    def test_legacy_n_jobs_key_still_loads(self, fitted_regressor):
        # Documents written while GBConfig had an n_jobs field (a
        # histogram worker count) load to the same model.
        from repro.serve.registry import model_fingerprint

        model, X = fitted_regressor
        doc = model_to_dict(model)
        assert "n_jobs" not in doc["config"]
        legacy = json.loads(json.dumps(doc))
        legacy["config"]["n_jobs"] = 4
        restored = model_from_dict(legacy)
        assert restored.config == model.config
        assert model_fingerprint(model_to_dict(restored)) == model_fingerprint(doc)
        assert np.array_equal(restored.predict(X), model.predict(X))

    @pytest.mark.parametrize("n_jobs", [None, -1, 2])
    def test_legacy_n_jobs_values_load_classifier(self, fitted_classifier, n_jobs):
        # Every value the old field accepted loads, for either kind.
        from repro.serve.registry import model_fingerprint

        model, X = fitted_classifier
        doc = model_to_dict(model)
        legacy = json.loads(json.dumps(doc))
        legacy["config"]["n_jobs"] = n_jobs
        restored = model_from_dict(legacy)
        assert restored.config == model.config
        assert model_fingerprint(model_to_dict(restored)) == model_fingerprint(doc)
        assert np.array_equal(restored.predict_proba(X), model.predict_proba(X))

    def test_missing_routing_preserved(self, fitted_regressor):
        model, X = fitted_regressor
        restored = model_from_dict(model_to_dict(model))
        X_missing = X[:20].copy()
        X_missing[:, 0] = np.nan
        assert np.array_equal(
            restored.predict(X_missing), model.predict(X_missing)
        )

    def test_document_is_valid_json(self, fitted_regressor, tmp_path):
        model, _ = fitted_regressor
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "regressor"
        assert doc["format_version"] == 3
        assert doc["mapper"] is not None
        assert len(doc["trees"]) == model.ensemble_.n_trees
        # v3 stores the shared hash-consed node table once...
        assert set(doc["dag"]) == {
            "children_left",
            "children_right",
            "feature",
            "bin_threshold",
            "missing_left",
            "leaves_left",
        }
        # ...and per tree only the root row, leaf values and node stats.
        assert set(doc["trees"][0]) == {"root", "value", "cover", "threshold"}

    def test_inf_threshold_round_trips(self):
        # A split separating non-missing from missing uses a +inf
        # threshold; JSON cannot hold inf natively.
        from repro.boosting import Tree
        from repro.boosting.serialize import _tree_from_dict, _tree_to_dict

        tree = Tree(
            children_left=np.array([1, -1, -1]),
            children_right=np.array([2, -1, -1]),
            feature=np.array([0, -1, -1]),
            threshold=np.array([np.inf, np.nan, np.nan]),
            missing_left=np.array([False, False, False]),
            value=np.array([0.0, 1.0, 2.0]),
            cover=np.array([3.0, 2.0, 1.0]),
        )
        doc = json.loads(json.dumps(_tree_to_dict(tree)))
        restored = _tree_from_dict(doc)
        assert restored.threshold[0] == np.inf
        assert np.isnan(restored.threshold[1])
        assert restored.bin_threshold is None  # absent -> stays absent

    def test_bin_thresholds_round_trip(self, fitted_regressor):
        # Grown trees carry bin-space thresholds; the binned prediction
        # fast path must survive a save/load cycle.
        from repro.boosting.serialize import _tree_from_dict, _tree_to_dict

        model, _ = fitted_regressor
        for tree in model.ensemble_.trees[:3]:
            assert tree.bin_threshold is not None
            restored = _tree_from_dict(json.loads(json.dumps(_tree_to_dict(tree))))
            assert np.array_equal(restored.bin_threshold, tree.bin_threshold)


class TestMapperRoundTrip:
    """The fitted BinMapper must survive (de)serialisation bitwise.

    Regression suite for the silent-downgrade bug: pre-v2 documents
    dropped ``mapper_``, so reloaded models lost the binned
    predict/explain fast paths without any error.
    """

    def test_mapper_restored_bitwise(self, fitted_regressor):
        model, _ = fitted_regressor
        restored = model_from_dict(model_to_dict(model))
        assert restored.mapper_ is not None
        assert restored.mapper_.max_bins == model.mapper_.max_bins
        assert np.array_equal(restored.mapper_.n_bins_, model.mapper_.n_bins_)
        for a, b in zip(restored.mapper_.bin_edges_, model.mapper_.bin_edges_):
            assert np.array_equal(a, b)

    def test_binned_predict_path_survives_reload(self, fitted_regressor):
        model, X = fitted_regressor
        restored = model_from_dict(model_to_dict(model))
        codes = restored.bin(X)
        assert np.array_equal(restored.predict_binned(codes), model.predict(X))

    def test_binned_classifier_paths_survive_reload(self, fitted_classifier):
        model, X = fitted_classifier
        restored = model_from_dict(model_to_dict(model))
        codes = restored.bin(X)
        assert np.array_equal(
            restored.predict_proba_binned(codes), model.predict_proba(X)
        )
        assert np.array_equal(restored.predict_binned(codes), model.predict(X))

    def test_json_file_round_trip_preserves_mapper(
        self, fitted_regressor, tmp_path
    ):
        model, X = fitted_regressor
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(restored.bin(X), model.bin(X))

    def test_v1_document_still_loads_without_mapper(self, fitted_regressor):
        # v1 documents store dense per-tree node arrays and no mapper;
        # fabricate one from the fitted trees directly (the current
        # writer emits the v3 DAG layout).
        from repro.boosting.serialize import _tree_to_dict

        model, X = fitted_regressor
        v3 = model_to_dict(model)
        doc = {
            "format_version": 1,
            "kind": v3["kind"],
            "config": v3["config"],
            "n_features": v3["n_features"],
            "best_iteration": v3["best_iteration"],
            "base_score": v3["base_score"],
            "trees": [_tree_to_dict(t) for t in model.ensemble_.trees],
        }
        restored = model_from_dict(doc)
        assert restored.mapper_ is None
        assert np.array_equal(restored.predict(X), model.predict(X))
        with pytest.raises(RuntimeError, match="mapper_"):
            restored.predict_binned(np.zeros((1, 5), dtype=np.uint8))

    def test_unfitted_mapper_rejected(self):
        from repro.boosting.binning import BinMapper
        from repro.boosting.serialize import mapper_to_dict

        with pytest.raises(ValueError, match="not fitted"):
            mapper_to_dict(BinMapper())


class TestGoldenDocuments:
    """Committed fixture documents pin the on-disk formats.

    ``goldens/`` holds one frozen document per readable format version
    (all serialising the same fitted regressor) plus the model's
    expected predictions on ten fixed rows.  These files never change:
    they prove that documents written by *older* code keep loading and
    predicting bitwise-identically, and that the current writer is
    byte-stable over a load/save cycle.
    """

    GOLDENS = Path(__file__).parent / "goldens"

    @pytest.fixture(scope="class")
    def expected(self):
        doc = json.loads((self.GOLDENS / "expected.json").read_text())
        X = np.array(
            [
                [np.nan if v is None else v for v in row]
                for row in doc["X"]
            ],
            dtype=np.float64,
        )
        return X, np.asarray(doc["raw_predict"], dtype=np.float64)

    def _load(self, version: int):
        return json.loads(
            (self.GOLDENS / f"model_v{version}.json").read_text()
        )

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_golden_document_loads_and_predicts(self, version, expected):
        X, raw = expected
        model = model_from_dict(self._load(version))
        assert np.array_equal(model.predict(X), raw)

    def test_golden_v1_has_no_mapper(self, expected):
        model = model_from_dict(self._load(1))
        assert model.mapper_ is None

    @pytest.mark.parametrize("version", [2, 3])
    def test_golden_binned_path_survives(self, version, expected):
        X, raw = expected
        model = model_from_dict(self._load(version))
        assert np.array_equal(model.predict_binned(model.bin(X)), raw)

    def test_golden_v3_round_trips_bitwise(self):
        doc = self._load(3)
        rebuilt = model_to_dict(model_from_dict(doc))
        assert json.dumps(rebuilt, sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    def test_golden_v3_carries_compact_ensemble(self, expected):
        X, raw = expected
        model = model_from_dict(self._load(3))
        assert model.compact_ is not None
        codes = model.bin(X)
        assert np.array_equal(
            model.compact_.predict_raw_binned(
                codes, model.mapper_.missing_bin
            ),
            raw,
        )

    def test_golden_v2_resaves_as_v3_with_same_predictions(self, expected):
        X, raw = expected
        model = model_from_dict(self._load(2))
        resaved = model_to_dict(model)
        assert resaved["format_version"] == 3
        assert np.array_equal(model_from_dict(resaved).predict(X), raw)


class TestValidation:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            model_to_dict(GBRegressor())

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict("nope")

    def test_bad_version_rejected(self, fitted_regressor):
        model, _ = fitted_regressor
        doc = model_to_dict(model)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(doc)

    def test_bad_kind_rejected(self, fitted_regressor):
        model, _ = fitted_regressor
        doc = model_to_dict(model)
        doc["kind"] = "svm"
        with pytest.raises(ValueError, match="kind"):
            model_from_dict(doc)
