"""Unit tests for repro.serve.service (micro-batched scoring)."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.boosting import GBClassifier, GBRegressor
from repro.boosting.serialize import model_from_dict, model_to_dict
from repro.explain import TreeShapExplainer
from repro.serve import ModelRegistry, ScoreRequest, ScoringService


def explanations_equal(a, b) -> bool:
    """Field equality with NaN-aware raw-value comparison.

    ``LocalExplanation`` is a frozen dataclass, but its ``values`` tuple
    can carry NaN (missing features), and NaN != NaN under ``==``.
    """
    return (
        a.prediction == b.prediction
        and a.expected_value == b.expected_value
        and a.features == b.features
        and a.contributions == b.contributions
        and np.array_equal(np.asarray(a.values), np.asarray(b.values), equal_nan=True)
    )


@pytest.fixture(scope="module")
def regressor():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 6))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, 3]) + rng.normal(
        0, 0.1, 300
    )
    return GBRegressor(n_estimators=20, max_depth=3).fit(X, y), X


@pytest.fixture(scope="module")
def classifier():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(250, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return GBClassifier(n_estimators=12, max_depth=2).fit(X, y), X


class TestExactness:
    def test_predictions_bitwise_equal_to_predict(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        results = service.score_rows(X[:50])
        assert np.array_equal(
            [r.prediction for r in results], model.predict(X[:50])
        )

    def test_explanations_bitwise_equal_to_batched_shap(self, regressor):
        model, X = regressor
        service = ScoringService(model, top_k=6)
        results = service.score_rows(X[:30], explain=True)
        phi = TreeShapExplainer(model).shap_values(X[:30])
        for i, result in enumerate(results):
            order = np.argsort(-np.abs(phi[i]))[:6]
            assert result.explanation.contributions == tuple(
                float(phi[i][j]) for j in order
            )

    def test_cached_results_identical_to_fresh(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        first = service.score_rows(X[:25], explain=True)
        second = service.score_rows(X[:25], explain=True)
        assert all(r.cached for r in second)
        assert not any(r.cached for r in first)
        for a, b in zip(first, second):
            assert a.raw_score == b.raw_score
            assert explanations_equal(a.explanation, b.explanation)

    def test_mixed_explain_flags_one_batch(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        requests = [
            ScoreRequest(row=X[i], explain=(i % 2 == 0)) for i in range(20)
        ]
        results = service.score_batch(requests)
        preds = model.predict(X[:20])
        for i, result in enumerate(results):
            assert result.raw_score == preds[i]
            assert (result.explanation is not None) == (i % 2 == 0)
        # One predict sweep and one (10-row) explain sweep.
        assert service.stats.predicted_rows == 20
        assert service.stats.explained_rows == 10

    def test_nan_rows_route_like_predict(self, regressor):
        model, X = regressor
        rows = X[:10].copy()
        rows[:, 0] = np.nan
        service = ScoringService(model)
        results = service.score_rows(rows, explain=True)
        assert np.array_equal(
            [r.prediction for r in results], model.predict(rows)
        )
        # The service's raw scores satisfy the efficiency axiom.
        explainer = TreeShapExplainer(model)
        assert results[0].explanation is not None
        assert results[0].raw_score - explainer.expected_value == pytest.approx(
            float(explainer.shap_values(rows[:1]).sum()), abs=1e-9
        )


class TestCompactPath:
    """The service predicts through the hash-consed DAG; its raw scores
    must be bitwise identical to the per-tree ensemble path, cache-cold
    and cache-hot."""

    def test_service_engine_is_compact(self, regressor):
        from repro.boosting import CompactEnsemble

        model, _ = regressor
        service = ScoringService(model)
        assert isinstance(service._engine, CompactEnsemble)

    def test_raw_scores_bitwise_equal_to_ensemble_cold_and_hot(
        self, regressor
    ):
        model, X = regressor
        codes = model.bin(X[:80])
        reference = model.ensemble_.predict_raw_binned(
            codes, model.mapper_.missing_bin
        )
        service = ScoringService(model)
        cold = service.score_rows(X[:80])
        assert np.array_equal([r.raw_score for r in cold], reference)
        hot = service.score_rows(X[:80])
        assert np.array_equal([r.raw_score for r in hot], reference)
        assert all(r.cached for r in hot)

    def test_classifier_raw_scores_bitwise_equal(self, classifier):
        model, X = classifier
        codes = model.bin(X[:60])
        reference = model.ensemble_.predict_raw_binned(
            codes, model.mapper_.missing_bin
        )
        service = ScoringService(model)
        for _ in range(2):  # cold, then hot
            results = service.score_rows(X[:60])
            assert np.array_equal(
                [r.raw_score for r in results], reference
            )

    def test_pickled_service_uses_carried_compact(self, regressor):
        from dataclasses import fields

        from repro.boosting import CompactEnsemble

        model, X = regressor
        original = ScoringService(model, version="t")
        copy = pickle.loads(pickle.dumps(original))
        # The copy's engine is the DAG it carried over, node for node,
        # not a freshly consed one.
        assert isinstance(copy._engine, CompactEnsemble)
        assert copy._engine is copy.model.compact_
        for field in fields(CompactEnsemble):
            want = getattr(original._engine, field.name)
            got = getattr(copy._engine, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            else:
                assert got == want
        reference = model.ensemble_.predict_raw_binned(
            model.bin(X[:50]), model.mapper_.missing_bin
        )
        for _ in range(2):  # cold, then hot
            results = copy.score_rows(X[:50])
            assert np.array_equal([r.raw_score for r in results], reference)


class TestPickleHandoff:
    """Router workers score on a pickled copy of the parent's service;
    the copy must answer bitwise like the original, cold then hot."""

    @pytest.mark.parametrize("fixture", ["regressor", "classifier"])
    def test_pickled_copy_answers_bitwise(self, fixture, request):
        model, X = request.getfixturevalue(fixture)
        original = ScoringService(model, version="t")
        copy = pickle.loads(pickle.dumps(original))
        # The copy carries the parent's DAG instead of re-consing one,
        # and starts with an empty cache of its own.
        assert copy._engine is copy.model.compact_
        assert copy._cache is not original._cache
        stream = [
            ScoreRequest(row=row, explain=i % 2 == 0)
            for i, row in enumerate(X[:60])
        ]
        for _ in range(2):  # cold, then hot
            want = original.score_batch(stream)
            got = copy.score_batch(stream)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.raw_score == b.raw_score
                assert a.prediction == b.prediction
                assert a.probability == b.probability
                assert a.cached == b.cached
                if b.explanation is None:
                    assert a.explanation is None
                else:
                    assert explanations_equal(a.explanation, b.explanation)
        assert copy.cache_stats == original.cache_stats

    def test_pickled_explainer_bitwise(self, regressor):
        model, X = regressor
        copy = pickle.loads(pickle.dumps(ScoringService(model, version="t")))
        baseline = TreeShapExplainer(model)
        assert copy.explainer.expected_value == baseline.expected_value
        assert np.array_equal(
            copy.explainer.shap_values(X[:50]), baseline.shap_values(X[:50])
        )
        codes = model.bin(X[:50])
        assert np.array_equal(
            copy.explainer.shap_values_binned(codes),
            baseline.shap_values_binned(codes),
        )


class TestCacheBehaviour:
    def test_partial_hit_upgrades_entry(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        service.score_rows(X[:10])  # predictions cached, no SHAP yet
        results = service.score_rows(X[:10], explain=True)
        # Raw score came from cache but SHAP had to be computed.
        assert not any(r.cached for r in results)
        assert service.stats.predicted_rows == 10
        assert service.stats.explained_rows == 10
        again = service.score_rows(X[:10], explain=True)
        assert all(r.cached for r in again)
        assert service.stats.explained_rows == 10  # no recompute

    def test_within_batch_duplicates_computed_once(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        requests = [ScoreRequest(row=X[0], explain=True) for _ in range(8)]
        results = service.score_batch(requests)
        assert service.stats.predicted_rows == 1
        assert service.stats.explained_rows == 1
        assert service.stats.batch_dedup_hits == 7
        assert len({r.raw_score for r in results}) == 1

    def test_equal_codes_share_cache_entries(self, regressor):
        # Two raw rows quantizing to the same codes are indistinguishable
        # to the model, so the second is a legitimate exact cache hit.
        model, X = regressor
        service = ScoringService(model)
        row = X[0].copy()
        service.score_rows(row[None, :])
        nudged = row + 1e-12  # stays within the same bins
        assert np.array_equal(model.bin(nudged[None, :]), model.bin(row[None, :]))
        result = service.score_rows(nudged[None, :])[0]
        assert result.cached
        assert result.prediction == model.predict(row[None, :])[0]

    def test_capacity_smaller_than_batch_still_exact(self, regressor):
        model, X = regressor
        service = ScoringService(model, cache_size=3)
        results = service.score_rows(X[:40], explain=True)
        assert np.array_equal(
            [r.prediction for r in results], model.predict(X[:40])
        )
        assert service.cache_stats.size == 3

    def test_zero_capacity_disables_cache(self, regressor):
        model, X = regressor
        service = ScoringService(model, cache_size=0)
        service.score_rows(X[:5])
        results = service.score_rows(X[:5])
        assert not any(r.cached for r in results)
        assert service.stats.predicted_rows == 10

    def test_distinct_versions_do_not_collide(self, regressor):
        model, X = regressor
        a = ScoringService(model, version="a")
        b = ScoringService(model, version="b")
        key_a = (a.version, model.bin(X[:1]).tobytes())
        key_b = (b.version, model.bin(X[:1]).tobytes())
        assert key_a != key_b


class TestClassifier:
    def test_labels_and_probabilities(self, classifier):
        model, X = classifier
        service = ScoringService(model)
        results = service.score_rows(X[:40])
        assert np.array_equal(
            [r.prediction for r in results],
            model.predict(X[:40]).astype(np.float64),
        )
        assert np.array_equal(
            [r.probability for r in results], model.predict_proba(X[:40])
        )

    def test_cached_probability_identical(self, classifier):
        model, X = classifier
        service = ScoringService(model)
        first = service.score_rows(X[:10])
        second = service.score_rows(X[:10])
        assert [r.probability for r in first] == [
            r.probability for r in second
        ]
        assert all(r.cached for r in second)


class TestRegistryIntegration:
    def test_from_registry_uses_ref_version_and_features(
        self, regressor, tmp_path
    ):
        model, X = regressor
        registry = ModelRegistry(tmp_path)
        names = [f"col{i}" for i in range(6)]
        version = registry.publish("sppb", model, metadata={"features": names})
        service = ScoringService.from_registry(registry, "sppb")
        assert service.version == f"sppb@{version.tag}"
        assert service.feature_names == names
        result = service.score_rows(X[:3], explain=True)[0]
        assert set(result.explanation.features) <= set(names)

    def test_reloaded_service_scores_identically(self, regressor, tmp_path):
        model, X = regressor
        registry = ModelRegistry(tmp_path)
        registry.publish("sppb", model)
        service = ScoringService.from_registry(registry, "sppb")
        direct = ScoringService(model)
        a = service.score_rows(X[:20], explain=True)
        b = direct.score_rows(X[:20], explain=True)
        for ra, rb in zip(a, b):
            assert ra.raw_score == rb.raw_score
            assert explanations_equal(ra.explanation, rb.explanation)


class TestValidation:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            ScoringService(GBRegressor())

    def test_model_without_mapper_rejected(self, regressor):
        # Fabricate a dense v1 document (no mapper, per-tree node
        # arrays) — the current writer emits the v3 DAG layout.
        from repro.boosting.serialize import _tree_to_dict

        model, _ = regressor
        doc = model_to_dict(model)
        doc["format_version"] = 1
        doc["trees"] = [_tree_to_dict(t) for t in model.ensemble_.trees]
        del doc["mapper"]
        del doc["dag"]
        v1_model = model_from_dict(doc)
        with pytest.raises(ValueError, match="BinMapper"):
            ScoringService(v1_model)

    def test_wrong_row_shape_rejected(self, regressor):
        model, X = regressor
        service = ScoringService(model)
        with pytest.raises(ValueError, match="request 0"):
            service.score_batch([ScoreRequest(row=X[0][:3])])

    def test_wrong_feature_name_count_rejected(self, regressor):
        model, _ = regressor
        with pytest.raises(ValueError, match="feature names"):
            ScoringService(model, feature_names=["only", "two"])

    def test_empty_batch_is_noop(self, regressor):
        model, _ = regressor
        service = ScoringService(model)
        assert service.score_batch([]) == []
        assert service.stats.requests == 0

    def test_non_2d_matrix_rejected(self, regressor):
        model, X = regressor
        with pytest.raises(ValueError, match="2-D"):
            ScoringService(model).score_rows(X[0])


class TestImportFootprint:
    def test_scoring_does_not_load_networkx(self, regressor, tmp_path):
        # Only the knowledge-driven ontology needs networkx; a serving
        # process must not pay for it, and the KD pipeline still builds
        # its graph on demand in the same process.
        model, X = regressor
        ModelRegistry(tmp_path).publish("sppb", model)
        np.save(tmp_path / "rows.npy", X[:8])
        script = textwrap.dedent(
            f"""
            import sys
            import numpy as np
            from repro.serve import ModelRegistry, ScoreRequest, ScoringService
            service = ScoringService.from_registry(
                ModelRegistry({str(tmp_path)!r}), "sppb"
            )
            rows = np.load({str(tmp_path / "rows.npy")!r})
            results = service.score_batch(
                [ScoreRequest(row=r, explain=True) for r in rows]
            )
            assert all(r.explanation is not None for r in results)
            assert "networkx" not in sys.modules, "networkx loaded"
            from repro.cohort import ClinicConfig, CohortConfig, generate_cohort
            from repro.pipeline import build_dd_samples, build_kd_samples
            cohort = generate_cohort(
                CohortConfig(seed=3, clinics=(ClinicConfig("modena", 6),))
            )
            kd = build_kd_samples(build_dd_samples(cohort, "qol"))
            assert kd.X.shape[0] > 0
            assert "networkx" in sys.modules
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
