"""Unit tests for repro.serve.service (micro-batched scoring)."""

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.boosting import GBClassifier, GBRegressor
from repro.boosting.serialize import model_from_dict, model_to_dict
from repro.explain import LocalExplanation, TreeShapExplainer
from repro.explain.reference import reference_top_k_features
from repro.explain.reports import _local_explanation
from repro.serve import ModelRegistry, ScoreRequest, ScoringService
from repro.serve.service import ScoreResult, _score_result, stack_request_rows


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


@pytest.fixture(scope="module")
def models(regressor, classifier):
    """Both fitted models, each with twin rows: other raw values, same codes."""
    out = {}
    for kind, (model, X) in (("regressor", regressor), ("classifier", classifier)):
        pool = X[:8]
        twins = pool + 1e-9 * np.where(np.isnan(pool), 0.0, 1.0)
        assert np.array_equal(model.bin(pool), model.bin(twins))
        assert not np.array_equal(pool, twins, equal_nan=True)
        out[kind] = (model, pool, twins)
    return out


def result_bits(result, with_cached: bool = True) -> tuple:
    """Every field of a :class:`ScoreResult`, floats as ``.hex()`` text."""

    def bits(x):
        return None if x is None else float(x).hex()

    report = result.explanation
    if report is not None:
        report = (
            bits(report.prediction),
            bits(report.expected_value),
            report.features,
            tuple(map(bits, report.contributions)),
            tuple(map(bits, report.values)),
        )
    fields = (
        bits(result.raw_score),
        bits(result.prediction),
        bits(result.probability),
        report,
    )
    return fields + (result.cached,) if with_cached else fields


class CacheModel:
    """The service's cache and counter semantics, one row at a time.

    An LRU of ``key -> ranked`` replayed from the batch's requests: the
    first row of a key looks it up once, a row is cached when the key
    was found with everything the row needs, a row is deduped when an
    earlier row of the batch computes what it needs, and computed keys
    are stored fresh ones first, then cached ones that gained a ranking.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lru: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0
        self.counters = dict.fromkeys(
            ["requests", "batches", "cache_hits", "batch_dedup_hits",
             "predicted_rows", "explained_rows"], 0
        )

    def batch(self, keys, explain) -> list[bool]:
        found: dict = {}
        predict: dict = {}
        ranks: dict = {}
        cached = []
        for i, (key, wants) in enumerate(zip(keys, explain)):
            if key not in found:
                found[key] = self.lru.get(key)
                if found[key] is None:
                    self.misses += 1
                else:
                    self.hits += 1
                    self.lru.move_to_end(key)
            ranked = found[key]
            if ranked is None:
                owner = predict.setdefault(key, i) == i
                if wants:
                    owner = ranks.setdefault(key, i) == i or owner
            elif wants and ranked == "unranked":
                owner = ranks.setdefault(key, i) == i
            else:
                cached.append(True)
                continue
            cached.append(False)
            self.counters["batch_dedup_hits"] += not owner
        for key in [*predict, *(k for k in ranks if k not in predict)]:
            if self.capacity == 0:
                continue
            is_ranked = key in ranks or found[key] == "ranked"
            self.lru[key] = "ranked" if is_ranked else "unranked"
            self.lru.move_to_end(key)
            if len(self.lru) > self.capacity:
                self.lru.popitem(last=False)
                self.evictions += 1
        self.counters["requests"] += len(keys)
        self.counters["batches"] += 1
        self.counters["cache_hits"] += sum(cached)
        self.counters["predicted_rows"] += len(predict)
        self.counters["explained_rows"] += len(ranks)
        return cached


#: One request: (pool row, explain?, twin row instead of the pool row?).
_REQUEST = st.tuples(st.integers(0, 7), st.booleans(), st.booleans())


class TestHitPathDifferential:
    """Batches through the cache vs. a cache-free service and the oracle."""

    @given(
        kind=st.sampled_from(["regressor", "classifier"]),
        capacity=st.sampled_from([1, 2, 3, 5, 4096]),
        top_k=st.sampled_from([1, 3, 5, 9]),
        batches=st.lists(
            st.lists(_REQUEST, min_size=1, max_size=12), min_size=1, max_size=4
        ),
    )
    # A cached row upgraded to explain next to a fresh row, capacity 1:
    # the fresh entry is stored first, so the upgraded one survives.
    @example(
        kind="regressor",
        capacity=1,
        top_k=3,
        batches=[
            [(0, False, False)],
            [(0, True, False), (1, False, False)],
            [(0, True, True)],
        ],
    )
    @settings(max_examples=100, deadline=None)
    def test_every_batch_bitwise_equal_and_counted(
        self, models, kind, capacity, top_k, batches
    ):
        model, pool, twins = models[kind]
        service = ScoringService(model, version="v", cache_size=capacity, top_k=top_k)
        fresh = ScoringService(model, version="v", cache_size=0, top_k=top_k)
        names = service.feature_names
        expected_value = service.explainer.expected_value
        cache = CacheModel(capacity)
        for batch in batches:
            rows = np.array([(twins if twin else pool)[i] for i, _, twin in batch])
            explain = [wants for _, wants, _ in batch]
            requests = [
                ScoreRequest(row=row, explain=wants)
                for row, wants in zip(rows, explain)
            ]
            got = service.score_batch(requests)
            want = fresh.score_batch(requests)
            codes = model.bin(rows)
            cached = cache.batch([("v", c.tobytes()) for c in codes], explain)
            phi = service.explainer.shap_values_binned(np.asfortranarray(codes))
            for j, (g, w) in enumerate(zip(got, want)):
                assert result_bits(g, False) == result_bits(w, False)
                assert g.cached == cached[j]
                if explain[j]:
                    # The values come from the requesting row, never
                    # from the twin that filled the cache.
                    oracle = reference_top_k_features(
                        phi[j], rows[j], names, g.raw_score, expected_value, k=top_k
                    )
                    assert result_bits(g)[3] == result_bits(
                        dataclasses.replace(g, explanation=oracle)
                    )[3]
            stats = dataclasses.asdict(service.stats)
            stats.pop("total_seconds")
            assert stats == cache.counters
            assert dataclasses.astuple(service.cache_stats) == (
                cache.hits, cache.misses, cache.evictions, len(cache.lru), capacity
            )


def _loop_stack(requests, n_features):
    """The per-row loop the batched stacking must agree with."""
    rows = np.empty((len(requests), n_features), dtype=np.float64)
    for i, req in enumerate(requests):
        row = np.asarray(req.row, dtype=np.float64)
        if row.shape != (n_features,):
            raise ValueError(
                f"request {i}: expected row of shape "
                f"({n_features},), got {row.shape}"
            )
        rows[i] = row
    return rows


_D = 4
_GARBAGE_ROW = st.one_of(
    st.lists(st.floats(width=64), min_size=_D, max_size=_D),  # well formed
    st.lists(st.floats(width=64), min_size=0, max_size=2 * _D),  # any length
    st.lists(
        st.lists(st.floats(width=64), min_size=_D, max_size=_D), min_size=1, max_size=2
    ),
    st.lists(st.sampled_from(["1.5", "nan", "x", ""]), min_size=_D, max_size=_D),
    st.lists(st.one_of(st.none(), st.floats(width=64)), min_size=_D, max_size=_D),
    st.sampled_from([None, "row", 3.0, (), {}, [[1.0], [2.0], [3.0], [4.0]]]),
    st.lists(st.sampled_from([1.0, 1j, {}]), min_size=_D, max_size=_D),
    st.builds(lambda n: np.zeros((1, n)), st.integers(0, _D + 1)),
)


class TestGarbageRows:
    @given(rows=st.lists(_GARBAGE_ROW, min_size=1, max_size=6))
    @example(rows=[None, {}])  # the batch raises TypeError, the loop ValueError
    @settings(max_examples=300, deadline=None)
    def test_batched_stacking_raises_like_the_loop(self, rows):
        requests = [ScoreRequest(row=row) for row in rows]
        try:
            want = _loop_stack(requests, _D)
        except Exception as exc:
            with pytest.raises(type(exc)) as caught:
                stack_request_rows(requests, _D)
            assert str(caught.value) == str(exc)
        else:
            got = stack_request_rows(requests, _D)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPrivateConstructors:
    def test_same_object_as_the_public_constructor(self):
        report_args = (0.25, -0.5, ("a", "b"), (0.125, -0.0), (float("inf"), 3.0))
        report = LocalExplanation(*report_args)
        built = _local_explanation(*report_args)
        result_args = (0.25, 1.0, 0.75, report, True)
        result = ScoreResult(*result_args)
        built_result = _score_result(*result_args[:3], built, True)
        for public, private in ((report, built), (result, built_result)):
            assert type(private) is type(public)
            assert private == public and hash(private) == hash(public)
            assert repr(private) == repr(public)
            assert pickle.loads(pickle.dumps(private)) == public
            assert dataclasses.replace(private) == public
            with pytest.raises(dataclasses.FrozenInstanceError):
                private.cached = False
        changed = dataclasses.replace(built_result, cached=False)
        assert changed.cached is False and changed.explanation is built


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
