"""Unit tests for the multi-worker scoring router (repro.serve.router).

The heart of the suite is the equivalence contract: on the same request
stream the router's output is bitwise-identical to the single-process
:class:`ScoringService`, cache-cold and cache-hot, for every worker
count.
"""

import copy
import dataclasses
import threading

import numpy as np
import pytest

from repro.boosting import GBClassifier, GBRegressor
from repro.boosting.serialize import model_to_dict
from repro.faults import faults_active
from repro.parallel import executor
from repro.parallel.executor import MAX_JOBS, resolve_jobs
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringRouter,
    ScoringService,
    model_fingerprint,
)
from repro.serve import router as router_module

from tests.serve.test_service import explanations_equal


@pytest.fixture(scope="module")
def regressor():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 6))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, 3]) + rng.normal(
        0, 0.1, 300
    )
    return GBRegressor(n_estimators=15, max_depth=3).fit(X, y), X


@pytest.fixture(scope="module")
def classifier():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(200, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return GBClassifier(n_estimators=10, max_depth=2).fit(X, y), X


def _stream(X, revisits=3, explain_every=2):
    """A repeated-cohort stream with mixed predict/explain flags."""
    distinct = X[:80]
    return [
        ScoreRequest(row=row, explain=(i % explain_every == 0))
        for _ in range(revisits)
        for i, row in enumerate(distinct)
    ]


def _run_batched(target, stream, batch=32):
    out = []
    for lo in range(0, len(stream), batch):
        out.extend(target.score_batch(stream[lo : lo + batch]))
    return out


def _assert_results_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.raw_score == b.raw_score
        assert a.prediction == b.prediction
        assert a.probability == b.probability
        # Under an active fault plan (the CI chaos matrix), a respawned
        # shard starts cache-cold: `cached` bookkeeping may diverge,
        # values never may — the eviction-pressure rule.
        if not faults_active():
            assert a.cached == b.cached
        if b.explanation is None:
            assert a.explanation is None
        else:
            assert explanations_equal(a.explanation, b.explanation)


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bitwise_equal_to_service_cold_and_hot(self, regressor, jobs):
        model, X = regressor
        stream = _stream(X)
        service = ScoringService(model, version="v")
        reference = _run_batched(service, stream)
        with ScoringRouter(model, version="v", n_jobs=jobs) as router:
            got = _run_batched(router, stream)
            _assert_results_equal(got, reference)
            # Cache-hot second pass: every row recurs, both paths hit.
            reference_hot = _run_batched(service, stream)
            got_hot = _run_batched(router, stream)
            _assert_results_equal(got_hot, reference_hot)
            if not faults_active():  # chaos may restart a shard cache cold
                assert all(r.cached for r in got_hot)
                # Shard caches jointly behave like the single LRU.
                assert router.cache_stats.hits == service.cache_stats.hits
                assert router.cache_stats.misses == service.cache_stats.misses

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_raw_scores_bitwise_equal_to_ensemble_per_worker_count(
        self, regressor, jobs
    ):
        # The acceptance contract for the compact DAG path: at every
        # ShardedPool worker count, raw scores through the router (whose
        # workers map the shared table) equal the per-tree ensemble
        # path bitwise — cache-cold and cache-hot.
        model, X = regressor
        reference = model.ensemble_.predict_raw_binned(
            model.bin(X[:60]), model.mapper_.missing_bin
        )
        with ScoringRouter(model, version="v", n_jobs=jobs) as router:
            cold = router.score_rows(X[:60])
            assert np.array_equal([r.raw_score for r in cold], reference)
            hot = router.score_rows(X[:60])
            assert np.array_equal([r.raw_score for r in hot], reference)
            if not faults_active():  # chaos may restart a shard cache cold
                assert all(r.cached for r in hot)

    def test_spawned_workers_bitwise_equal_to_service(self, regressor):
        # A live second thread makes the pool start its workers with
        # spawn, as in the HTTP server: each worker boots a fresh
        # interpreter and unpickles the service from the shared bytes.
        model, X = regressor
        stream = _stream(X, revisits=2)
        service = ScoringService(model, version="v")
        release = threading.Event()
        holder = threading.Thread(target=release.wait, daemon=True)
        holder.start()
        try:
            assert executor._start_method() == "spawn"
            router = ScoringRouter(model, version="v", n_jobs=2)
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        with router:
            assert router.workers == 2
            for _ in range(2):  # cold, then hot
                _assert_results_equal(
                    _run_batched(router, stream), _run_batched(service, stream)
                )
            if not faults_active():  # a pinned kill leaves a slot dead
                assert router.workers_alive == 2

    def test_classifier_probabilities_bitwise(self, classifier):
        model, X = classifier
        stream = _stream(X, revisits=2)
        service = ScoringService(model, version="c")
        reference = _run_batched(service, stream)
        with ScoringRouter(model, version="c", n_jobs=2) as router:
            _assert_results_equal(_run_batched(router, stream), reference)

    def test_values_identical_under_eviction_pressure(self, regressor):
        """Evictions may flip `cached` bookkeeping, never a value.

        With more distinct rows than capacity, N per-shard LRUs age
        entries by shard-local recency, so hit patterns can diverge
        from one global LRU — every answer must still be bitwise equal.
        """
        model, X = regressor
        stream = [
            ScoreRequest(row=X[i % 60], explain=(i % 4 == 0))
            for _ in range(3)
            for i in range(60)
        ]
        service = ScoringService(model, version="v", cache_size=30)
        reference = _run_batched(service, stream)
        with ScoringRouter(
            model, version="v", n_jobs=2, cache_size=30
        ) as router:
            got = _run_batched(router, stream)
        for a, b in zip(got, reference):
            assert a.raw_score == b.raw_score
            assert a.prediction == b.prediction
            if b.explanation is not None:
                assert explanations_equal(a.explanation, b.explanation)

    def test_score_rows_matches_service(self, regressor):
        model, X = regressor
        service = ScoringService(model, version="v")
        reference = service.score_rows(X[:50], explain=True)
        with ScoringRouter(model, version="v", n_jobs=2) as router:
            got = router.score_rows(X[:50], explain=True)
        _assert_results_equal(got, reference)


class TestRegistryAndValidation:
    def test_from_registry(self, regressor, tmp_path):
        model, X = regressor
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(
            "m", model, metadata={"features": [f"c{i}" for i in range(6)]}
        )
        with ScoringRouter.from_registry(
            registry, "m", n_jobs=2
        ) as router:
            assert router.version == version.ref
            assert router.feature_names == [f"c{i}" for i in range(6)]
            results = router.score_rows(X[:5], explain=True)
        assert results[0].explanation.features[0].startswith("c")

    def test_version_defaults_to_fingerprint(self, regressor):
        model, _X = regressor
        with ScoringRouter(model, n_jobs=1) as router:
            assert router.version == model_fingerprint(model_to_dict(model))

    def test_bad_row_shape_rejected(self, regressor):
        model, _ = regressor
        with ScoringRouter(model, version="v", n_jobs=1) as router:
            with pytest.raises(ValueError, match="request 0"):
                router.score_batch([ScoreRequest(row=np.zeros(3))])

    def test_feature_name_count_validated(self, regressor):
        model, _ = regressor
        with pytest.raises(ValueError, match="feature names"):
            ScoringRouter(model, feature_names=["a"])

    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_worker_count_above_ceiling_starts_no_pool(
        self, regressor, monkeypatch, source
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(router_module, "ShardedPool", no_pool)
        model, _X = regressor
        if source == "env":
            monkeypatch.setenv("REPRO_JOBS", str(MAX_JOBS + 1))
            with pytest.raises(ValueError, match="REPRO_JOBS must be <="):
                ScoringRouter(model)
        else:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
            with pytest.raises(ValueError, match="n_jobs must be <="):
                ScoringRouter(model, n_jobs=MAX_JOBS + 1)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_per_cpu_count_on_a_big_host(self, regressor, monkeypatch, n_jobs):
        seen = []

        class RecordingPool:
            """Resolves its count like ShardedPool; starts nothing."""

            def __init__(self, *, n_jobs, **kwargs):
                self.workers = resolve_jobs(n_jobs)
                seen.append(self.workers)

            def close(self):
                pass

        monkeypatch.setattr(executor.os, "cpu_count", lambda: 2 * MAX_JOBS)
        monkeypatch.setattr(router_module, "ShardedPool", RecordingPool)
        model, _X = regressor
        router = ScoringRouter(model, n_jobs=n_jobs)
        router.close()
        assert seen == [MAX_JOBS]
        assert router.workers == MAX_JOBS

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("unfitted", "not fitted"),
            ("mapperless", "BinMapper"),
            ("binless", "bin thresholds"),
        ],
        ids=["unfitted", "mapperless", "binless"],
    )
    def test_unservable_model_starts_no_pool(
        self, regressor, monkeypatch, defect, match
    ):
        """A model the service cannot serve fails before any worker."""
        started = []

        class RecordingPool:
            """Records every pool the router would start."""

            def __init__(self, **kwargs):
                started.append(kwargs)

        monkeypatch.setattr(router_module, "ShardedPool", RecordingPool)
        model, _X = regressor
        if defect == "unfitted":
            broken = GBRegressor(n_estimators=2)
        else:
            broken = copy.copy(model)
            if defect == "mapperless":
                broken.mapper_ = None
            else:
                broken.ensemble_ = dataclasses.replace(
                    model.ensemble_,
                    trees=[
                        dataclasses.replace(t, bin_threshold=None)
                        for t in model.ensemble_.trees
                    ],
                )
        with pytest.raises(ValueError, match=match):
            ScoringRouter(broken, n_jobs=2)
        assert started == []

    def test_closed_router_rejects_work(self, regressor):
        model, X = regressor
        router = ScoringRouter(model, version="v", n_jobs=1)
        router.close()
        router.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            router.score_batch([ScoreRequest(row=X[0])])


class TestFlushApiAndShutdown:
    def test_shard_rows_accounting(self, regressor):
        model, X = regressor
        with ScoringRouter(model, version="v", n_jobs=2) as router:
            router.score_rows(X[:20], explain=False)
            occupancy = router.stats.shard_rows
        assert sum(occupancy.values()) == 20
        assert all(shard in (0, 1) for shard in occupancy)
        assert router.workers_alive in (0, 1, 2)
