"""A standalone fit is a function of its data and config alone.

``REPRO_JOBS`` sizes the experiment grid's and the scoring server's
worker pools, and ``REPRO_FAULTS`` injects faults at those pools' sites.
Neither reaches inside a single fit: every tree is grown in-process,
so a fit under any worker count or fault plan is **bitwise identical**
to the plain fit, across unit/varying hessians, row/column subsampling,
missing values and early stopping (see ``docs/determinism.md``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boosting.config import GBConfig
from repro.boosting.gbm import GBClassifier, GBRegressor
from repro.faults import fault_plan, kill_schedule


def make_data(seed: int, n: int = 500, d: int = 9):
    """Noisy nonlinear targets over a matrix with ~8% missing cells."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.random(size=X.shape) < 0.08] = np.nan
    filled = np.nan_to_num(X)
    y = (
        2.0 * filled[:, 0]
        + np.sin(filled[:, 1] * 2.0)
        + np.where(np.isnan(X[:, 2]), 0.7, -0.1)
        + rng.normal(scale=0.1, size=n)
    )
    return X, y


def assert_models_identical(a, b):
    assert len(a.ensemble_.trees) == len(b.ensemble_.trees)
    for ta, tb in zip(a.ensemble_.trees, b.ensemble_.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.bin_threshold, tb.bin_threshold)
        assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
        assert np.array_equal(ta.missing_left, tb.missing_left)
        assert np.array_equal(ta.value, tb.value)
        assert np.array_equal(ta.cover, tb.cover)
    assert a.eval_history_ == b.eval_history_
    assert a.best_iteration_ == b.best_iteration_


def _fit(X, y):
    return GBRegressor(GBConfig(n_estimators=12, max_depth=4)).fit(X, y)


class TestReproJobsNotRead:
    """``REPRO_JOBS`` ∈ {2, 4} × hessian kind × subsampling: one result."""

    @pytest.mark.parametrize("jobs", ["2", "4"])
    @pytest.mark.parametrize(
        "kind,subsample,colsample",
        [
            ("regressor", 1.0, 1.0),  # unit hessians, full data
            ("regressor", 0.8, 0.6),  # unit hessians, both subsamplings
            ("classifier", 1.0, 1.0),  # varying hessians, full data
            ("classifier", 0.7, 0.7),  # varying hessians, both subsamplings
        ],
    )
    def test_fit_matches_unset(
        self, jobs, kind, subsample, colsample, monkeypatch
    ):
        X, y = make_data(3)
        if kind == "classifier":
            y = (y > np.median(y)).astype(np.int64)
        X_val, y_val = X[:120], y[:120]
        config = GBConfig(
            n_estimators=20,
            max_depth=5,
            subsample=subsample,
            colsample_bytree=colsample,
            early_stopping_rounds=5,
        )
        cls = GBRegressor if kind == "regressor" else GBClassifier
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        plain = cls(config).fit(X, y, eval_set=(X_val, y_val))
        monkeypatch.setenv("REPRO_JOBS", jobs)
        under_jobs = cls(config).fit(X, y, eval_set=(X_val, y_val))
        assert_models_identical(plain, under_jobs)
        assert np.array_equal(plain.predict(X), under_jobs.predict(X))
        if kind == "classifier":
            assert np.array_equal(
                plain.predict_proba(X), under_jobs.predict_proba(X)
            )

    @pytest.mark.parametrize("value", ["many", "-7"])
    def test_invalid_value_does_not_stop_a_fit(self, value, monkeypatch):
        # resolve_jobs rejects these; a fit never asks it.
        X, y = make_data(5)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        plain = _fit(X, y)
        monkeypatch.setenv("REPRO_JOBS", value)
        assert_models_identical(plain, _fit(X, y))


class TestFaultPlanReachesNoFitSite:
    """Pool fault schedules find no site inside a fit to fire at."""

    @pytest.mark.parametrize(
        "spec",
        [
            "kill@shard.send:w=0:n=0",
            "kill@shard.send:w=1:n=2;kill@shard.send:w=0:n=9",
            "stall@shard.task:w=0:n=0:s=30",
        ],
    )
    def test_fixed_schedules(self, spec):
        X, y = make_data(3)
        plain = _fit(X, y)
        with fault_plan(spec) as plan:
            chaotic = _fit(X, y)
        assert plan._counts == {}  # no site was ever reached
        assert_models_identical(plain, chaotic)
        assert np.array_equal(plain.predict(X), chaotic.predict(X))

    def test_seeded_schedule(self):
        X, y = make_data(3)
        plain = _fit(X, y)
        plan = kill_schedule(23, site="shard.send", workers=2, max_at=24, kills=2)
        with fault_plan(plan):
            chaotic = _fit(X, y)
        assert plan._counts == {}
        assert_models_identical(plain, chaotic)
