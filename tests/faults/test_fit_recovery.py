"""HistogramPool self-healing: chaos inside a fit changes no bit.

The tentpole claim at fit level: a kill schedule against the histogram
workers — mid-round, between rounds, repeated — yields a model
**bitwise identical** to the serial fit, because a lost feature block
is recomputed in-process for the wave that lost it and the respawned
worker re-attaches the same segments into the same block ownership.
Stuck workers are reaped by the per-task deadline the same way.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.boosting.binning import BinMapper
from repro.boosting.config import GBConfig
from repro.boosting.gbm import GBRegressor
from repro.faults import fault_plan, kill_schedule
from repro.parallel.hist import HistogramPool


def make_data(seed: int, n: int = 500, d: int = 9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[rng.random(size=X.shape) < 0.08] = np.nan
    filled = np.nan_to_num(X)
    y = (
        2.0 * filled[:, 0]
        + np.sin(filled[:, 1] * 2.0)
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


def _fit(X, y, jobs: int):
    config = GBConfig(n_estimators=12, max_depth=4, n_jobs=jobs)
    return GBRegressor(config).fit(X, y)


def _pool_fixture(jobs: int = 2):
    X, _ = make_data(11, n=1600)
    mapper = BinMapper(max_bins=32).fit(X)
    binned = mapper.transform(X, order="F")
    rng = np.random.default_rng(1)
    grad = rng.normal(size=X.shape[0])
    hess = np.ones(X.shape[0])
    mask = np.ones(X.shape[1], dtype=bool)
    pool = HistogramPool(binned, mapper.missing_bin, n_jobs=jobs)
    if pool.workers <= 1:
        pool.close()
        pytest.skip("fork process backend unavailable")
    pool.begin_round(grad, hess, mask, n_channels=2)
    return pool, np.arange(X.shape[0])


class TestFitBitwiseUnderFaults:
    """Whole fits under kill schedules match the serial fit exactly."""

    @pytest.mark.parametrize(
        "jobs,spec",
        [
            (2, "kill@hist.send:w=0:n=0"),
            (2, "kill@hist.send:w=1:n=3"),
            (2, "kill@hist.send:w=1:n=2;kill@hist.send:w=0:n=9"),
            (3, "kill@hist.send:w=2:n=1"),
        ],
    )
    def test_fixed_kill_schedules(self, jobs, spec):
        X, y = make_data(3)
        serial = _fit(X, y, jobs=1)
        with fault_plan(spec):
            chaotic = _fit(X, y, jobs=jobs)
        assert_models_identical(serial, chaotic)
        assert np.array_equal(serial.predict(X), chaotic.predict(X))

    @pytest.mark.parametrize("seed", [5, 23])
    def test_seeded_kill_schedules(self, seed):
        X, y = make_data(3)
        serial = _fit(X, y, jobs=1)
        plan = kill_schedule(
            seed, site="hist.send", workers=2, max_at=24, kills=2
        )
        with fault_plan(plan):
            chaotic = _fit(X, y, jobs=2)
        assert_models_identical(serial, chaotic)

    def test_stuck_worker_mid_fit(self, monkeypatch):
        """A stalled histogram worker is reaped by the deadline mid-fit."""
        X, y = make_data(3)
        serial = _fit(X, y, jobs=1)
        monkeypatch.setenv("REPRO_TASK_DEADLINE", "0.5")
        monkeypatch.setenv(
            "REPRO_FAULTS", "stall@hist.task:w=0:n=2:s=30"
        )
        t0 = time.perf_counter()
        chaotic = _fit(X, y, jobs=2)
        assert time.perf_counter() - t0 < 60.0  # reaped, not waited out
        assert_models_identical(serial, chaotic)


class TestPoolRecovery:
    def test_kill_between_waves_then_respawn(self):
        pool, rows = _pool_fixture(jobs=2)
        try:
            reference = pool.accumulate([rows])[0]
            # A fresh context plan counts from zero: n=0 is the first
            # wave sent while the plan is active.
            with fault_plan("kill@hist.send:w=0:n=0"):
                assert np.array_equal(reference, pool.accumulate([rows])[0])
            assert pool.workers_alive == 1  # killed, recomputed in-process
            deadline = time.perf_counter() + 8.0
            while time.perf_counter() < deadline:
                assert np.array_equal(reference, pool.accumulate([rows])[0])
                if pool.workers_alive == 2:
                    break
                time.sleep(0.1)
            assert pool.workers_alive == 2
            assert pool.workers_respawned == 1
        finally:
            pool.close()

    def test_deadline_kill_mid_wave(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall@hist.task:w=1:n=1:s=30")
        pool, rows = _pool_fixture(jobs=2)
        pool.task_deadline = 0.5
        pool.max_respawns = 0
        try:
            reference = pool.accumulate([rows])[0]
            assert np.array_equal(reference, pool.accumulate([rows])[0])
            assert pool.deadline_kills == 1
            assert pool.workers_alive == 1
            assert np.array_equal(reference, pool.accumulate([rows])[0])
        finally:
            pool.close()

    def test_close_terminates_stuck_worker_and_unlinks(self, monkeypatch):
        from multiprocessing import shared_memory

        monkeypatch.setenv(
            "REPRO_FAULTS", "stall@hist.task.done:w=0:n=0:s=60"
        )
        pool, rows = _pool_fixture(jobs=2)
        pool.close_timeout = 0.5
        reference = pool.accumulate([rows])[0]
        assert reference is not None
        names = [segment.name for segment in pool._segments]
        assert names, "expected the pool to export shared segments"
        procs = list(pool._procs)
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 10.0
        assert all(not proc.is_alive() for proc in procs if proc is not None)
        for name in names:
            try:
                leaked = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            leaked.close()
            pytest.fail(f"segment {name} leaked past close()")
