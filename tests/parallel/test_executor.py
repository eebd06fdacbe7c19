"""Unit tests for the deterministic fan-out executor."""

import numpy as np
import pytest

from repro.faults import faults_active
from repro.parallel import executor, parallel_map, resolve_jobs
from repro.parallel.executor import MAX_JOBS, in_worker


def _row_stat(item, state):
    return float(state["X"][item].sum()) + item


def _worker_probe(item, state):
    return (in_worker(), resolve_jobs(8), float(state["X"].sum()))


def _echo(item, state):
    return item


def _boom(item, state):
    if item == 2:
        raise ValueError("unit 2 failed")
    return item


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_selects_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("value", [0, -1])
    def test_zero_and_minus_one_mean_all_cpus(self, value):
        import os

        assert resolve_jobs(value) == (os.cpu_count() or 1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_very_negative_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_jobs(-2)

    def test_negative_env_names_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS must be >= -1"):
            resolve_jobs()

    def test_ceiling_is_above_every_count_in_use(self):
        # The suite, the benches and CI ask for at most 8 workers.
        assert MAX_JOBS >= 8
        assert resolve_jobs(MAX_JOBS) == MAX_JOBS

    @pytest.mark.parametrize("count", [MAX_JOBS + 1, 10**6])
    def test_count_above_ceiling_rejected(self, monkeypatch, count):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ValueError, match=f"n_jobs must be <= {MAX_JOBS}"):
            resolve_jobs(count)
        monkeypatch.setenv("REPRO_JOBS", str(count))
        with pytest.raises(ValueError, match=f"REPRO_JOBS must be <= {MAX_JOBS}"):
            resolve_jobs()

    @pytest.mark.parametrize("count", [0, -1])
    def test_per_cpu_count_capped_at_ceiling(self, monkeypatch, count):
        monkeypatch.setattr(executor.os, "cpu_count", lambda: 2 * MAX_JOBS)
        assert resolve_jobs(count) == MAX_JOBS
        # Each layer (server, router, pool) resolves the count again.
        assert resolve_jobs(resolve_jobs(count)) == MAX_JOBS

    def test_parallel_map_per_cpu_on_a_big_host(self, monkeypatch):
        seen = []

        class RecordingPool:
            """Resolves its count like ShardedPool; starts nothing."""

            def __init__(self, *, n_jobs, **kwargs):
                seen.append(resolve_jobs(n_jobs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def scatter(self, fn, tasks):
                return [fn(item, {}) for _shard, item in tasks]

        monkeypatch.setattr(executor.os, "cpu_count", lambda: 2 * MAX_JOBS)
        monkeypatch.setattr(executor, "ShardedPool", RecordingPool)
        items = list(range(MAX_JOBS + 36))
        assert parallel_map(_echo, items, n_jobs=-1) == items
        assert seen == [MAX_JOBS]

    def test_parallel_map_refuses_before_starting_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(executor, "ShardedPool", no_pool)
        with pytest.raises(ValueError, match="n_jobs"):
            parallel_map(_row_stat, range(4), n_jobs=MAX_JOBS + 1)


class TestParallelMap:
    def test_results_in_submission_order(self):
        X = np.arange(2048.0).reshape(256, 8)
        serial = parallel_map(_row_stat, range(20), n_jobs=1, state={"X": X})
        processes = parallel_map(_row_stat, range(20), n_jobs=2, state={"X": X})
        assert serial == processes
        assert serial == [_row_stat(i, {"X": X}) for i in range(20)]

    def test_workers_see_the_state(self):
        X = np.random.default_rng(0).normal(size=(512, 16))
        probes = parallel_map(_worker_probe, range(3), n_jobs=2, state={"X": X})
        for is_worker, nested_jobs, total in probes:
            assert total == float(X.sum())
            if faults_active() and not is_worker:
                continue  # ambient chaos recomputed this probe in-process
            assert is_worker is True
            # Nested parallelism is suppressed inside workers.
            assert nested_jobs == 1

    def test_serial_path_runs_in_process(self):
        X = np.zeros((2, 2))
        probes = parallel_map(_worker_probe, range(2), n_jobs=1, state={"X": X})
        assert all(is_worker is False for is_worker, _, _ in probes)

    def test_unpicklable_fn_falls_back_to_serial(self):
        double = lambda item, state: item * 2  # noqa: E731
        assert parallel_map(double, range(5), n_jobs=2) == [0, 2, 4, 6, 8]

    def test_unit_exception_propagates(self):
        with pytest.raises(ValueError, match="unit 2 failed"):
            parallel_map(_boom, range(4), n_jobs=2)

    def test_empty_items(self):
        assert parallel_map(_row_stat, [], n_jobs=2, state={"X": np.eye(2)}) == []
