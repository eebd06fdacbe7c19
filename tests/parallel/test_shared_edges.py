"""Edge cases of the pool's state handoff and the worker pools.

Covers the satellite contract of the multi-worker scoring plane:
zero-row design matrices and dtype round trips through a pool's
``state``, which is pickled once and unpickled once per worker (never
per task), and that no POSIX shared-memory segment is ever created or
left behind, including when a worker dies mid-task.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.faults import faults_active
from repro.parallel import ShardedPool, parallel_map
from repro.parallel.executor import in_worker


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {e.name for e in shm.iterdir() if e.name.startswith("psm_")}


def _state_identity(item, state):
    return state


class TestSharedArrayEdges:
    def test_zero_row_matrix_round_trip(self):
        arrays = {
            "X": np.empty((0, 8), dtype=np.float64),
            "y": np.empty(0, dtype=np.float64),
        }
        with ShardedPool(n_jobs=2, state=arrays) as pool:
            for got in pool.scatter(_state_identity, [(0, None), (1, None)]):
                for name, original in arrays.items():
                    assert got[name].shape == original.shape
                    assert got[name].dtype == original.dtype

    @pytest.mark.parametrize(
        "dtype",
        [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_],
    )
    def test_dtype_round_trip(self, dtype):
        rng = np.random.default_rng(5)
        original = (rng.random((128, 16)) * 100).astype(dtype)
        with ShardedPool(n_jobs=2, state={"a": original}) as pool:
            for got in pool.scatter(_state_identity, [(0, None), (1, None)]):
                assert got["a"].dtype == original.dtype
                assert np.array_equal(got["a"], original)

    def test_zero_rows_through_parallel_map(self):
        out = parallel_map(
            _shape_probe,
            [0, 1],
            n_jobs=2,
            state={"X": np.empty((0, 5), dtype=np.float64)},
        )
        assert out == [(0, 5), (0, 5)]


def _shape_probe(item, state):
    return state["X"].shape


def _setup_task(item, state):
    return (float(state["X"].sum()) + item, os.getpid())


class _UnpickleCounter:
    """Picklable probe that records, per process, each time it is unpickled."""

    unpickled = 0

    def __reduce__(self):
        return (_revive_counter, ())


def _revive_counter():
    _UnpickleCounter.unpickled += 1
    return _UnpickleCounter()


def _count_unpickles(item, state):
    return os.getpid(), _UnpickleCounter.unpickled


def _kill_if_worker(item, state):
    if item == "die" and in_worker():
        os.kill(os.getpid(), 9)
    return ("survived", item, float(state["X"].sum()))


class TestSetupMode:
    def test_parallel_map_setup_runs_once_per_worker(self):
        X = np.arange(64.0).reshape(8, 8)
        out = parallel_map(_setup_task, range(6), n_jobs=2, state={"X": X})
        values = [value for value, _ in out]
        assert values == [X.sum() + i for i in range(6)]
        # Under ambient chaos a killed worker's tasks land in-process,
        # adding the parent pid to the set; values above already proved
        # correctness, so only the placement bookkeeping is relaxed.
        if not faults_active():
            assert len({pid for _, pid in out}) <= 2

    def test_parallel_map_setup_serial(self):
        state = {"X": np.ones((2, 2))}
        out = parallel_map(_state_identity, range(3), n_jobs=1, state=state)
        # The serial path hands every item the object itself.
        assert all(got is state for got in out)

    def test_state_arrives_once_per_worker_not_per_task(self, monkeypatch):
        # Placement is what this test asserts: no ambient kill schedule.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        out = parallel_map(
            _count_unpickles, range(12), n_jobs=2, state=_UnpickleCounter()
        )
        per_pid: dict[int, set[int]] = {}
        for pid, unpickled in out:
            per_pid.setdefault(pid, set()).add(unpickled)
        assert os.getpid() not in per_pid
        assert 1 <= len(per_pid) <= 2
        # Every worker unpickled the state exactly once, over all of
        # its tasks.
        assert all(counts == {1} for counts in per_pid.values())


class TestWorkerDeathCleanup:
    def test_sharded_pool_unlinks_segments_after_worker_death(self):
        before = _shm_segments()
        X = np.arange(4096.0).reshape(64, 64)
        total = float(X.sum())
        pool = ShardedPool(n_jobs=2, state={"X": X})
        results = pool.scatter(
            _kill_if_worker, [(0, "die"), (0, "a"), (1, "b")]
        )
        # The dead worker's tasks were recomputed in-process, in order.
        assert results == [
            ("survived", "die", total),
            ("survived", "a", total),
            ("survived", "b", total),
        ]
        # The pool keeps serving after the death, and the respawned
        # slot holds the same state.
        assert pool.scatter(_kill_if_worker, [(0, "c")]) == [
            ("survived", "c", total)
        ]
        pool.close()
        assert _shm_segments() - before == set()

    def test_parallel_map_unlinks_segments_after_worker_death(self):
        before = _shm_segments()
        X = np.arange(4096.0).reshape(64, 64)
        total = float(X.sum())
        out = parallel_map(
            _kill_if_worker,
            ["die", "x", "y"],
            n_jobs=2,
            state={"X": X},
        )
        # The killed worker's unit was recomputed in-process: same results.
        assert out == [
            ("survived", "die", total),
            ("survived", "x", total),
            ("survived", "y", total),
        ]
        assert _shm_segments() - before == set()


class TestNoSharedMemory:
    def test_no_shm_segment_across_pool_life_cycles(self):
        from repro.boosting import GBRegressor
        from repro.serve import ScoringService

        before = _shm_segments()
        X = np.arange(4096.0).reshape(64, 64)
        out = parallel_map(_setup_task, range(4), n_jobs=2, state={"X": X})
        assert [value for value, _ in out] == [X.sum() + i for i in range(4)]
        assert _shm_segments() - before == set()
        rng = np.random.default_rng(3)
        Xf = rng.normal(size=(200, 5))
        model = GBRegressor(n_estimators=5, max_depth=2).fit(Xf, Xf[:, 0])
        with ScoringService(model, n_jobs=2) as service:
            service.score_rows(Xf[:8], explain=True)
            assert _shm_segments() - before == set()
        assert _shm_segments() - before == set()


class TestShardedPoolContract:
    def test_affinity_and_order(self):
        X = np.arange(4096.0).reshape(64, 64)
        with ShardedPool(n_jobs=2, state={"X": X}) as pool:
            tasks = [(i % 4, i) for i in range(12)]
            out = pool.scatter(_setup_task, tasks)
            assert [value for value, _ in out] == [
                X.sum() + i for i in range(12)
            ]
            by_worker = {}
            for (shard, _), (_, pid) in zip(tasks, out):
                by_worker.setdefault(shard % pool.workers, set()).add(pid)
            if not faults_active():  # chaos recompute relaxes placement
                assert all(len(pids) == 1 for pids in by_worker.values())

    def test_unsharded_tasks_go_to_the_idle_worker(self, monkeypatch):
        # Placement is what this test asserts: no ambient kill schedule.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        with ShardedPool(n_jobs=2, state={}) as pool:
            if pool.workers != 2:
                pytest.skip("process backend unavailable")
            tasks = [(None, (0, 1.0))] + [(None, (i, 0.0)) for i in range(1, 7)]
            out = pool.scatter(_sleep_then_pid, tasks)
        assert [i for i, _ in out] == list(range(7))  # submission order
        slow_pid = out[0][1]
        fast_pids = {pid for _, pid in out[1:]}
        # The slow task holds one worker; every fast task ran on the other.
        assert len(fast_pids) == 1
        assert slow_pid not in fast_pids
        assert os.getpid() not in fast_pids | {slow_pid}

    def test_task_error_propagates(self):
        with ShardedPool(n_jobs=2, state={}) as pool:
            with pytest.raises(ValueError, match="boom 1"):
                pool.scatter(_raise_on, [(0, 0), (1, 1), (0, 2)])

    def test_serial_fallback_for_unpicklable_setup(self):
        state = {"local": True, "factory": lambda: None}
        with ShardedPool(n_jobs=4, state=state) as pool:
            assert pool.workers == 1
            assert pool.scatter(_probe_state, [(0, None)]) == [True]

    def test_closed_pool_rejects_work(self):
        pool = ShardedPool(n_jobs=1, state={})
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.scatter(_probe_state, [(0, None)])


def _sleep_then_pid(item, state):
    index, seconds = item
    time.sleep(seconds)
    return index, os.getpid()


def _raise_on(item, state):
    if item == 1:
        raise ValueError(f"boom {item}")
    return item


def _probe_state(item, state):
    return bool(state.get("local")) if isinstance(state, dict) else False


class TestProtocolSync:
    """Unsendable tasks must not desynchronise the pipe protocol."""

    def test_unpicklable_payload_mid_batch(self):
        with ShardedPool(n_jobs=2, state={}) as pool:
            bad = lambda: None  # noqa: E731 - unpicklable payload
            out = pool.scatter(
                _describe, [(0, "first"), (1, bad), (0, "third")]
            )
            assert out[0] == "first"
            assert out[1] is bad  # computed in-process
            assert out[2] == "third"
            # The channel stayed in sync: the next scatter gets its own
            # answers, not a stale result from the previous batch.
            assert pool.scatter(_describe, [(0, "next"), (1, "batch")]) == [
                "next",
                "batch",
            ]

    def test_unpicklable_fn_degrades_to_serial(self):
        with ShardedPool(n_jobs=2, state={}) as pool:
            fn = lambda payload, state: payload * 2  # noqa: E731
            assert pool.scatter(fn, [(0, 1), (1, 2)]) == [2, 4]
            # The pool itself is still healthy for picklable work.
            assert pool.scatter(_describe, [(0, "ok")]) == ["ok"]


def _describe(payload, state):
    return payload
