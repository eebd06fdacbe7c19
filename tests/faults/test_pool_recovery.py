"""ShardedPool self-healing under deterministic fault injection.

The contract under test (see ``docs/determinism.md``): a kill
schedule — any kill schedule — changes no result bit at any worker
count.  A crashed worker's tasks are recomputed in-process for the
batch that lost it, the supervisor respawns the slot (bounded budget,
exponential backoff) and the respawned worker owns the exact same
shards, so every scatter matches the serial reference bit for bit.
Stuck (not just dead) workers are detected by the per-task deadline
and replaced the same way.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.faults import fault_plan, kill_schedule
from repro.parallel import ShardedPool
from repro.parallel.executor import resolve_deadline


def _shard_sum(payload, state):
    return float(state["X"][payload].sum()) + payload


def _make_pool(jobs: int, **kwargs) -> tuple[ShardedPool, np.ndarray]:
    X = np.arange(8192.0).reshape(128, 64)
    pool = ShardedPool(n_jobs=jobs, state={"X": X}, **kwargs)
    if pool.workers != jobs:
        pool.close()
        pytest.skip("process backend unavailable")
    return pool, X


def _tasks(n: int = 12) -> list[tuple[int, int]]:
    return [(i % 4, i) for i in range(n)]


def _reference(X: np.ndarray, tasks) -> list[float]:
    return [_shard_sum(payload, {"X": X}) for _, payload in tasks]


def _await_recovery(pool, X, tasks, expected_respawns, timeout=8.0):
    """Scatter until every slot is respawned, asserting identity each time.

    Respawns are paced by the supervisor's exponential backoff, so
    recovery needs a few batches of wall time — but every batch in the
    degraded window must already be bitwise right.
    """
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
        if (
            pool.workers_alive == pool.workers
            and pool.workers_respawned >= expected_respawns
        ):
            return
        time.sleep(0.1)
    pytest.fail(
        f"no recovery: alive={pool.workers_alive}/{pool.workers}, "
        f"respawned={pool.workers_respawned} (wanted {expected_respawns})"
    )


class TestKillScheduleMatrix:
    """kill schedules × worker counts: bitwise identity, then recovery."""

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            "kill@shard.send:w=0:n=0",
            "kill@shard.send:w=1:n=2",
            "kill@shard.send:w=1:n=1;kill@shard.send:w=0:n=4",
        ],
    )
    def test_fixed_schedules(self, jobs, spec):
        pool, X = _make_pool(jobs)
        tasks = _tasks()
        kills = spec.count("kill@")
        try:
            with fault_plan(spec):
                for _ in range(3):
                    assert pool.scatter(_shard_sum, tasks) == _reference(
                        X, tasks
                    )
                _await_recovery(pool, X, tasks, expected_respawns=kills)
            assert pool.workers_respawned == kills
            assert pool.deadline_kills == 0
        finally:
            pool.close()

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_seeded_schedules(self, jobs, seed):
        plan = kill_schedule(seed, workers=jobs, max_at=6, kills=2)
        pool, X = _make_pool(jobs)
        tasks = _tasks(16)
        try:
            with fault_plan(plan):
                _await_recovery(pool, X, tasks, expected_respawns=2)
        finally:
            pool.close()


class TestDeadline:
    def test_resolve_deadline_convention(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_DEADLINE", raising=False)
        assert resolve_deadline() is None
        assert resolve_deadline(2.5) == 2.5
        monkeypatch.setenv("REPRO_TASK_DEADLINE", "1.5")
        assert resolve_deadline() == 1.5
        assert resolve_deadline(3.0) == 3.0  # argument beats env
        monkeypatch.setenv("REPRO_TASK_DEADLINE", "0")
        assert resolve_deadline() is None  # <= 0 disables
        monkeypatch.setenv("REPRO_TASK_DEADLINE", "soon")
        with pytest.raises(ValueError, match="REPRO_TASK_DEADLINE"):
            resolve_deadline()
        # Non-finite values would overflow the pipe poll (inf) or
        # silently disable the deadline (nan): rejected, source named.
        for value in (float("inf"), 1e400, float("nan")):
            with pytest.raises(ValueError, match="task_deadline"):
                resolve_deadline(value)
        for raw in ("inf", "1e400", "nan"):
            monkeypatch.setenv("REPRO_TASK_DEADLINE", raw)
            with pytest.raises(ValueError, match="REPRO_TASK_DEADLINE"):
                resolve_deadline()
        monkeypatch.delenv("REPRO_TASK_DEADLINE")
        with pytest.raises(ValueError, match="task_deadline"):
            ShardedPool(n_jobs=2, task_deadline=float("inf"))

    def test_stuck_worker_reaped_and_recomputed(self, monkeypatch):
        # Worker-side rules ride the environment so they reach workers
        # under either start method; max_respawns=0 keeps the outcome
        # deterministic (worker-side rules replay in respawned workers).
        monkeypatch.setenv("REPRO_FAULTS", "stall@shard.task:w=1:n=1:s=30")
        pool, X = _make_pool(2, task_deadline=0.5, max_respawns=0)
        tasks = _tasks()
        try:
            t0 = time.perf_counter()
            assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
            assert time.perf_counter() - t0 < 10.0  # reaped, not waited out
            assert pool.deadline_kills == 1
            assert pool.workers_alive == 1
            # Permanent in-process fallback for the dead slot.
            assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
            assert pool.workers_respawned == 0
        finally:
            pool.close()

    def test_stuck_worker_respawned_under_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall@shard.task:w=0:n=0:s=30")
        pool, X = _make_pool(2, task_deadline=0.4)
        tasks = _tasks()
        try:
            assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
            assert pool.deadline_kills >= 1
            # The stall replays in each respawned worker (its plan copy
            # starts unfired), so the slot crash-loops until the budget
            # is spent — results stay bitwise right the whole way down.
            deadline = time.perf_counter() + 15.0
            while time.perf_counter() < deadline:
                assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
                if pool.workers_respawned >= pool.max_respawns:
                    break
                time.sleep(0.1)
            assert pool.workers_respawned == pool.max_respawns
        finally:
            pool.close()


class TestCrashLoops:
    def test_exit_crash_recovers_until_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "exit@shard.task:w=0:n=0")
        pool, X = _make_pool(2)
        tasks = _tasks()
        try:
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
                if pool.workers_respawned >= pool.max_respawns:
                    break
                time.sleep(0.1)
            assert pool.workers_respawned == pool.max_respawns
            # Budget spent: the slot stays on the in-process fallback.
            assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
            assert pool.workers_alive == 1
        finally:
            pool.close()

    def test_worker_setup_failure_degrades_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail@worker.setup:w=1:x=10")
        pool, X = _make_pool(2)
        tasks = _tasks()
        try:
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
                if pool.workers_respawned >= pool.max_respawns:
                    break
                time.sleep(0.1)
            assert pool.workers_alive == 1
            assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
        finally:
            pool.close()

    def test_respawn_disabled_keeps_legacy_semantics(self):
        with fault_plan("kill@shard.send:w=0:n=0"):
            pool, X = _make_pool(2, max_respawns=0)
            tasks = _tasks()
            try:
                for _ in range(3):
                    assert pool.scatter(_shard_sum, tasks) == _reference(
                        X, tasks
                    )
                assert pool.workers_alive == 1
                assert pool.workers_respawned == 0
            finally:
                pool.close()


class TestCloseUnderFaults:
    def test_close_terminates_stuck_worker(self, monkeypatch):
        """A worker wedged mid-loop cannot hold close() past its timeout."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "stall@shard.task.done:w=0:n=0:s=60"
        )
        pool, X = _make_pool(2, close_timeout=0.5)
        tasks = _tasks(4)
        # The stall fires *after* the result is sent, so the batch
        # completes — then the worker sleeps through the shutdown
        # sentinel and must be terminated within the close deadline.
        assert pool.scatter(_shard_sum, tasks) == _reference(X, tasks)
        procs = list(pool._procs)
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 10.0
        assert all(not proc.is_alive() for proc in procs if proc is not None)
