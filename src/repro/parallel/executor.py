"""Deterministic fan-out execution of independent experiment units.

The evaluation grid decomposes into units that share inputs but not
state: the CV folds of one protocol run, the 12 grid cells of Fig. 4,
the per-clinic models of Table 1, each ablation arm.  Every unit is a
pure function of ``(item, state)`` with its own seed, so the only thing
scheduling could leak into results is *ordering* — and
:func:`parallel_map` removes that channel by gathering results strictly
in submission order.  The parallel result list is therefore
bitwise-identical to the serial one (asserted by
``tests/parallel/test_determinism.py`` over the full grid).

Backend selection
-----------------
``n_jobs`` argument beats the ``REPRO_JOBS`` environment variable beats
the serial default:

* ``1`` (default) — serial in-process execution, zero overhead;
* ``N > 1`` — a process pool of N workers;
* ``0`` or ``-1`` — one worker per CPU, at most :data:`MAX_JOBS`.

The pool's ``state`` (a sample set, a serving model's explainer, an
explainer and its rows) is pickled once in the parent and sent down
each worker's own pipe as its first message, so it is unpickled once
per *worker*, never per task.  Nested parallelism is suppressed:
inside a worker :func:`resolve_jobs` always answers 1, so e.g. a
protocol run fanned out by the grid does not fork a second-level pool.

Tasks must be picklable (module-level functions, plain-data items) to
run on the process backend; anything unpicklable — a lambda model
factory, say — silently degrades to the serial backend with identical
results.

One supervisor, two clients
---------------------------
:class:`ShardedPool` is the only code that spawns, heals, kills and
closes workers.  Each long-lived worker unpickles the state once, and a
task tagged with shard ``s`` always executes on worker ``s %
n_workers``; a task whose shard is ``None`` goes to whichever worker
goes idle first.  Its clients:

* :func:`parallel_map` — one pool per call over unsharded tasks: the
  grid's protocol runs, folds, clinics and ablation arms;
* :class:`~repro.serve.service.ScoringService` — one persistent pool
  per model version whose state is the version's TreeSHAP explainer;
  a batch's cache-miss rows go out as one contiguous chunk per worker.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, Sequence

from repro.faults import inject, should_kill

__all__ = [
    "resolve_jobs",
    "resolve_deadline",
    "parallel_map",
    "in_worker",
    "ShardedPool",
]

_IN_WORKER = False

#: Largest worker count :func:`resolve_jobs` returns.  Every worker is a
#: process, so a larger explicit ``n_jobs``/``REPRO_JOBS`` (a typo or a
#: runaway setting) is refused rather than started.
MAX_JOBS = 64


def in_worker() -> bool:
    """True inside an executor worker process."""
    return _IN_WORKER


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve the worker count: argument over ``REPRO_JOBS`` over 1.

    ``0`` and ``-1`` mean "one per CPU", capped at :data:`MAX_JOBS` so
    that a resolved count resolves to itself again; an explicit count
    above :data:`MAX_JOBS` is a ``ValueError``.  Inside a worker process
    the answer is always 1 — nested pools would oversubscribe the
    machine without changing any result.
    """
    if _IN_WORKER:
        return 1
    source = "n_jobs"
    if n_jobs is None:
        source = "REPRO_JOBS"
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    if n_jobs in (0, -1):
        return min(os.cpu_count() or 1, MAX_JOBS)
    if n_jobs < -1:
        raise ValueError(f"{source} must be >= -1, got {n_jobs}")
    if n_jobs > MAX_JOBS:
        raise ValueError(f"{source} must be <= {MAX_JOBS}, got {n_jobs}")
    return n_jobs


def resolve_deadline(task_deadline: float | None = None) -> float | None:
    """Resolve the per-task deadline: argument over ``REPRO_TASK_DEADLINE``.

    ``None`` consults the environment; unset or ``<= 0`` means no
    deadline (stuck workers are then only reaped at ``close()``).
    Non-finite values (``inf``, ``nan``) are rejected: an infinite wait
    overflows the pipe poll, and NaN would silently disable the
    deadline.
    """
    source = "task_deadline"
    if task_deadline is None:
        raw = os.environ.get("REPRO_TASK_DEADLINE", "").strip()
        if not raw:
            return None
        source = "REPRO_TASK_DEADLINE"
        try:
            task_deadline = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_TASK_DEADLINE must be a number, got {raw!r}"
            ) from None
    if not math.isfinite(task_deadline):
        raise ValueError(f"{source} must be finite, got {task_deadline!r}")
    return task_deadline if task_deadline > 0 else None


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    n_jobs: int | None = None,
    state: object = None,
) -> list:
    """Evaluate ``fn(item, state)`` for every item.

    Results come back in submission order regardless of completion
    order, so the output is identical to
    ``[fn(item, state) for item in items]`` on every backend.  The
    process backend is a one-call :class:`ShardedPool` over unsharded
    tasks: each item goes to whichever worker goes idle first, and the
    pool's respawn, deadline and fault-site supervision applies.

    Parameters
    ----------
    fn:
        A pure function of ``(item, state)``.  Module-level (picklable)
        for the process backend; an unpicklable callable runs every
        item in-process, an unpicklable item runs in-process alone.
        Each item is pickled once, when it is sent.
    state:
        The read-only input every item shares (see :class:`ShardedPool`):
        pickled once and unpickled once per worker, never per task.
        The serial path hands ``fn`` the object itself.
    n_jobs:
        See :func:`resolve_jobs`.
    """
    items = list(items)
    jobs = max(1, min(resolve_jobs(n_jobs), len(items)))
    with ShardedPool(n_jobs=jobs, state=state) as pool:
        return pool.scatter(fn, [(None, item) for item in items])


def _start_method() -> str:
    """fork when safe, else spawn.

    fork is the cheap default (no re-import per worker), but forking a
    multithreaded parent can deadlock a child on a lock some other
    thread held at fork time — threaded callers (the context's
    documented thread-safe sharing) get spawn instead.
    """
    use_fork = (
        "fork" in mp.get_all_start_methods() and threading.active_count() == 1
    )
    return "fork" if use_fork else "spawn"


def _picklable(payload: Sequence) -> bool:
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


class ShardedPool:
    """Long-lived workers with stable shard → worker affinity.

    A ShardedPool survives across many :meth:`scatter` calls: ``state``
    is pickled once at construction and sent down each worker's own
    pipe as its first message — only after every worker has started,
    since under ``spawn`` a send blocks until its child has booted — so
    every worker unpickles its own copy exactly once, and a task tagged
    with shard ``s`` always executes on worker ``s % n_workers``.  A
    task tagged with shard ``None`` has no affinity and goes to
    whichever worker goes idle first.  A worker that does not take its
    state within :attr:`_BOOT_TIMEOUT` seconds is killed and its slot
    marked dead, so neither the constructor nor a respawn can block
    for good on a child that never reads.

    With ``n_jobs <= 1``, an unpicklable state, or no way to start
    workers the pool degrades to in-process execution on the ``state``
    object itself; a worker dying mid-task routes that worker's sharded
    tasks to it as well — slower, never different (tasks must be
    pure).  :meth:`close` (or the context manager) shuts workers down,
    terminating stuck ones, even when workers crashed.

    Self-healing
    ------------
    A dead worker slot is not permanent: :meth:`heal`, which every
    :meth:`scatter` starts with, respawns crashed workers (bounded
    per-slot budget, exponential backoff) and sends the new worker the
    same state bytes into the same slot — shard ownership is a pure
    function of the slot index, so a respawned worker serves exactly
    the shard subsequence its predecessor would have and results stay
    bitwise identical under any kill schedule.  With ``task_deadline``
    set, a worker that is stuck rather than dead is detected mid-batch:
    its in-flight task is recomputed in-process, the process is killed
    and the slot becomes eligible for respawn.  :attr:`workers_respawned` and
    :attr:`deadline_kills` expose both recovery paths to the ops plane;
    `tests/faults/` drives them with deterministic fault plans
    (:mod:`repro.faults`).

    Lifecycle under an event loop
    -----------------------------
    The pool is **single-owner**: all of :meth:`scatter` and
    :meth:`close` must be issued from one thread at a time.  An asyncio
    front end (``repro.serve.server``) satisfies this by funnelling
    every pool interaction through one dedicated executor thread —
    construction, scoring and teardown may each happen on *different*
    threads (a pool built on thread A closes fine from thread B), they
    just must not overlap.  Note that constructing a pool while other
    threads are alive selects the ``spawn`` start method (see
    :func:`_start_method`), so worker startup pays one interpreter
    boot + import per worker; an event-loop server therefore builds its
    pool once per model version and keeps it hot across requests.
    :attr:`workers_alive` exposes how many workers still serve (dead
    workers' shards are recomputed in-process) so an ops plane can
    surface degraded capacity.
    """

    #: Per-slot respawn budget and base backoff (doubles per attempt).
    _RESPAWN_LIMIT = 3
    _RESPAWN_BACKOFF = 0.05
    #: Seconds a started worker has to take its state off the pipe.
    _BOOT_TIMEOUT = 30.0

    def __init__(
        self,
        *,
        n_jobs: int | None = None,
        state: object = None,
        task_deadline: float | None = None,
        max_respawns: int | None = None,
        close_timeout: float = 5.0,
    ):
        self._state = state
        self._procs: list = []
        self._conns: list = []
        self._dead: set[int] = set()
        self._closed = False
        self._context = None
        self.task_deadline = resolve_deadline(task_deadline)
        self.max_respawns = (
            self._RESPAWN_LIMIT if max_respawns is None else max_respawns
        )
        self.close_timeout = close_timeout
        self.workers_respawned = 0
        self.deadline_kills = 0
        self._respawn_attempts: dict[int, int] = {}
        self._retry_after: dict[int, float] = {}
        self.workers = resolve_jobs(n_jobs)
        if self.workers <= 1:
            return
        try:
            self._state_bytes = pickle.dumps(state)
        except Exception:
            self.workers = 1
            return
        self._context = mp.get_context(_start_method())
        try:
            for w in range(self.workers):
                self._spawn_worker(w)
        except OSError:
            self.close()
            self._closed = False
            self.workers = 1
            return
        self._send_states(range(self.workers))

    # ------------------------------------------------------------------
    def _spawn_worker(self, w: int) -> None:
        """(Re)start slot ``w``'s worker; its state follows by pipe."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        proc = self._context.Process(
            target=_shard_worker_loop,
            args=(child_conn, w),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if w < len(self._procs):
            old = self._procs[w]
            if old is not None:
                old.join(timeout=0.2)  # reap the crashed predecessor
            self._procs[w] = proc
            self._conns[w] = parent_conn
        else:
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _send_state(self, w: int) -> None:
        """Send slot ``w`` the state bytes; a worker already gone is dead."""
        try:
            self._conns[w].send_bytes(self._state_bytes)
        except (BrokenPipeError, OSError):
            self._mark_dead(w)

    def _send_states(self, slots: Iterable[int]) -> None:
        """Send every slot its state, each from its own short-lived thread.

        Under ``spawn`` a send larger than the pipe buffer blocks until
        the child reads, so each send is joined against one shared
        :attr:`_BOOT_TIMEOUT`.  A worker still not reading by then is
        killed, which breaks its pipe and ends the send, and its slot
        is marked dead: its tasks run in-process and :meth:`heal`
        retries the slot within its budget.
        """
        senders = {}
        for w in slots:
            sender = threading.Thread(target=self._send_state, args=(w,), daemon=True)
            sender.start()
            senders[w] = sender
        expiry = time.perf_counter() + self._BOOT_TIMEOUT
        for w, sender in senders.items():
            sender.join(max(0.0, expiry - time.perf_counter()))
            if sender.is_alive():
                self._kill_worker(w)
                sender.join(self.close_timeout)
                self._mark_dead(w)

    def heal(self) -> None:
        """Respawn dead slots, budgeted and backed off (idempotent).

        :meth:`scatter` calls this first; a client that answers some
        batches without the pool calls it per batch as well.  The
        respawned worker gets the same state bytes and takes over the
        same slot, so shard affinity — and with it result identity —
        is unchanged.  A slot that keeps dying (e.g. its setup keeps
        failing) exhausts its budget and stays on the in-process
        fallback for good.
        """
        if not self._dead or self.max_respawns <= 0 or self._context is None:
            return
        now = time.perf_counter()
        respawned = []
        for w in sorted(self._dead):
            attempts = self._respawn_attempts.get(w, 0)
            if attempts >= self.max_respawns:
                continue
            if now < self._retry_after.get(w, 0.0):
                continue
            self._respawn_attempts[w] = attempts + 1
            self._retry_after[w] = now + self._RESPAWN_BACKOFF * (2.0**attempts)
            try:
                self._spawn_worker(w)
            except OSError:  # pragma: no cover - spawn pressure
                continue
            self._dead.discard(w)
            self.workers_respawned += 1
            respawned.append(w)
        self._send_states(respawned)  # after the starts, as in __init__

    def _kill_worker(self, w: int) -> None:
        """SIGKILL slot ``w``'s process (deadline reaper / fault site)."""
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=self.close_timeout)

    # ------------------------------------------------------------------
    @property
    def workers_alive(self) -> int:
        """Workers still executing remotely (1 when running in-process).

        Dead workers' shards fall back to in-process recompute until
        the supervisor respawns them (next :meth:`heal`), so the
        pool keeps answering — this is the ops-plane signal that
        capacity is degraded, not correctness.
        """
        if self.workers <= 1 or self._closed:
            return 0 if self._closed else 1
        return self.workers - len(self._dead)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def scatter(self, fn: Callable, tasks: Sequence[tuple[int | None, object]]) -> list:
        """Run ``fn(payload, state)`` for every ``(shard, payload)`` task.

        Results return in task order.  Tasks sharing a shard run on the
        same worker, in order; distinct shards run **concurrently** via
        a window-1 pipeline per worker: a worker receives its next task
        only after its previous result was read.  A worker with no
        sharded task left takes the next ``None``-shard task, so
        unsharded work balances by completion.  The parent therefore
        only ever sends to an idle worker (which is blocked reading) and
        only ever receives from workers it is not sending to — no pipe
        buffer can fill into a circular wait, whatever the payload or
        result sizes.  A task raising propagates the error to the caller
        (after the batch has drained, so sibling shards are not left
        half-consumed).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self.heal()
        if (
            self.workers <= 1
            or len(self._dead) == len(self._procs)
            or not _picklable((fn,))
        ):
            return [fn(payload, self._state) for _, payload in tasks]

        queues: dict[int, deque] = {}
        unsharded: deque = deque()
        for pos, (shard, payload) in enumerate(tasks):
            if shard is None:
                unsharded.append((pos, payload))
            else:
                queues.setdefault(shard % self.workers, deque()).append((pos, payload))
        results: list = [None] * len(tasks)
        failed: list[tuple[int, BaseException]] = []
        fallback: list[tuple[int, object]] = []
        #: worker -> its one in-flight (position, payload, send time).
        in_flight: dict[int, tuple[int, object, float]] = {}

        def feed(w: int) -> None:
            """Hand worker ``w`` its next sendable queued task, if any."""
            while True:
                queue = queues.get(w) or unsharded
                if not queue:
                    return
                pos, payload = queue[0]
                if should_kill("shard.send", w):
                    self._kill_worker(w)  # fault plan: crash before send
                try:
                    self._conns[w].send((fn, payload))
                except (BrokenPipeError, OSError):
                    self._mark_dead(w)
                    fallback.extend(queues.pop(w, ()))
                    return
                except Exception:
                    # Pickling the task failed, so nothing reached the
                    # pipe (Connection.send serialises fully before
                    # writing): the channel is still in sync — run just
                    # this payload in-process and keep the worker.
                    queue.popleft()
                    fallback.append((pos, payload))
                    continue
                queue.popleft()
                in_flight[w] = (pos, payload, time.perf_counter())
                return

        def reap_stuck() -> None:
            """Deadline pass: kill and fall back every expired worker."""
            now = time.perf_counter()
            for w in list(in_flight):
                pos, payload, sent = in_flight[w]
                if now - sent < self.task_deadline:
                    continue
                in_flight.pop(w)
                self.deadline_kills += 1
                self._kill_worker(w)
                self._mark_dead(w)
                fallback.append((pos, payload))
                fallback.extend(queues.pop(w, ()))

        for w in range(self.workers):
            if w in self._dead:
                fallback.extend(queues.pop(w, ()))
            else:
                feed(w)
        while in_flight:
            by_conn = {self._conns[w]: w for w in in_flight}
            timeout = None
            if self.task_deadline is not None:
                expiry = min(
                    sent + self.task_deadline
                    for _, _, sent in in_flight.values()
                )
                timeout = max(0.0, expiry - time.perf_counter())
            ready = mp_connection.wait(list(by_conn), timeout)
            if not ready:
                reap_stuck()
                continue
            for conn in ready:
                w = by_conn[conn]
                pos, payload, _ = in_flight.pop(w)
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task: everything it still owed is
                    # recomputed in-process.
                    self._mark_dead(w)
                    fallback.append((pos, payload))
                    fallback.extend(queues.pop(w, ()))
                    continue
                except Exception:
                    # The message was fully consumed but its payload did
                    # not unpickle (e.g. an exotic worker exception):
                    # the channel is still in sync, so recompute the one
                    # task in-process and keep the worker serving.
                    fallback.append((pos, payload))
                    feed(w)
                    continue
                if status == "ok":
                    results[pos] = value
                else:
                    failed.append((pos, value))
                feed(w)
        # Unsharded tasks no live worker could take run in-process too.
        fallback.extend(unsharded)
        for pos, payload in fallback:
            results[pos] = fn(payload, self._state)
        if failed:
            raise min(failed, key=lambda entry: entry[0])[1]
        return results

    def _mark_dead(self, w: int) -> None:
        self._dead.add(w)
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - already closed
            pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down, terminating stuck ones (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w, conn in enumerate(self._conns):
            if w in self._dead:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=self.close_timeout)
            if proc.is_alive():
                # Stuck worker (hung task, ignored shutdown): reap it
                # hard so close() returns within its timeout.
                proc.terminate()
                proc.join(timeout=self.close_timeout)
        for w, conn in enumerate(self._conns):
            if w not in self._dead:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._procs = []
        self._conns = []


def _shard_worker_loop(conn, worker_index):
    """One shard worker: unpickle the state once, then serve tasks."""
    global _IN_WORKER
    _IN_WORKER = True
    inject("worker.boot", worker_index)
    try:
        state_bytes = conn.recv_bytes()
    except (EOFError, OSError):  # parent went away before the state
        return
    inject("worker.setup", worker_index)
    state = pickle.loads(state_bytes)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if message is None:
            break
        fn, payload = message
        try:
            inject("shard.task", worker_index)
            result = fn(payload, state)
        except BaseException as exc:  # ship the failure, keep serving
            try:
                conn.send(("error", exc))
            except Exception:  # unpicklable exception: die loudly
                raise exc from None
        else:
            conn.send(("ok", result))
            inject("shard.task.done", worker_index)
    conn.close()
