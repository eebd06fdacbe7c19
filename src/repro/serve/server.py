"""Asyncio HTTP front end over the multi-worker scoring plane.

:class:`ScoringServer` puts a network edge on the serving stack built in
PRs 3/5/7: a hand-rolled HTTP/1.1 server (asyncio streams, keep-alive)
that accepts ``POST /predict`` / ``POST /explain`` JSON requests,
coalesces them into micro-batches **on arrival** (the only batch former
in the serving stack), and executes each batch with one
:meth:`~repro.serve.router.ScoringRouter.score_batch` call on the
:class:`~repro.parallel.executor.ShardedPool` plane.

Determinism contract
--------------------
Every response is **bitwise identical** to the in-process
:class:`~repro.serve.service.ScoringService` on the same request
stream, at every worker count, cache-cold and cache-hot: the engines
are row-deterministic, the caches are exact, JSON serialises floats by
shortest round-trip repr (``json.loads(json.dumps(x)) == x`` exactly),
and a batch is always a run of *whole* posts — one response is never
assembled from two model versions.  NaN feature values encode as JSON
``null`` in both directions (JSON has no NaN literal).

Concurrency model
-----------------
Everything except scoring runs on the event-loop thread.  The pool is
single-owner (see :class:`~repro.parallel.executor.ShardedPool`), so all
router calls are funnelled through a one-thread executor (``_scorer``);
a second one-thread executor (``_builder``) builds replacement routers
in the background so a hot swap never stalls traffic.  The flow:

* **Handlers** parse a POST, ask the :class:`~repro.serve.admission
  .AdmissionController` for queue budget (refusing with ``429`` +
  ``Retry-After`` when the plane is saturated), enqueue the post with a
  future, and await it.
* **The flusher task** sleeps until a post arrives or a swap is
  staged, and never on a timer.  An idle flusher scores the first post
  at once; posts that arrive while a batch is scoring wait in the
  queue and form the next batch, a run of whole posts of at most
  ``max_batch`` rows.  It scores each batch via the router on the
  scorer thread and resolves each post's future.
* **The watcher task** polls the :class:`~repro.serve.registry
  .ModelRegistry` ``LATEST`` pointer; on a new version it builds a
  fresh router (new service + workers) on the builder thread and
  stages it.  The flusher applies staged swaps **between batches**,
  and at once when idle: zero requests are dropped, no response mixes
  versions, and the old router is closed only after its last batch.
* **Shutdown** (:meth:`stop`, idempotent) stops accepting, lets the
  flusher drain every admitted post, waits for the responses to flush
  to the sockets, then tears down routers and executors — the
  SIGTERM-on-a-busy-server test asserts the zero-drop contract.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.parallel.executor import resolve_deadline, resolve_jobs
from repro.serve.admission import AdmissionController
from repro.serve.registry import ModelRegistry
from repro.serve.router import ScoringRouter
from repro.serve.service import ScoreRequest, ScoreResult
from repro.serve.stats import LatencyWindow, ServerStats, metrics_payload

__all__ = ["ScoringServer", "ServerThread", "result_to_wire"]

#: The largest request body the server reads (16 MiB); above it, 413.
_MAX_BODY_BYTES = 16 * 1024 * 1024


def _null_safe(value: float | None) -> float | None:
    """A float JSON can carry: NaN becomes None (the wire's ``null``)."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def result_to_wire(result: ScoreResult) -> dict:
    """One :class:`ScoreResult` as its JSON wire document.

    Floats pass through untouched (Python's shortest-repr JSON encoding
    round-trips every finite float64 bitwise); only NaN feature values
    in the explanation — and a NaN probability, defensively — map to
    ``null``.  ``docs/formats.md`` is the normative schema reference.
    """
    explanation = None
    if result.explanation is not None:
        report = result.explanation
        explanation = {
            "prediction": float(report.prediction),
            "expected_value": float(report.expected_value),
            "features": list(report.features),
            "contributions": [float(c) for c in report.contributions],
            "values": [_null_safe(v) for v in report.values],
        }
    return {
        "raw_score": float(result.raw_score),
        "prediction": float(result.prediction),
        "probability": _null_safe(result.probability),
        "cached": bool(result.cached),
        "explanation": explanation,
    }


def _parse_rows(document: object, n_features: int) -> np.ndarray:
    """Decode a scoring POST body into an ``(n, n_features)`` matrix.

    Accepts ``{"rows": [[...], ...]}`` (a batch) or ``{"row": [...]}``
    (sugar for a single row).  JSON ``null`` means *missing* and maps
    to NaN, mirroring the response encoding.  Raises ``ValueError``
    with a client-presentable message on any malformed shape.
    """
    if not isinstance(document, dict):
        raise ValueError("request body must be a JSON object")
    if ("row" in document) == ("rows" in document):
        raise ValueError('request must carry exactly one of "row"/"rows"')
    rows = [document["row"]] if "row" in document else document["rows"]
    if not isinstance(rows, list):
        raise ValueError('"rows" must be a list of rows')
    out = np.empty((len(rows), n_features), dtype=np.float64)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_features:
            raise ValueError(
                f"row {i}: expected a list of {n_features} numbers"
            )
        for j, value in enumerate(row):
            if value is None:
                out[i, j] = np.nan
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                out[i, j] = value
            else:
                raise ValueError(
                    f"row {i}, column {j}: expected a number or null"
                )
    return out


class _BadRequest(Exception):
    """A request whose framing cannot be trusted: answer, then close."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class _Post:
    """One admitted scoring POST awaiting its micro-batch."""

    rows: np.ndarray
    explain: bool
    future: asyncio.Future


class _StagedSlot:
    """Thread-safe holder of the staged hot-swap router.

    Staging happens on the builder thread, the swap on the event loop,
    and the shutdown sweep must never race either — the lock makes
    stage/pop/seal atomic, and a sealed slot hands a late-built router
    straight back for closing instead of dropping it (the staged-leak
    regression: a router is never in flight outside this slot).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: tuple[str, ScoringRouter] | None = None
        self._sealed = False

    def tag(self) -> str | None:
        """Tag of the currently staged router, if any."""
        with self._lock:
            return None if self._value is None else self._value[0]

    def stage(self, tag: str, router: ScoringRouter) -> ScoringRouter | None:
        """Stage ``router``; return whatever the caller must close.

        Normally that is the previously staged router it displaced;
        on a sealed slot (shutdown began) it is ``router`` itself,
        which must be closed before it ever serves.
        """
        with self._lock:
            if self._sealed:
                return router
            previous = self._value
            self._value = (tag, router)
        return None if previous is None else previous[1]

    def pop(self) -> tuple[str, ScoringRouter] | None:
        """Take the staged (tag, router) pair, leaving the slot empty."""
        with self._lock:
            value = self._value
            self._value = None
        return value

    def seal(self) -> tuple[str, ScoringRouter] | None:
        """Refuse all future staging; return what was staged, once."""
        with self._lock:
            self._sealed = True
            value = self._value
            self._value = None
        return value


class ScoringServer:
    """Serve one registry model over HTTP (see module docstring).

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` (or its root directory).
    name:
        Registry model name to serve.
    tag:
        Pin one version.  Default None follows the registry's
        ``LATEST`` pointer and hot-swaps when it moves.
    host / port:
        Listen address; port 0 binds an ephemeral port (read
        :attr:`port` after :meth:`start`).
    jobs:
        Scoring workers, the router/executor convention: argument over
        ``REPRO_JOBS`` over serial.  Responses are bitwise-identical
        for every value.
    max_batch:
        Micro-batch row bound.  Also the largest single POST (bigger
        posts get a 413 — they could not be answered by one version
        atomically).
    max_queue:
        Admission bound in rows; beyond it posts get 429 +
        ``Retry-After``.
    poll_interval:
        Seconds between registry ``LATEST`` polls (0 disables hot
        swapping even without a pinned tag).
    cache_size / top_k:
        Forwarded to the router (per-shard LRU rows; report size).
    task_deadline:
        Per-task stuck-worker deadline in seconds, forwarded to every
        router this server builds (argument over
        ``REPRO_TASK_DEADLINE`` over no deadline).  A worker that
        holds a batch past the deadline is killed, its rows are
        recomputed in-process (bitwise identically), and the
        supervisor respawns the slot.
    latency_window:
        Ring-buffer capacity behind the ``/metrics`` percentiles.
    clock:
        Injectable monotonic clock (tests pin latency accounting).
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        name: str,
        *,
        tag: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int | None = None,
        max_batch: int = 64,
        max_queue: int = 256,
        poll_interval: float = 2.0,
        cache_size: int = 4096,
        top_k: int = 5,
        task_deadline: float | None = None,
        latency_window: int = 4096,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if poll_interval < 0:
            raise ValueError(
                f"poll_interval must be >= 0, got {poll_interval}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._registry = (
            registry
            if isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self._name = name
        self._pinned_tag = tag
        self._host = host
        self._requested_port = port
        self.max_batch = max_batch
        self.poll_interval = poll_interval
        self._cache_size = cache_size
        self._top_k = top_k
        # Resolved (and validated) now, so a bad value, REPRO_JOBS or
        # REPRO_TASK_DEADLINE fails the construction, not the first build.
        self._jobs = resolve_jobs(jobs)
        self._task_deadline = resolve_deadline(task_deadline)
        self._clock = clock
        self._admission = AdmissionController(max_queue)
        self._latency = LatencyWindow(latency_window)
        self._stats = ServerStats()
        self._queue: deque[_Post] = deque()
        self._queued_rows = 0
        self._router: ScoringRouter | None = None
        self._tag: str | None = None
        self._staged = _StagedSlot()
        #: Recovery accounting: counters of routers already closed
        #: (swapped out or stopped) so /metrics is monotone across
        #: hot swaps.
        self._respawned_base = 0
        self._deadline_base = 0
        self._half_published = 0
        self._quarantine_seen: set[str] = set()
        self._stopping = False
        self._stopped = False
        self._started_at = 0.0
        self._inflight = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._flusher: asyncio.Task | None = None
        self._watcher: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None
        self._scorer: ThreadPoolExecutor | None = None
        self._builder: ThreadPoolExecutor | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self) -> None:
        """Build the router, bind the socket, start the background tasks."""
        if self._router is not None or self._stopped:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._scorer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-scorer"
        )
        self._builder = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-builder"
        )
        tag = await self._loop.run_in_executor(
            self._builder, self._registry.resolve, self._name,
            self._pinned_tag,
        )
        self._router = await self._loop.run_in_executor(
            self._builder, self._build_router, tag
        )
        self._tag = tag
        self._started_at = self._clock()
        self._server = await asyncio.start_server(
            self._handle, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._flusher = self._loop.create_task(self._flush_loop())
        if self._pinned_tag is None and self.poll_interval > 0:
            self._watcher = self._loop.create_task(self._watch_loop())

    async def stop(self) -> None:
        """Drain and tear down; idempotent; drops zero admitted posts."""
        if self._stopped:
            return
        self._stopping = True
        if self._loop is None:  # never started: nothing to drain
            self._stopped = True
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._watcher is not None:
            self._watcher.cancel()
            await asyncio.gather(self._watcher, return_exceptions=True)
            self._watcher = None
        if self._wakeup is not None:
            self._wakeup.set()
        if self._flusher is not None:
            await self._flusher  # drains the queue, then exits
            self._flusher = None
        # Admitted posts are all answered now; wait for the handlers to
        # flush those responses onto their sockets before tearing down.
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        assert self._loop is not None
        # Quiesce the builder *before* sweeping what's staged: an
        # in-flight background build finishes inside _build_and_stage,
        # which stages its router (or, on a sealed slot, closes it
        # right there) — after this shutdown no router exists outside
        # the slot, so the sweep below cannot leak a built router.
        if self._builder is not None:
            self._builder.shutdown(wait=True)
        staged = self._staged.seal()
        if staged is not None:
            _tag, staged_router = staged
            await self._loop.run_in_executor(
                self._scorer, staged_router.close
            )
        if self._router is not None:
            self._respawned_base += self._router.workers_respawned
            self._deadline_base += self._router.deadline_kills
            await self._loop.run_in_executor(
                self._scorer, self._router.close
            )
        if self._scorer is not None:
            self._scorer.shutdown(wait=True)
        self._stopped = True

    def _build_router(self, tag: str) -> ScoringRouter:
        return ScoringRouter.from_registry(
            self._registry,
            self._name,
            tag,
            n_jobs=self._jobs,
            cache_size=self._cache_size,
            top_k=self._top_k,
            task_deadline=self._task_deadline,
        )

    # ------------------------------------------------------------------
    # Introspection.

    @property
    def model_ref(self) -> str:
        """The ``name@tag`` currently served."""
        return f"{self._name}@{self._tag}"

    @property
    def workers(self) -> int:
        """Scoring worker count of the live router."""
        return 1 if self._router is None else self._router.workers

    @property
    def stats(self) -> ServerStats:
        """Lifetime server counters."""
        return self._stats

    @property
    def workers_respawned(self) -> int:
        """Lifetime worker respawns across every router this server ran."""
        live = 0 if self._router is None else self._router.workers_respawned
        return self._respawned_base + live

    @property
    def deadline_kills(self) -> int:
        """Lifetime stuck-worker deadline kills across every router."""
        live = 0 if self._router is None else self._router.deadline_kills
        return self._deadline_base + live

    @property
    def half_published(self) -> int:
        """Distinct quarantined (torn-publish) version dirs seen so far."""
        return self._half_published

    def metrics(self) -> dict:
        """The ``GET /metrics`` document (see ``docs/formats.md``)."""
        assert self._router is not None
        uptime = self._clock() - self._started_at
        cache = self._router.cache_stats
        return metrics_payload(
            seconds=uptime,
            config={
                "jobs": self._router.workers,
                "max_batch": self.max_batch,
                "max_queue": self._admission.max_queue,
                "poll_interval": self.poll_interval,
            },
            latency_ms=self._latency.percentiles(),
            throughput_rps=self._stats.throughput_rps(uptime),
            queue_depth=len(self._queue),
            queue_rows=self._queued_rows,
            max_queue=self._admission.max_queue,
            rejected=self._admission.rejected,
            stats=self._stats,
            shard_rows=self._router.stats.shard_rows,
            workers=self._router.workers,
            workers_alive=self._router.workers_alive,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_hit_rate=cache.hit_rate,
            version=self.model_ref,
            workers_respawned=self.workers_respawned,
            deadline_kills=self.deadline_kills,
            half_published=self._half_published,
        )

    def health(self) -> dict:
        """The ``GET /healthz`` document: readiness + liveness.

        Always answered with HTTP 200 — a degraded plane keeps serving
        (bitwise identically, via in-process fallback while the
        supervisor respawns workers), so orchestrators key on the
        ``status``/``ready`` fields rather than the status code.
        ``live`` is true by construction: a wedged event loop cannot
        answer at all.
        """
        workers = self.workers
        alive = (
            workers if self._router is None else self._router.workers_alive
        )
        if self._stopping:
            status = "stopping"
        elif alive < workers:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "ready": not self._stopping,
            "live": True,
            "version": self.model_ref,
            "workers": workers,
            "workers_alive": alive,
        }

    # ------------------------------------------------------------------
    # Micro-batch formation (batch on arrival).

    async def _flush_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            # Clear before looking: a post or a staged swap that lands
            # while this pass awaits sets the event again, so the wait
            # below never sleeps through it.
            self._wakeup.clear()
            if not self._stopping:
                # Once the drain began, a staged router is the stop
                # sweep's to close, never this server's to serve.
                await self._apply_staged_swap()
            if not self._queue:
                if self._stopping:
                    break
                await self._wakeup.wait()
                continue
            batch: list[_Post] = []
            batch_rows = 0
            while self._queue:
                next_rows = self._queue[0].rows.shape[0]
                if batch and batch_rows + next_rows > self.max_batch:
                    break
                post = self._queue.popleft()
                batch.append(post)
                batch_rows += next_rows
            self._queued_rows -= batch_rows
            await self._execute(batch)

    async def _execute(self, batch: list[_Post]) -> None:
        """Score a run of whole posts as one micro-batch, resolve futures."""
        assert self._router is not None and self._loop is not None
        requests = [
            ScoreRequest(row=post.rows[i], explain=post.explain)
            for post in batch
            for i in range(post.rows.shape[0])
        ]
        version = self.model_ref
        try:
            results = await self._loop.run_in_executor(
                self._scorer, self._router.score_batch, requests
            )
        except Exception as exc:
            self._stats.errors += len(batch)
            for post in batch:
                if not post.future.done():
                    post.future.set_exception(
                        RuntimeError(f"scoring failed: {exc}")
                    )
            return
        self._stats.micro_batches += 1
        offset = 0
        for post in batch:
            n = post.rows.shape[0]
            if not post.future.done():
                post.future.set_result((results[offset : offset + n], version))
            offset += n

    # ------------------------------------------------------------------
    # Hot swap.

    async def _watch_loop(self) -> None:
        assert self._loop is not None
        while not self._stopping:
            await asyncio.sleep(self.poll_interval)
            if self._stopping:
                break
            try:
                latest = await self._loop.run_in_executor(
                    self._builder, self._poll_registry
                )
            except (OSError, KeyError):
                continue  # transient registry trouble: keep serving
            if latest == self._tag or latest == self._staged.tag():
                continue
            try:
                await self._loop.run_in_executor(
                    self._builder, self._build_and_stage, latest
                )
            except (OSError, KeyError, ValueError):
                continue  # half-published version: retry next poll
            self._wakeup.set()  # an idle flusher applies it at once

    def _poll_registry(self) -> str:
        """Resolve ``LATEST`` and account torn publishes (builder thread).

        Each poll counts version dirs that are newly quarantined (a
        crash between the model and meta writes) into the
        ``half_published`` recovery counter; ``resolve`` itself falls
        back past torn dirs, so the watcher keeps serving the newest
        complete version throughout.
        """
        for tag, _reason in self._registry.quarantined(self._name):
            if tag not in self._quarantine_seen:
                self._quarantine_seen.add(tag)
                self._half_published += 1
        return self._registry.resolve(self._name, None)

    def _build_and_stage(self, tag: str) -> None:
        """Build a replacement router and stage it (builder thread).

        Building and staging happen on the same thread: the new router
        is never in flight between threads, so a shutdown racing the
        watcher cannot drop it — either it lands in ``_staged`` (and
        the stop sweep closes it) or, when the drain already began, it
        is closed right here before its first batch.
        """
        router = self._build_router(tag)
        stale = self._staged.stage(tag, router)
        if stale is not None:
            stale.close()

    async def _apply_staged_swap(self) -> None:
        """Switch to a staged router between batches (flusher only)."""
        staged = self._staged.pop()
        if staged is None:
            return
        assert self._loop is not None
        tag, router = staged
        old = self._router
        self._router, self._tag = router, tag
        self._stats.swaps += 1
        if old is not None:
            self._respawned_base += old.workers_respawned
            self._deadline_base += old.deadline_kills
            # Close on the scorer thread, after the old router's last
            # batch — scatter and close never overlap.
            await self._loop.run_in_executor(self._scorer, old.close)

    # ------------------------------------------------------------------
    # HTTP plumbing.

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The body's extent is unknown, so the rest of the
                    # stream cannot be framed: answer, then hang up.
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, False, {}
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._respond(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF between keep-alive requests
        except asyncio.LimitOverrunError:
            raise _BadRequest(
                "request header block exceeds the stream limit", 431
            ) from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, target, _http_version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _sep, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "")
        if raw_length and not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest(f"malformed Content-Length {raw_length!r}")
        length = int(raw_length or "0")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(
                f"Content-Length {length} exceeds {_MAX_BODY_BYTES} bytes", 413
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _respond(self, request, writer: asyncio.StreamWriter) -> bool:
        method, target, headers, body = request
        path = target.split("?", 1)[0]
        keep_alive = headers.get("connection", "").lower() != "close"
        extra_headers: dict[str, str] = {}
        try:
            if path == "/healthz":
                if method != "GET":
                    status, payload = 405, {"error": "method not allowed"}
                else:
                    status, payload = 200, self.health()
            elif path == "/metrics":
                if method != "GET":
                    status, payload = 405, {"error": "method not allowed"}
                else:
                    status, payload = 200, self.metrics()
            elif path in ("/predict", "/explain"):
                if method != "POST":
                    status, payload = 405, {"error": "method not allowed"}
                else:
                    status, payload, extra_headers = await self._score_post(
                        path, body
                    )
            else:
                status, payload = 404, {"error": f"no such endpoint {path}"}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._stats.errors += 1
            status, payload = 500, {"error": f"internal error: {exc}"}
        await self._write_response(
            writer, status, payload, keep_alive, extra_headers
        )
        return keep_alive

    async def _score_post(self, path: str, body: bytes):
        if self._stopping:
            return 503, {"error": "server is shutting down"}, {}
        assert self._router is not None and self._loop is not None
        try:
            document = json.loads(body.decode("utf-8"))
            rows = _parse_rows(document, self._router.n_features)
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": str(exc)}, {}
        n = rows.shape[0]
        if n == 0:
            return 200, {"version": self.model_ref, "results": []}, {}
        if n > self.max_batch:
            self._stats.oversized += 1
            return (
                413,
                {
                    "error": (
                        f"at most {self.max_batch} rows per request "
                        "(one atomic micro-batch); split the post"
                    )
                },
                {},
            )
        if not self._admission.try_admit(n):
            retry = self._admission.retry_after(
                self._router.stats.rows_per_second
            )
            return (
                429,
                {"error": "scoring queue is full", "retry_after": retry},
                {"Retry-After": str(retry)},
            )
        self._inflight += 1
        t0 = self._clock()
        future: asyncio.Future = self._loop.create_future()
        self._queue.append(
            _Post(rows=rows, explain=(path == "/explain"), future=future)
        )
        self._queued_rows += n
        assert self._wakeup is not None
        self._wakeup.set()
        try:
            results, version = await future
        except Exception as exc:
            return 500, {"error": str(exc)}, {}
        finally:
            self._admission.release(n)
            self._inflight -= 1
        self._latency.observe(self._clock() - t0)
        self._stats.posts += 1
        self._stats.rows += n
        return (
            200,
            {
                "version": version,
                "results": [result_to_wire(r) for r in results],
            },
            {},
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
        extra_headers: dict[str, str],
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }
        body = json.dumps(payload).encode("utf-8")
        head_lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for key, value in sorted(extra_headers.items()):
            head_lines.append(f"{key}: {value}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client hung up before reading its response


class ServerThread:
    """Run a :class:`ScoringServer` on a private event-loop thread.

    The harness tests and benches use: start the loop in a daemon
    thread, run :meth:`ScoringServer.start` on it, expose the bound
    port, and on exit run :meth:`ScoringServer.stop` (the zero-drop
    drain) before joining the thread.  Usable as a context manager::

        with ServerThread(ScoringServer(registry, "sppb")) as handle:
            requests.post(f"http://127.0.0.1:{handle.port}/predict", ...)
    """

    def __init__(self, server: ScoringServer, *, startup_timeout: float = 120.0):
        self.server = server
        self._startup_timeout = startup_timeout
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self._startup_timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface startup failures to start()
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        loop.run_forever()
        loop.close()

    def stop(self) -> None:
        if self._loop is None or self._error is not None:
            return
        if self._thread is not None and self._thread.is_alive():
            done = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            done.result(timeout=self._startup_timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=self._startup_timeout)
