"""Multi-worker request router: shard, score, reassemble.

:class:`ScoringRouter` is the front end of the multi-worker scoring
plane.  It takes pre-coalesced micro-batches of heterogeneous
predict/explain requests (:meth:`ScoringRouter.score_batch`; batch
formation belongs to the caller — the HTTP server's flusher, the
``repro serve score`` chunk loop) and fans every micro-batch over a pool
of scoring workers (:class:`~repro.parallel.executor.ShardedPool`).
The parent builds one :class:`~repro.serve.service.ScoringService` per
version — model checks, fingerprint, TreeSHAP structures, the compact
DAG — and hands it to the pool as its state, pickled once; each worker
unpickles its own empty-cache copy.

Sharding and the cache contract
-------------------------------
Rows are routed to workers by a stable hash of their **bin codes** (the
model's own quantized view of the row).  Each worker owns one shard of
the exact-result LRU, and every entry — cached or computed, in any
worker layout — was produced by the row-deterministic batched engine,
so every *answer* (raw score, prediction, probability, attribution
report) is **bitwise identical** to the single-process
:class:`~repro.serve.service.ScoringService` on the same request
stream, cache-cold and cache-hot (asserted in
``tests/serve/test_router.py``).  The ``cached`` flag and hit
statistics coincide with the single process as well while the distinct
working set fits the cache; under eviction pressure the per-shard LRUs
age entries by shard-local rather than global recency, which can only
flip ``cached`` bookkeeping — never a value (also asserted, under
forced eviction).

Worker selection follows the executor's convention: ``n_jobs`` argument
over ``REPRO_JOBS`` over the serial default; the serial path scores
in-process on the service itself, with zero IPC.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.parallel import ShardedPool, resolve_jobs
from repro.serve.cache import CacheStats
from repro.serve.registry import ModelRegistry
from repro.serve.service import (
    ScoreRequest,
    ScoreResult,
    ScoringService,
    registry_model,
    stack_request_rows,
)

__all__ = ["RouterStats", "ScoringRouter"]


@dataclass
class RouterStats:
    """Lifetime counters of one :class:`ScoringRouter`."""

    requests: int = 0
    total_seconds: float = 0.0
    #: Rows executed per cache shard (shard id -> row count); the
    #: occupancy view the ops plane's ``/metrics`` endpoint exposes.
    shard_rows: dict[int, int] = field(default_factory=dict)

    @property
    def rows_per_second(self) -> float:
        """Lifetime request throughput (0 when idle)."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.requests / self.total_seconds


def _score_shard(payload, service: ScoringService):
    """One shard's slice of a micro-batch, scored on its own service."""
    rows, explain, codes = payload
    results = service.score_batch(
        [
            ScoreRequest(row=rows[i], explain=explain[i])
            for i in range(rows.shape[0])
        ],
        codes=codes,
    )
    return results, os.getpid(), service.cache_stats


class ScoringRouter:
    """Route request streams over N scoring workers.

    Parameters
    ----------
    model:
        A fitted estimator carrying its ``mapper_`` and bin thresholds
        (anything :class:`~repro.serve.service.ScoringService` accepts).
    version:
        Cache-namespace tag; defaults to the model's content
        fingerprint (same convention as ``ScoringService``).
    feature_names:
        Column names for attribution reports.
    n_jobs:
        Scoring workers: argument over ``REPRO_JOBS`` over serial.
        Results are bitwise-identical for every value.
    cache_size:
        Per-shard LRU capacity in rows (each worker owns one shard).
    top_k:
        Features per attribution report.
    task_deadline:
        Per-shard-task deadline in seconds (default: the pool's
        ``REPRO_TASK_DEADLINE`` convention).  A worker stuck past it is
        killed mid-batch, its slice recomputed in-process, and the slot
        respawned — answers stay bitwise identical either way.
    """

    def __init__(
        self,
        model,
        *,
        version: str | None = None,
        feature_names: Sequence[str] | None = None,
        n_jobs: int | None = None,
        cache_size: int = 4096,
        top_k: int = 5,
        task_deadline: float | None = None,
    ):
        n_jobs = resolve_jobs(n_jobs)  # a bad count fails before the build
        service = ScoringService(
            model,
            version=version,
            feature_names=feature_names,
            cache_size=cache_size,
            top_k=top_k,
        )
        self.version = service.version
        self.n_features = service.n_features
        self.feature_names = service.feature_names
        self._model = model  # parent-side binning for shard routing
        self._pool = ShardedPool(
            n_jobs=n_jobs, state=service, task_deadline=task_deadline
        )
        self._stats = RouterStats()
        self._shard_caches: dict[int, CacheStats] = {}
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        name: str,
        tag: str | None = None,
        **kwargs,
    ) -> "ScoringRouter":
        """Load ``name@tag`` (default latest) and wrap it in a router."""
        return cls(registry_model(registry, name, tag, kwargs), **kwargs)

    @property
    def workers(self) -> int:
        """Scoring worker count (1 = in-process serial path)."""
        return self._pool.workers

    @property
    def workers_alive(self) -> int:
        """Workers still executing remotely (degraded-capacity signal)."""
        return self._pool.workers_alive

    @property
    def workers_respawned(self) -> int:
        """Crashed workers the pool supervisor has respawned."""
        return self._pool.workers_respawned

    @property
    def deadline_kills(self) -> int:
        """Stuck workers killed past the per-task deadline."""
        return self._pool.deadline_kills

    # ------------------------------------------------------------------
    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Score one pre-coalesced micro-batch (drop-in for the service)."""
        if self._closed:
            raise RuntimeError("router is closed")
        batch = list(requests)
        if not batch:
            return []
        t0 = time.perf_counter()
        rows = stack_request_rows(batch, self.n_features)
        explain = tuple(bool(req.explain) for req in batch)
        if self._pool.workers <= 1:
            groups = [(0, np.arange(len(batch)))]
            codes = None
        else:
            # One quantization pass serves both the shard hash and the
            # workers' cache keys (codes ship in the payload, so a row
            # is never binned twice).
            codes = self._model.bin(rows)
            shards = np.fromiter(
                (
                    zlib.crc32(codes[i].tobytes()) % self._pool.workers
                    for i in range(len(batch))
                ),
                dtype=np.int64,
                count=len(batch),
            )
            groups = [
                (int(s), np.flatnonzero(shards == s))
                for s in np.unique(shards)
            ]
        tasks = [
            (
                shard,
                (
                    rows[idx],
                    tuple(explain[i] for i in idx),
                    None if codes is None else codes[idx],
                ),
            )
            for shard, idx in groups
        ]
        outcomes = self._pool.scatter(_score_shard, tasks)
        results: list[ScoreResult | None] = [None] * len(batch)
        for (shard, idx), (shard_results, pid, cache) in zip(groups, outcomes):
            for i, result in zip(idx, shard_results):
                results[i] = result
            self._shard_caches[pid] = cache
            self._stats.shard_rows[shard] = self._stats.shard_rows.get(
                shard, 0
            ) + len(idx)
        self._stats.requests += len(batch)
        self._stats.total_seconds += time.perf_counter() - t0
        return results

    def score_rows(self, X: np.ndarray, explain: bool = False) -> list[ScoreResult]:
        """Convenience wrapper: score a matrix as one micro-batch."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D input, got shape {X.shape}")
        return self.score_batch([ScoreRequest(row=row, explain=explain) for row in X])

    # ------------------------------------------------------------------
    @property
    def stats(self) -> RouterStats:
        """Lifetime router counters."""
        return self._stats

    @property
    def cache_stats(self) -> CacheStats:
        """Aggregated counters over every shard's result cache."""
        snapshots = list(self._shard_caches.values())
        return CacheStats(
            hits=sum(s.hits for s in snapshots),
            misses=sum(s.misses for s in snapshots),
            evictions=sum(s.evictions for s in snapshots),
            size=sum(s.size for s in snapshots),
            capacity=sum(s.capacity for s in snapshots),
        )

    def close(self) -> None:
        """Tear the pool down (idempotent).

        :meth:`score_batch` is synchronous, so no request is in flight
        here; the HTTP server's zero-drop shutdown drains its own queue
        before closing the router.  Only new work is rejected.
        """
        if not self._closed:
            self._closed = True
            self._pool.close()

    def __enter__(self) -> "ScoringRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
