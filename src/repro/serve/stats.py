"""Server-side observability: latency window, counters, /metrics payload.

The ops plane measures three things about the HTTP front end
(:mod:`repro.serve.server`):

* **Tail latency** — :class:`LatencyWindow` keeps the last N per-request
  wall times in a fixed ring buffer and summarises them as p50/p95/p99
  milliseconds.
* **Lifetime counters** — :class:`ServerStats` counts what the server
  did (posts answered, rows scored, micro-batches formed, rejections,
  errors, hot swaps).
* **The wire document** — :func:`metrics_payload` assembles both, plus
  the router/cache/admission views, into one JSON document (``name`` /
  ``seconds`` / ``speedup`` / ``config`` / ``latency_ms`` + serving
  extras).

None of this reads the wall clock: every duration is a difference of
the server's injected monotonic clock (REP002 holds in this module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyWindow", "ServerStats", "metrics_payload"]


class LatencyWindow:
    """Fixed-capacity ring buffer of per-request latencies (seconds).

    Old observations fall out as new ones arrive, so the percentiles
    describe *recent* traffic rather than the whole process lifetime —
    the view an operator watching ``/metrics`` wants during a load
    shift or a hot swap.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer = np.zeros(capacity, dtype=np.float64)
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def observe(self, seconds: float) -> None:
        """Record one request's wall time."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self._buffer[self._next] = seconds
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def percentiles(self) -> dict[str, float]:
        """p50/p95/p99 milliseconds over the window (zeros when empty).

        Linear-interpolated percentiles (``np.percentile``) of the
        sample, scaled to milliseconds.
        """
        if self._count == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        lat = self._buffer[: self._count] * 1e3
        p50, p95, p99 = np.percentile(lat, [50, 95, 99])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass
class ServerStats:
    """Lifetime counters of one :class:`~repro.serve.server.ScoringServer`."""

    #: Scoring POSTs answered with a 200 (each may carry many rows).
    posts: int = 0
    #: Rows scored across all answered posts.
    rows: int = 0
    #: Micro-batches the flusher executed.
    micro_batches: int = 0
    #: POSTs refused with 413 (more rows than one micro-batch holds).
    oversized: int = 0
    #: POSTs that failed with a 500 during scoring.
    errors: int = 0
    #: Hot model swaps applied.
    swaps: int = 0

    def throughput_rps(self, uptime_seconds: float) -> float:
        """Lifetime rows/second over the server's uptime (0 when idle)."""
        if uptime_seconds <= 0:
            return 0.0
        return self.rows / uptime_seconds


def metrics_payload(
    *,
    seconds: float,
    config: dict,
    latency_ms: dict[str, float],
    throughput_rps: float,
    queue_depth: int,
    queue_rows: int,
    max_queue: int,
    rejected: int,
    stats: ServerStats,
    shard_rows: dict[int, int],
    workers: int,
    workers_alive: int,
    cache_hits: int,
    cache_misses: int,
    cache_hit_rate: float,
    version: str,
    workers_respawned: int = 0,
    deadline_kills: int = 0,
    half_published: int = 0,
) -> dict:
    """Build one ``GET /metrics`` document.

    The top level carries ``name`` (always ``"serve_http"``),
    ``seconds`` (uptime), ``speedup`` (always None for a live server),
    ``config`` and ``latency_ms`` with p50/p95/p99 milliseconds, then
    the serving sections: ``throughput_rps``,
    ``queue`` (admission depth/bound/rejections), ``requests`` (post,
    row, batch and error counters), ``shards`` (per-cache-shard row
    occupancy and live worker count), ``cache`` (hit statistics),
    ``model`` (served version + applied hot swaps) and ``recovery``
    (self-healing counters: workers respawned, stuck-worker deadline
    kills, torn publishes quarantined).  ``docs/formats.md`` is the
    normative reference for the fields.
    """
    return {
        "name": "serve_http",
        "seconds": round(float(seconds), 4),
        "speedup": None,
        "config": dict(config),
        "latency_ms": {
            key: round(float(value), 3)
            for key, value in sorted(latency_ms.items())
        },
        "throughput_rps": round(float(throughput_rps), 3),
        "queue": {
            "depth": int(queue_depth),
            "rows": int(queue_rows),
            "max": int(max_queue),
            "rejected": int(rejected),
        },
        "requests": {
            "posts": int(stats.posts),
            "rows": int(stats.rows),
            "micro_batches": int(stats.micro_batches),
            "oversized": int(stats.oversized),
            "errors": int(stats.errors),
        },
        "shards": {
            "workers": int(workers),
            "workers_alive": int(workers_alive),
            "rows": {
                str(shard): int(count)
                for shard, count in sorted(shard_rows.items())
            },
        },
        "cache": {
            "hits": int(cache_hits),
            "misses": int(cache_misses),
            "hit_rate": round(float(cache_hit_rate), 4),
        },
        "model": {
            "version": version,
            "swaps": int(stats.swaps),
        },
        "recovery": {
            "workers_respawned": int(workers_respawned),
            "deadline_kills": int(deadline_kills),
            "half_published": int(half_published),
        },
    }
