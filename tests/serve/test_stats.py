"""Tests for the server observability pieces (repro.serve.stats)."""

import numpy as np
import pytest

from repro.serve.stats import LatencyWindow, ServerStats, metrics_payload


class TestLatencyWindow:
    def test_empty_window_reports_zeros(self):
        window = LatencyWindow(8)
        assert len(window) == 0
        assert window.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentiles_match_numpy_definition(self):
        window = LatencyWindow(64)
        sample = [0.001 * (i + 1) for i in range(20)]
        for value in sample:
            window.observe(value)
        lat_ms = np.asarray(sample) * 1e3
        p50, p95, p99 = np.percentile(lat_ms, [50, 95, 99])
        assert window.percentiles() == {
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }

    def test_ring_keeps_only_the_last_capacity_samples(self):
        window = LatencyWindow(4)
        for value in [10.0, 10.0, 10.0, 0.001, 0.002, 0.003, 0.004]:
            window.observe(value)
        assert len(window) == 4
        # The three 10-second outliers fell out of the window.
        assert window.percentiles()["p99"] < 10_000.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LatencyWindow(0)
        with pytest.raises(ValueError):
            LatencyWindow(8).observe(-1.0)


class TestServerStats:
    def test_throughput_is_rows_over_uptime(self):
        stats = ServerStats(rows=500)
        assert stats.throughput_rps(2.0) == 250.0
        assert stats.throughput_rps(0.0) == 0.0


class TestMetricsPayload:
    def _payload(self):
        return metrics_payload(
            seconds=12.34567,
            config={"jobs": 2, "max_batch": 64},
            latency_ms={"p50": 1.23456, "p95": 2.0, "p99": 3.0},
            throughput_rps=123.4567,
            queue_depth=1,
            queue_rows=4,
            max_queue=256,
            rejected=2,
            stats=ServerStats(posts=10, rows=40, micro_batches=7, swaps=1),
            workers=2,
            workers_alive=2,
            cache_hits=9,
            cache_misses=31,
            cache_hit_rate=9 / 40,
            version="m@abc",
        )

    def test_bench_json_entry_schema(self):
        """Top level: name, uptime, speedup, config, latency_ms."""
        payload = self._payload()
        assert payload["name"] == "serve_http"
        assert payload["seconds"] == 12.3457  # rounded to 4 places
        assert payload["speedup"] is None
        assert payload["config"] == {"jobs": 2, "max_batch": 64}
        assert payload["latency_ms"] == {"p50": 1.235, "p95": 2.0, "p99": 3.0}

    def test_serving_sections(self):
        payload = self._payload()
        assert payload["queue"] == {
            "depth": 1,
            "rows": 4,
            "max": 256,
            "rejected": 2,
        }
        assert payload["requests"]["posts"] == 10
        assert payload["requests"]["rows"] == 40
        assert payload["shards"] == {"workers": 2, "workers_alive": 2}
        assert payload["cache"] == {
            "hits": 9,
            "misses": 31,
            "hit_rate": 0.225,
        }
        assert payload["model"] == {"version": "m@abc", "swaps": 1}

    def test_json_serialisable(self):
        import json

        json.dumps(self._payload())
