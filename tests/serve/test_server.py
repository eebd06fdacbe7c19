"""Tests for the asyncio HTTP front end (repro.serve.server).

The load-bearing contract is the HTTP edition of the router's: every
response is **bitwise identical** to the in-process ``ScoringService``
on the same request stream — cache-cold and cache-hot, at every worker
count — because JSON round-trips every finite float64 exactly.  On top
of that: hot model swaps drop zero requests and never mix versions
within a response, saturation answers 429 with a ``Retry-After``, and a
SIGTERM-style ``stop()`` answers everything already admitted.
"""

import gc
import http.client
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.boosting import GBClassifier, GBRegressor
from repro.faults import faults_active
from repro.parallel import executor
from repro.parallel.executor import MAX_JOBS, resolve_jobs
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringRouter,
    ScoringServer,
    ScoringService,
    ServerThread,
    result_to_wire,
)
from repro.serve import router as router_module

FEATURES = [f"f{i}" for i in range(6)]


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 6))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, 3]) + rng.normal(
        0, 0.1, 300
    )
    return X, y


@pytest.fixture(scope="module")
def registry(cohort, tmp_path_factory):
    """A registry holding one published regressor and one classifier."""
    X, y = cohort
    root = tmp_path_factory.mktemp("registry")
    registry = ModelRegistry(root)
    registry.publish(
        "reg",
        GBRegressor(n_estimators=15, max_depth=3).fit(X, y),
        metadata={"features": FEATURES},
    )
    registry.publish(
        "clf",
        GBClassifier(n_estimators=10, max_depth=2).fit(
            np.nan_to_num(X), (y > 0).astype(float)
        ),
        metadata={"features": FEATURES},
    )
    return registry


def _wire_rows(X):
    """Rows as their JSON wire form (NaN -> null)."""
    return [
        [None if np.isnan(value) else float(value) for value in row]
        for row in X
    ]


def _request(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    headers = {k.lower(): v for k, v in response.getheaders()}
    return response.status, headers, json.loads(response.read())


def _reference_wire(service, X, explain=False, batch=8):
    """What the wire must carry: the service's answers, wire-encoded."""
    out = []
    for lo in range(0, X.shape[0], batch):
        block = X[lo : lo + batch]
        results = service.score_batch(
            [
                ScoreRequest(row=block[i], explain=explain)
                for i in range(block.shape[0])
            ]
        )
        out.extend(result_to_wire(r) for r in results)
    return out


def _wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _queued_rows(port):
    """Rows admitted and waiting in the server's queue (``/metrics``)."""
    conn = http.client.HTTPConnection("127.0.0.1", port)
    _status, _headers, metrics = _request(conn, "GET", "/metrics")
    conn.close()
    return metrics["queue"]["rows"]


@pytest.fixture()
def held_scorer(monkeypatch):
    """Hold every router ``score_batch`` call until ``release`` is set.

    Each call records its batch size in rows before it waits, so a test
    sees what the flusher popped while it stages posts behind the hold.
    """
    release = threading.Event()
    batches: list[int] = []
    score_batch = ScoringRouter.score_batch

    def held(router, requests):
        batches.append(len(requests))
        release.wait(timeout=30)
        return score_batch(router, requests)

    monkeypatch.setattr(ScoringRouter, "score_batch", held)
    yield release, batches
    release.set()


def _assert_wire_equal(got, expected):
    """Bitwise wire equality — modulo cache bookkeeping under chaos.

    Under an active fault plan (the CI chaos matrix), a respawned shard
    starts cache-cold, so the ``cached`` flag may legitimately diverge;
    every value must still match exactly.
    """
    if faults_active():
        got = [{k: v for k, v in r.items() if k != "cached"} for r in got]
        expected = [
            {k: v for k, v in r.items() if k != "cached"} for r in expected
        ]
    assert got == expected


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_bitwise_equal_to_service_cold_and_hot(
        self, registry, cohort, jobs
    ):
        X, _y = cohort
        # Two passes over the same cohort: pass one is cache-cold, pass
        # two is cache-hot; sequential posts make each POST one
        # micro-batch, so the reference batches the same way.
        cohort_rows = np.concatenate([X[:40], X[:40]])
        service = ScoringService.from_registry(registry, "reg")
        expected = _reference_wire(service, cohort_rows, explain=False)
        expected += _reference_wire(service, cohort_rows[:16], explain=True)
        server = ScoringServer(
            registry, "reg", jobs=jobs, poll_interval=0
        )
        got = []
        with ServerThread(server) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            for lo in range(0, cohort_rows.shape[0], 8):
                status, _headers, doc = _request(
                    conn,
                    "POST",
                    "/predict",
                    {"rows": _wire_rows(cohort_rows[lo : lo + 8])},
                )
                assert status == 200
                got.extend(doc["results"])
            for lo in range(0, 16, 8):
                status, _headers, doc = _request(
                    conn,
                    "POST",
                    "/explain",
                    {"rows": _wire_rows(cohort_rows[lo : lo + 8])},
                )
                assert status == 200
                got.extend(doc["results"])
            conn.close()
        # Wire documents compare exactly: JSON float round-tripping is
        # bitwise, and even the cached flags coincide (modulo chaos).
        _assert_wire_equal(got, expected)

    def test_classifier_probability_on_the_wire(self, registry, cohort):
        X, _y = cohort
        rows = np.nan_to_num(X[:10])
        service = ScoringService.from_registry(registry, "clf")
        expected = _reference_wire(service, rows, batch=10)
        server = ScoringServer(
            registry, "clf", jobs=1, poll_interval=0
        )
        with ServerThread(server) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            status, _headers, doc = _request(
                conn, "POST", "/predict", {"rows": _wire_rows(rows)}
            )
            conn.close()
        assert status == 200
        _assert_wire_equal(doc["results"], expected)
        assert all(r["probability"] is not None for r in doc["results"])

    def test_single_row_sugar(self, registry, cohort):
        X, _y = cohort
        service = ScoringService.from_registry(registry, "reg")
        expected = _reference_wire(service, X[:1], explain=True, batch=1)
        server = ScoringServer(
            registry, "reg", jobs=1, poll_interval=0
        )
        with ServerThread(server) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            status, _headers, doc = _request(
                conn, "POST", "/explain", {"row": _wire_rows(X[:1])[0]}
            )
            conn.close()
        assert status == 200
        _assert_wire_equal(doc["results"], expected)


class TestHotSwap:
    def test_swap_drops_nothing_and_never_mixes_versions(
        self, cohort, tmp_path
    ):
        X, y = cohort
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(
            "m", GBRegressor(n_estimators=8, max_depth=2).fit(X, y)
        ).ref
        server = ScoringServer(
            registry,
            "m",
            jobs=1,
            poll_interval=0.05,
        )
        rows = _wire_rows(X[:4])
        with ServerThread(server) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            status, _headers, doc = _request(
                conn, "POST", "/predict", {"rows": rows}
            )
            assert status == 200 and doc["version"] == v1
            v2 = registry.publish(
                "m", GBRegressor(n_estimators=12, max_depth=3).fit(X, y)
            ).ref
            assert v2 != v1
            versions = []
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, _headers, doc = _request(
                    conn, "POST", "/predict", {"rows": rows}
                )
                # Zero drops: every post during the swap is answered.
                assert status == 200
                versions.append(doc["version"])
                if doc["version"] == v2:
                    break
                time.sleep(0.02)
            assert versions[-1] == v2, "hot swap never happened"
            # Monotone: v1 answers, then v2 answers, never interleaved.
            first_v2 = versions.index(v2)
            assert all(v == v1 for v in versions[:first_v2])
            assert all(v == v2 for v in versions[first_v2:])
            # Post-swap answers are bitwise the new version's.  The
            # server already scored these rows on v2 at least once, so
            # warm the reference cache the same way before comparing.
            service = ScoringService.from_registry(
                registry, "m", v2.split("@", 1)[1]
            )
            _reference_wire(service, X[:4], batch=4)
            expected = _reference_wire(service, X[:4], batch=4)
            status, _headers, doc = _request(
                conn, "POST", "/predict", {"rows": rows}
            )
            _assert_wire_equal(doc["results"], expected)
            conn.close()
        assert server.stats.swaps == 1
        assert server.stats.errors == 0

    def test_idle_server_applies_staged_swap(self, cohort, tmp_path):
        X, y = cohort
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(
            "m", GBRegressor(n_estimators=8, max_depth=2).fit(X, y)
        )
        server = ScoringServer(registry, "m", jobs=1, poll_interval=0.05)
        with ServerThread(server) as handle:
            v2 = registry.publish(
                "m", GBRegressor(n_estimators=12, max_depth=3).fit(X, y)
            ).ref
            # No post is in flight: the watcher's wake-up alone must make
            # the flusher apply the staged router.
            assert _wait_until(lambda: server.stats.swaps == 1, timeout=30)
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            status, _headers, doc = _request(conn, "GET", "/healthz")
            conn.close()
        assert status == 200 and doc["version"] == v2
        assert server.stats.posts == 0

    def test_pinned_tag_never_swaps(self, cohort, tmp_path):
        X, y = cohort
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(
            "m", GBRegressor(n_estimators=8, max_depth=2).fit(X, y)
        ).ref
        tag = v1.split("@", 1)[1]
        server = ScoringServer(
            registry, "m", tag=tag, jobs=1, poll_interval=0.05
        )
        with ServerThread(server) as handle:
            registry.publish(
                "m", GBRegressor(n_estimators=12, max_depth=3).fit(X, y)
            )
            time.sleep(0.3)
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            status, _headers, doc = _request(
                conn, "POST", "/predict", {"rows": _wire_rows(X[:2])}
            )
            conn.close()
        assert status == 200 and doc["version"] == v1
        assert server.stats.swaps == 0


class TestBackpressureAndShutdown:
    def test_429_with_retry_after_then_drain_answers_admitted(
        self, registry, cohort, held_scorer
    ):
        X, _y = cohort
        release, batches = held_scorer
        # A one-row post holds the scorer, so the next post's rows stay
        # queued and the bound is observable; max_queue=3 saturates once
        # both are admitted.
        server = ScoringServer(
            registry,
            "reg",
            jobs=1,
            max_queue=3,
            poll_interval=0,
        )
        service = ScoringService.from_registry(registry, "reg")
        expected_plug = _reference_wire(service, X[3:4], batch=1)
        expected = _reference_wire(service, X[:2], batch=2)
        answers: dict = {}

        with ServerThread(server) as handle:

            def blocked_post(key, rows):
                conn = http.client.HTTPConnection("127.0.0.1", handle.port)
                status, _headers, doc = _request(
                    conn, "POST", "/predict", {"rows": _wire_rows(rows)}
                )
                answers[key] = (status, doc)
                conn.close()

            plug = threading.Thread(target=blocked_post, args=("plug", X[3:4]))
            plug.start()
            assert _wait_until(lambda: batches == [1]), "scorer never held"
            poster = threading.Thread(target=blocked_post, args=("post", X[:2]))
            poster.start()
            # Wait until those 2 rows are admitted and queued.
            deadline = time.monotonic() + 10
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            while time.monotonic() < deadline:
                _status, _headers, metrics = _request(conn, "GET", "/metrics")
                if metrics["queue"]["rows"] == 2:
                    break
                time.sleep(0.01)
            assert metrics["queue"]["rows"] == 2
            status, headers, doc = _request(
                conn, "POST", "/predict", {"rows": _wire_rows(X[2:3])}
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert doc["retry_after"] == int(headers["retry-after"])
            conn.close()
            # SIGTERM-style stop while the scorer is still held: the
            # context manager drains the queue once the hold lifts — the
            # admitted post completes, bitwise-correct.
            releaser = threading.Timer(0.2, release.set)
            releaser.start()
        for thread in (releaser, plug, poster):
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert answers["post"][0] == 200
        _assert_wire_equal(answers["post"][1]["results"], expected)
        assert answers["plug"][0] == 200
        _assert_wire_equal(answers["plug"][1]["results"], expected_plug)
        assert batches == [1, 2]
        assert server.stats.posts == 2
        assert server.stats.errors == 0

    def test_shutdown_drops_no_inflight_posts(
        self, registry, cohort, held_scorer
    ):
        X, _y = cohort
        release, batches = held_scorer
        server = ScoringServer(registry, "reg", jobs=1, poll_interval=0)
        outcomes = []
        lock = threading.Lock()

        with ServerThread(server) as handle:

            def post(lo):
                conn = http.client.HTTPConnection("127.0.0.1", handle.port)
                status, _headers, doc = _request(
                    conn,
                    "POST",
                    "/predict",
                    {"rows": _wire_rows(X[lo : lo + 4])},
                )
                with lock:
                    outcomes.append((status, len(doc.get("results", []))))
                conn.close()

            posters = [
                threading.Thread(target=post, args=(lo,))
                for lo in range(0, 12, 4)
            ]
            for t in posters:
                t.start()
            # Every post is admitted: the first batch holds the scorer
            # and the rest wait in the queue.
            assert _wait_until(
                lambda: len(batches) == 1
                and batches[0] + _queued_rows(handle.port) == 12
            ), "posts were never all admitted"
            # Exiting the context manager is the SIGTERM path: stop()
            # begins while the scorer is held and drains every admitted
            # post before teardown.
            releaser = threading.Timer(0.2, release.set)
            releaser.start()
        for t in [releaser, *posters]:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(outcomes) == 3
        assert all(status == 200 and n == 4 for status, n in outcomes)
        assert server.stats.posts == 3

    def test_posts_arriving_during_a_batch_form_one_next_batch(
        self, registry, cohort, held_scorer
    ):
        X, _y = cohort
        release, batches = held_scorer
        server = ScoringServer(registry, "reg", jobs=1, poll_interval=0)
        service = ScoringService.from_registry(registry, "reg")
        spans = [(0, 1), (1, 3), (3, 6), (6, 10)]
        expected = {
            lo: _reference_wire(service, X[lo:hi], batch=hi - lo)
            for lo, hi in spans
        }
        answers: dict = {}

        with ServerThread(server) as handle:

            def post(lo, hi):
                conn = http.client.HTTPConnection("127.0.0.1", handle.port)
                answers[lo] = _request(
                    conn, "POST", "/predict", {"rows": _wire_rows(X[lo:hi])}
                )
                conn.close()

            first = threading.Thread(target=post, args=spans[0])
            first.start()
            # An idle flusher scores the first post at once, alone.
            assert _wait_until(lambda: batches == [1]), "scorer never held"
            followers = [
                threading.Thread(target=post, args=span) for span in spans[1:]
            ]
            for t in followers:
                t.start()
            assert _wait_until(lambda: _queued_rows(handle.port) == 9)
            release.set()
            for t in [first, *followers]:
                t.join(timeout=30)
                assert not t.is_alive()
        # The three posts that queued behind the held batch form exactly
        # one next batch, of whole posts.
        assert batches == [1, 9]
        assert server.stats.micro_batches == 2
        for lo, _hi in spans:
            status, _headers, doc = answers[lo]
            assert status == 200
            _assert_wire_equal(doc["results"], expected[lo])

    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_worker_count_above_ceiling_fails_construction(
        self, registry, monkeypatch, source
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(router_module, "ShardedPool", no_pool)
        if source == "env":
            monkeypatch.setenv("REPRO_JOBS", str(MAX_JOBS + 1))
            with pytest.raises(ValueError, match="REPRO_JOBS must be <="):
                ScoringServer(registry, "reg", poll_interval=0)
        else:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
            with pytest.raises(ValueError, match="n_jobs must be <="):
                ScoringServer(
                    registry, "reg", jobs=MAX_JOBS + 1, poll_interval=0
                )

    def test_per_cpu_count_on_a_big_host(self, registry, monkeypatch):
        class RecordingPool:
            """Resolves its count like ShardedPool; starts nothing."""

            def __init__(self, *, n_jobs, **kwargs):
                self.workers = resolve_jobs(n_jobs)

            def close(self):
                pass

        monkeypatch.setattr(executor.os, "cpu_count", lambda: 2 * MAX_JOBS)
        monkeypatch.setattr(router_module, "ShardedPool", RecordingPool)
        server = ScoringServer(registry, "reg", jobs=0, poll_interval=0)
        # The router a start or a hot swap builds resolves the count again.
        router = server._build_router(None)
        router.close()
        assert router.workers == MAX_JOBS

    def test_post_after_stop_is_refused(self, registry, cohort):
        X, _y = cohort
        server = ScoringServer(
            registry, "reg", jobs=1, poll_interval=0
        )
        with ServerThread(server) as handle:
            port = handle.port
            conn = http.client.HTTPConnection("127.0.0.1", port)
            status, _headers, _doc = _request(
                conn, "POST", "/predict", {"rows": _wire_rows(X[:1])}
            )
            assert status == 200
            conn.close()
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection("127.0.0.1", port)
            conn.request("POST", "/predict", body="{}")
            conn.getresponse()


class TestProtocolErrors:
    @pytest.fixture(scope="class")
    def handle(self, registry):
        server = ScoringServer(
            registry,
            "reg",
            jobs=1,
            max_batch=8,
            poll_interval=0,
        )
        with ServerThread(server) as handle:
            yield handle

    @pytest.fixture()
    def conn(self, handle):
        conn = http.client.HTTPConnection("127.0.0.1", handle.port)
        yield conn
        conn.close()

    def test_healthz(self, conn):
        status, _headers, doc = _request(conn, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["version"].startswith("reg@")

    def test_unknown_path_is_404(self, conn):
        status, _headers, doc = _request(conn, "GET", "/nope")
        assert status == 404
        assert "error" in doc

    def test_wrong_method_is_405(self, conn):
        for method, path in [
            ("GET", "/predict"),
            ("GET", "/explain"),
            ("POST", "/metrics"),
            ("POST", "/healthz"),
        ]:
            status, _headers, doc = _request(conn, method, path)
            assert status == 405, (method, path)

    def test_malformed_bodies_are_400(self, conn):
        for payload in [
            ["not", "an", "object"],
            {},
            {"row": [1.0] * 6, "rows": [[1.0] * 6]},
            {"rows": [[1.0] * 5]},  # wrong width
            {"rows": [["x"] * 6]},  # non-numeric
            {"rows": [[True] * 6]},  # booleans are not numbers here
            {"rows": "nope"},
        ]:
            status, _headers, doc = _request(conn, "POST", "/predict", payload)
            assert status == 400, payload
            assert "error" in doc

    def test_bad_json_is_400(self, conn):
        conn.request("POST", "/predict", body="{not json")
        response = conn.getresponse()
        doc = json.loads(response.read())
        assert response.status == 400
        assert "error" in doc

    def test_oversized_post_is_413(self, conn, cohort):
        X, _y = cohort
        status, _headers, doc = _request(
            conn, "POST", "/predict", {"rows": _wire_rows(X[:9])}
        )
        assert status == 413
        assert "at most 8 rows" in doc["error"]

    def _assert_answers_and_closes(
        self, handle, conn, caplog, raw, status, error
    ):
        """Send ``raw`` on a fresh socket; expect ``status``, then EOF.

        The server must keep serving other connections, and asyncio
        must log nothing (no handler exception escaped).
        """
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as sock:
                sock.sendall(raw.encode("latin-1"))
                reply = b""
                while chunk := sock.recv(65536):  # the server hangs up
                    reply += chunk
            head, _sep, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert b"Connection: close" in head.split(b"\r\n")
            assert error in json.loads(body)["error"]
            got, _headers, doc = _request(
                conn, "POST", "/predict", {"rows": [[1.0] * 6]}
            )
            assert got == 200 and len(doc["results"]) == 1
            gc.collect()  # surface any never-retrieved handler exception
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize("length", ["abc", "1e3", "-5", "+4", "4 4"])
    def test_malformed_content_length_is_400_and_closes(
        self, handle, conn, length, caplog
    ):
        self._assert_answers_and_closes(
            handle,
            conn,
            caplog,
            "POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n",
            400,
            "Content-Length",
        )

    @pytest.mark.parametrize(
        "line", ["GARBAGE", "GET /healthz", "GET / HTTP/1.1 extra"]
    )
    def test_malformed_request_line_is_400_and_closes(
        self, handle, conn, line, caplog
    ):
        self._assert_answers_and_closes(
            handle, conn, caplog, f"{line}\r\n\r\n", 400, "request line"
        )

    def test_oversized_content_length_is_413_and_closes(
        self, handle, conn, caplog
    ):
        self._assert_answers_and_closes(
            handle,
            conn,
            caplog,
            "POST /predict HTTP/1.1\r\nHost: test\r\n"
            "Content-Length: 99999999999\r\n\r\n",
            413,
            "Content-Length 99999999999",
        )

    def test_oversized_header_block_is_431_and_closes(
        self, handle, conn, caplog
    ):
        # 70,000 header bytes overrun the stream reader's 64 KiB limit.
        self._assert_answers_and_closes(
            handle,
            conn,
            caplog,
            "GET /healthz HTTP/1.1\r\nHost: test\r\n"
            f"X-Big: {'a' * 70_000}\r\n\r\n",
            431,
            "header block",
        )

    def test_empty_rows_answer_empty(self, conn):
        status, _headers, doc = _request(
            conn, "POST", "/predict", {"rows": []}
        )
        assert status == 200
        assert doc["results"] == []


class TestMetrics:
    def test_metrics_schema_and_counters(self, registry, cohort):
        X, _y = cohort
        server = ScoringServer(
            registry, "reg", jobs=2, poll_interval=0
        )
        with ServerThread(server) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            for _pass in range(2):  # second pass is cache-hot
                for lo in range(0, 12, 4):
                    status, _headers, _doc = _request(
                        conn,
                        "POST",
                        "/predict",
                        {"rows": _wire_rows(X[lo : lo + 4])},
                    )
                    assert status == 200
            status, _headers, metrics = _request(conn, "GET", "/metrics")
            conn.close()
        assert status == 200
        # The top-level fields, plus the serving sections.
        assert metrics["name"] == "serve_http"
        assert metrics["seconds"] > 0
        assert metrics["speedup"] is None
        assert metrics["config"]["jobs"] == 2
        assert set(metrics["latency_ms"]) == {"p50", "p95", "p99"}
        assert (
            metrics["latency_ms"]["p50"]
            <= metrics["latency_ms"]["p95"]
            <= metrics["latency_ms"]["p99"]
        )
        assert metrics["throughput_rps"] > 0
        assert metrics["requests"]["posts"] == 6
        assert metrics["requests"]["rows"] == 24
        assert metrics["requests"]["micro_batches"] == 6
        assert metrics["requests"]["errors"] == 0
        assert metrics["queue"] == {
            "depth": 0,
            "rows": 0,
            "max": 256,
            "rejected": 0,
        }
        assert metrics["shards"]["workers"] == 2
        assert 1 <= metrics["shards"]["workers_alive"] <= 2
        assert sum(metrics["shards"]["rows"].values()) == 24
        # Pass two re-scored the pass-one working set: hits observed.
        assert metrics["cache"]["hits"] > 0
        assert 0 < metrics["cache"]["hit_rate"] < 1
        assert metrics["model"]["version"].startswith("reg@")
        assert metrics["model"]["swaps"] == 0
