"""ScoringServer under chaos: degraded windows, swaps, and clean stops.

Three server-level recovery contracts:

* **Worker loss is invisible in the answers.**  A kill schedule against
  the TreeSHAP pool changes no response byte, ``cached`` flags
  included; ``/healthz`` reports the degraded window and ``/metrics``
  counts the respawn.
* **A torn publish never reaches traffic.**  The watcher quarantines
  the half-published version (``half_published`` counter), keeps
  serving the complete one, and swaps only when a complete version
  lands; no response ever mixes versions.
* **Shutdown leaks nothing.**  A hot-swap service still in flight on the
  builder when ``stop()`` begins is closed — never dropped with its
  worker processes alive (the staged-leak regression).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.boosting import GBConfig, GBRegressor
from repro.faults import InjectedFault, fault_plan
from repro.serve import ModelRegistry, ScoringServer, ServerThread

FEATURES = [f"f{i}" for i in range(6)]


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(120, 6))
    X[rng.random(X.shape) < 0.1] = np.nan
    y = 2 * np.nan_to_num(X[:, 0]) - np.nan_to_num(X[:, 3]) + rng.normal(
        0, 0.1, 120
    )
    return X, y


@pytest.fixture(scope="module")
def models(cohort):
    X, y = cohort
    first = GBRegressor(GBConfig(n_estimators=8, max_depth=3)).fit(X, y)
    second = GBRegressor(GBConfig(n_estimators=9, max_depth=3)).fit(X, y)
    return first, second


def _registry(tmp_path, model) -> ModelRegistry:
    registry = ModelRegistry(tmp_path)
    registry.publish("m", model, metadata={"features": FEATURES})
    return registry


def _wire_rows(X):
    return [
        [None if np.isnan(value) else float(value) for value in row]
        for row in X
    ]


def _request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _values(document) -> list[tuple]:
    """Response values without the ``cached`` flag (cold vs hot posts)."""
    return [
        (r["raw_score"], r["prediction"], r["probability"])
        for r in document["results"]
    ]


class TestWorkerLossUnderLoad:
    def test_degraded_window_then_respawn_bitwise(
        self, tmp_path, cohort, models
    ):
        X, _ = cohort
        rows = _wire_rows(X[:16])
        registry = _registry(tmp_path, models[0])

        # Reference run: same registry, fresh server, no faults; the
        # second post answers from the cache.
        with ServerThread(ScoringServer(registry, "m", jobs=2)) as handle:
            status, reference = _request(
                handle.port, "POST", "/explain", {"rows": rows}
            )
            assert status == 200
            status, reference_hot = _request(
                handle.port, "POST", "/explain", {"rows": rows}
            )
            assert status == 200

        server = ScoringServer(registry, "m", jobs=2)
        with ServerThread(server) as handle:
            if server.workers != 2:
                pytest.skip("process backend unavailable")
            with fault_plan("kill@shard.send:w=0:n=0"):
                status, degraded = _request(
                    handle.port, "POST", "/explain", {"rows": rows}
                )
            assert status == 200
            assert degraded == reference

            # The degraded window: the slot is down until the next
            # batch lets the supervisor respawn it.
            _status, health = _request(handle.port, "GET", "/healthz")
            assert health["status"] == "degraded"
            assert health["ready"] is True and health["live"] is True
            assert health["workers"] == 2 and health["workers_alive"] == 1

            deadline = time.perf_counter() + 8.0
            while time.perf_counter() < deadline:
                status, again = _request(
                    handle.port, "POST", "/explain", {"rows": rows}
                )
                assert status == 200
                assert again == reference_hot
                _status, health = _request(handle.port, "GET", "/healthz")
                if health["status"] == "ok":
                    break
                time.sleep(0.1)
            assert health["status"] == "ok"
            assert health["workers_alive"] == 2

            _status, metrics = _request(handle.port, "GET", "/metrics")
            assert metrics["recovery"]["workers_respawned"] == 1
            assert metrics["recovery"]["deadline_kills"] == 0
            assert metrics["shards"]["workers_alive"] == 2


class TestTornPublishAtTheEdge:
    def test_torn_publish_never_serves_mixed_versions(
        self, tmp_path, cohort, models
    ):
        X, _ = cohort
        rows = _wire_rows(X[:8])
        registry = _registry(tmp_path, models[0])
        v1_ref = f"m@{registry.resolve('m')}"

        server = ScoringServer(registry, "m", jobs=2, poll_interval=0.05)
        with ServerThread(server) as handle:
            status, before = _request(
                handle.port, "POST", "/predict", {"rows": rows}
            )
            assert status == 200 and before["version"] == v1_ref

            # The publish tears between model.json and meta.json.
            with fault_plan("tear@registry.publish"):
                with pytest.raises(InjectedFault):
                    registry.publish(
                        "m", models[1], metadata={"features": FEATURES}
                    )

            # Give the watcher a few polls: it must quarantine, not
            # swap, not crash, and keep serving the complete version.
            deadline = time.perf_counter() + 8.0
            half_published = 0
            while time.perf_counter() < deadline:
                _status, metrics = _request(handle.port, "GET", "/metrics")
                half_published = metrics["recovery"]["half_published"]
                if half_published:
                    break
                time.sleep(0.05)
            assert half_published == 1
            assert metrics["model"]["version"] == v1_ref
            assert metrics["model"]["swaps"] == 0
            status, during = _request(
                handle.port, "POST", "/predict", {"rows": rows}
            )
            assert status == 200 and during["version"] == v1_ref
            assert _values(during) == _values(before)

            # A complete publish of the same model heals the torn dir
            # and the watcher swaps to it.
            v2 = registry.publish(
                "m", models[1], metadata={"features": FEATURES}
            )
            v2_ref = f"m@{v2.tag}"
            deadline = time.perf_counter() + 30.0
            after = None
            while time.perf_counter() < deadline:
                status, after = _request(
                    handle.port, "POST", "/predict", {"rows": rows}
                )
                assert status == 200
                assert after["version"] in (v1_ref, v2_ref)  # never mixed
                if after["version"] == v2_ref:
                    break
                time.sleep(0.05)
            assert after is not None and after["version"] == v2_ref

            _status, metrics = _request(handle.port, "GET", "/metrics")
            assert metrics["model"]["swaps"] == 1
            assert metrics["recovery"]["half_published"] == 1
            assert registry.quarantined("m") == []


class _GatedBuildServer(ScoringServer):
    """Build of replacement services blocks until the test opens the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.build_started = threading.Event()
        self.built_services = []
        self.built_procs = []

    def _build_service(self, tag):
        replacement = self._service is not None
        if replacement:
            self.build_started.set()
            assert self.gate.wait(timeout=60), "gate never opened"
        service = super()._build_service(tag)
        if replacement:
            self.built_services.append(service)
            self.built_procs.extend(service._pool._procs)
        return service


class TestStagedServiceLeak:
    def test_stop_closes_service_still_in_flight_on_builder(
        self, tmp_path, models
    ):
        """The satellite regression: stop() during a background build.

        Before the fix, a service built by the watcher but never applied
        could be dropped on shutdown with its worker pool alive.  Now
        the build lands in the staged slot (or is closed builder-side
        once the slot is sealed) and the stop sweep closes it — every
        built service ends closed, every worker process gone.
        """
        registry = _registry(tmp_path, models[0])
        server = _GatedBuildServer(
            registry, "m", jobs=2, poll_interval=0.05
        )
        handle = ServerThread(server)
        handle.start()
        try:
            registry.publish("m", models[1], metadata={"features": FEATURES})
            assert server.build_started.wait(timeout=30), "watcher never built"
            # Stop while the build is still in flight on the builder.
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            time.sleep(0.3)  # let stop() reach the builder shutdown
            server.gate.set()
            stopper.join(timeout=60)
            assert not stopper.is_alive(), "stop() wedged on the builder"
        finally:
            server.gate.set()
            handle.stop()
        assert server.built_services, "expected a replacement build"
        assert all(service._closed for service in server.built_services)
        # Staged after the drain began: swept closed, never applied.
        assert server.stats.swaps == 0
        assert server.built_procs, "expected the build to start workers"
        assert not any(proc.is_alive() for proc in server.built_procs)
