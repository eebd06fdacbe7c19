"""HTTP serving bench — a closed-loop load generator with a tail SLO.

The network edition of the serving benches: the paper-scale SPPB model
is published into a registry, the asyncio HTTP front end
(:class:`~repro.serve.server.ScoringServer`) serves it, and a
closed-loop load generator — N keep-alive clients, each posting its
next micro-batch the moment the previous response lands — drives it the
way `bobbydeveaux__starbucks-mugs`-style dashboards drive their REST
tier.  Closed-loop means offered load adapts to service rate, so the
measured percentiles are queueing-free lower bounds a saturating open
load would degrade from.

The bench *asserts* the tail SLO — p99 at or under
:data:`P99_SLO_MS` — so a latency regression fails CI; steady serving
latency is ``perfbench``'s business.
"""

import http.client
import json
import threading
import time

import numpy as np

from repro.serve import ModelRegistry, ScoringServer, ServerThread

#: Concurrent closed-loop clients.
CLIENTS = 4
#: Sequential posts per client.
POSTS_PER_CLIENT = 40
#: Rows per post (one micro-batch each, within the server's max_batch).
ROWS_PER_POST = 8
#: The asserted tail SLO, generous enough for a 1-CPU CI box.
P99_SLO_MS = 250.0


def _client(port, rows_wire, latencies, failures):
    connection = http.client.HTTPConnection("127.0.0.1", port)
    body = json.dumps({"rows": rows_wire})
    try:
        for _ in range(POSTS_PER_CLIENT):
            t0 = time.perf_counter()
            connection.request("POST", "/predict", body=body)
            response = connection.getresponse()
            payload = response.read()
            latencies.append(time.perf_counter() - t0)
            if response.status != 200:
                failures.append((response.status, payload[:200]))
                return
    finally:
        connection.close()


def test_serve_http_closed_loop_slo(ctx, tmp_path):
    samples = ctx.samples("sppb", "dd", with_fi=True)
    result = ctx.result("sppb", "dd", with_fi=True)
    rows = samples.X[result.test_idx][:ROWS_PER_POST]
    rows_wire = [
        [None if value != value else float(value) for value in row]
        for row in rows
    ]

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(
        "sppb",
        result.model,
        metadata={"features": list(samples.feature_names)},
    )
    server = ScoringServer(
        registry,
        "sppb",
        jobs=1,
        poll_interval=0,
    )
    with ServerThread(server) as handle:
        per_client = [[] for _ in range(CLIENTS)]
        failures: list = []
        threads = [
            threading.Thread(
                target=_client,
                args=(handle.port, rows_wire, per_client[i], failures),
            )
            for i in range(CLIENTS)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - t0
        metrics_connection = http.client.HTTPConnection(
            "127.0.0.1", handle.port
        )
        metrics_connection.request("GET", "/metrics")
        metrics = json.loads(metrics_connection.getresponse().read())
        metrics_connection.close()

    assert not failures, failures
    latencies = [latency for client in per_client for latency in client]
    posts = CLIENTS * POSTS_PER_CLIENT
    assert len(latencies) == posts
    assert metrics["requests"]["posts"] == posts
    assert metrics["requests"]["rows"] == posts * ROWS_PER_POST
    # Every client resends the same micro-batch: after the first, the
    # exact cache answers — the repeated-cohort regime the cache targets.
    assert metrics["cache"]["hit_rate"] > 0.9

    p50, p95, p99 = np.percentile(np.asarray(latencies) * 1e3, [50, 95, 99])
    assert p99 <= P99_SLO_MS, (
        f"p99 {p99:.2f} ms blew the {P99_SLO_MS:.0f} ms SLO "
        f"(p50 {p50:.2f} ms, p95 {p95:.2f} ms, {elapsed:.3f}s for "
        f"{posts} posts)"
    )
