"""Serving bench — repeated-cohort scoring through ``repro.serve``.

The serving workload the ROADMAP targets: a fitted model answers a
stream of per-visit requests (predict + top-5 attribution report), where
the same patients recur across visits.  The naive path — what a caller
would write without the serve subsystem — issues one ``predict`` and one
``shap_values`` per request against single-row matrices; the service
micro-batches requests into single engine calls and serves recurring
rows from the exact (bin-code-keyed) result cache.

The acceptance target is a >= 5x throughput win for repeated-cohort
traffic; in practice micro-batching alone clears it and the cache adds
an order of magnitude on top.  The multi-worker bench routes the same
workload through the :class:`~repro.serve.router.ScoringRouter` at
``REPRO_JOBS=4`` — asserting bitwise-identical answers always, and a
>= 2x throughput win over the single-process service above 2 cores.
Steady serving throughput and latency are ``perfbench``'s
``serve_cold`` and ``serve_hot`` workloads.
"""

import os
import time

from repro.explain import TreeShapExplainer, local_reports
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringRouter,
    ScoringService,
)

#: Visits per patient in the request stream (each distinct row recurs).
REVISITS = 4
#: Requests per service micro-batch (a realistic queue drain size).
MICRO_BATCH = 64


def _naive_pass(model, explainer, stream, feature_names):
    """Per-request scoring: one predict + one explain call per visit."""
    out = []
    for row in stream:
        prediction = model.predict(row[None, :])[0]
        phi = explainer.shap_values(row[None, :])
        report = local_reports(
            phi, row[None, :], feature_names, explainer.expected_value
        )[0]
        out.append((prediction, report))
    return out


def _service_pass(target, stream):
    """Micro-batched scoring of a stream (service or router front)."""
    out = []
    for start in range(0, len(stream), MICRO_BATCH):
        block = stream[start : start + MICRO_BATCH]
        out.extend(
            target.score_batch(
                [ScoreRequest(row=row, explain=True) for row in block]
            )
        )
    return out


def test_serve_repeated_cohort_throughput(ctx, tmp_path):
    samples = ctx.samples("sppb", "dd", with_fi=True)
    result = ctx.result("sppb", "dd", with_fi=True)
    feature_names = list(samples.feature_names)

    # The recurring cohort: held-out patients visiting REVISITS times.
    cohort_rows = samples.X[result.test_idx]
    stream = [row for _ in range(REVISITS) for row in cohort_rows]

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("sppb", result.model, metadata={"features": feature_names})
    service = ScoringService.from_registry(registry, "sppb")
    naive_explainer = TreeShapExplainer(result.model)

    t0 = time.perf_counter()
    served = _service_pass(service, stream)
    t_service = time.perf_counter() - t0

    # The per-request path is slow enough that (like the Fig. 6 bench)
    # it is timed on a one-visit slice and compared per request.
    n_naive = len(cohort_rows)
    t0 = time.perf_counter()
    naive = _naive_pass(
        result.model, naive_explainer, stream[:n_naive], feature_names
    )
    t_naive = time.perf_counter() - t0

    # Same answers, bitwise: the engine is row-deterministic (PR 5), so
    # even the naive path's 1-row SHAP calls produce exactly the values
    # the service's 64-row micro-batches cached.
    assert len(served) == len(stream)
    for got, (p_naive, e_naive) in zip(served, naive):
        assert got.prediction == p_naive
        assert got.explanation.features == e_naive.features
        assert got.explanation.contributions == e_naive.contributions

    n = len(stream)
    speedup = (t_naive / n_naive) / (t_service / n)
    assert speedup >= 5.0, (
        f"per-request speedup {speedup:.1f}x < 5x: naive {t_naive:.3f}s "
        f"for {n_naive} requests, service {t_service:.3f}s for {n}"
    )


def test_serve_cache_hot_latency(ctx):
    """A fully warmed cache answers a whole cohort in near-zero time."""
    samples = ctx.samples("sppb", "dd", with_fi=True)
    result = ctx.result("sppb", "dd", with_fi=True)
    rows = samples.X[result.test_idx]

    service = ScoringService(
        result.model, feature_names=list(samples.feature_names)
    )
    service.score_rows(rows, explain=True)  # warm
    stream = [row for row in rows]
    t0 = time.perf_counter()
    results = _service_pass(service, stream)
    t_hot = time.perf_counter() - t0

    assert len(results) == rows.shape[0]
    assert all(r.cached for r in results)
    cold = service.stats.total_seconds - t_hot
    # The hot pass must be dramatically cheaper than the cold pass.
    assert t_hot < cold, (
        f"hot pass {t_hot * 1e3:.1f} ms not below cold {cold * 1e3:.1f} ms"
    )


def test_serve_multiworker_throughput(ctx):
    """4 router workers vs the single-process service.

    Equivalence is asserted unconditionally (every answer bitwise
    identical, cache-cold and cache-hot); the >= 2x throughput floor
    only above 2 cores, where 4 workers can actually run concurrently.
    """
    samples = ctx.samples("sppb", "dd", with_fi=True)
    result = ctx.result("sppb", "dd", with_fi=True)
    feature_names = list(samples.feature_names)
    cohort_rows = samples.X[result.test_idx]
    stream = [row for _ in range(REVISITS) for row in cohort_rows]

    service = ScoringService(result.model, feature_names=feature_names)
    t0 = time.perf_counter()
    single = _service_pass(service, stream)
    t_single = time.perf_counter() - t0

    jobs = 4
    with ScoringRouter(
        result.model,
        feature_names=feature_names,
        n_jobs=jobs,
        version=service.version,
    ) as router:
        t0 = time.perf_counter()
        routed = _service_pass(router, stream)
        t_router = time.perf_counter() - t0

    # Bitwise identity with the single-process service on the same
    # request stream: raw scores, predictions, cache hits, and every
    # attribution report field (the engine is row-deterministic, the
    # shard caches are exact).
    assert len(routed) == len(single)
    for got, want in zip(routed, single):
        assert got.raw_score == want.raw_score
        assert got.prediction == want.prediction
        assert got.cached == want.cached
        assert got.explanation.features == want.explanation.features
        assert (
            got.explanation.contributions == want.explanation.contributions
        )

    speedup = t_single / t_router
    if (os.cpu_count() or 1) > 2:
        assert speedup >= 2.0, (
            f"speedup {speedup:.2f}x < 2x: single process {t_single:.3f}s, "
            f"router x{router.workers} {t_router:.3f}s on "
            f"{os.cpu_count()} CPUs"
        )
