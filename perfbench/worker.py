"""One workload in one fresh process.

``python -m perfbench.worker --mode setup|run|trace ...`` is started by
:mod:`perfbench.run` with ``PYTHONPATH=src`` and prints one JSON line:

* ``setup`` — set up (cohort, samples, fit/publish/load, warm-up) and
  report the time since ``--t0``, the parent's monotonic clock reading
  taken just before it spawned this process, raw and at the reference
  host speed;
* ``run`` — set up, then one untimed-checks segment: the end-to-end
  metrics;
* ``trace`` — set up under the tracer, one untraced segment, one traced
  segment: the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .hostspeed import Sampler
from .tracing import Tracer, wrapped_targets
from .workloads import WORKLOADS, Segment, Timing, Workload, segment_timing


def _percentiles_ms(latencies) -> tuple[float, float]:
    p50, p90 = np.percentile(latencies, [50, 90]) * 1e3
    return float(p50), float(p90)


def end_to_end(timing: Timing, peak_rss_mb: float) -> dict[str, float]:
    p50, p90 = _percentiles_ms(timing.latencies)
    return {
        "ops_per_s": timing.ops_per_s,
        "p50_ms": p50,
        "p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }


def timing_record(segment: Segment, timing: Timing) -> dict:
    """The raw (not rescaled) figures and the host slowness (metadata)."""
    raw_p50, raw_p90 = _percentiles_ms(timing.raw_latencies)
    slowness = np.asarray(segment.slowness)
    return {
        "ops": segment.ops,
        "segment_wall_s": segment.wall,
        "raw_ops_per_s": timing.raw_ops_per_s,
        "raw_p50_ms": raw_p50,
        "raw_p90_ms": raw_p90,
        "slowness_quartiles": list(np.percentile(slowness, [25, 50, 75])),
    }


def per_layer(
    setup: dict,
    spans: dict,
    traced: Segment,
    overhead: float,
) -> dict[str, float]:
    """Per-layer figures: set-up layers per set-up, the rest per timed op."""
    built = setup["seconds"].get
    total = spans["seconds"].get
    own = spans["self_seconds"].get
    calls = spans["calls"].get
    count = spans["counts"].get
    ops = traced.ops
    lookups = count("cache.hits", 0) + count("cache.misses", 0)
    grown = count("fit.trees_grown", 0)
    metrics = {
        "cohort.generate_s": built("cohort.generate", 0.0),
        "pipeline.samples_s": built("pipeline.dd", 0.0) + built("pipeline.kd", 0.0),
        "learning.protocol_self_s": own("learning.protocol", 0.0) / ops,
        "boosting.fit_self_s": own("boosting.fit", 0.0) / ops,
        "boosting.grow_s": total("boosting.grow", 0.0) / ops,
        "boosting.grow_calls": calls("boosting.grow", 0) / ops,
        "boosting.kept_tree_ratio": (
            count("fit.trees_kept", 0) / grown if grown else 0.0
        ),
        "boosting.tree_predict_s": total("boosting.tree_predict", 0.0) / ops,
        "boosting.bin_fit_s": total("boosting.bin_fit", 0.0) / ops,
        "boosting.bin_transform_s": total("boosting.bin_transform", 0.0) / ops,
        "boosting.dag_predict_s": total("boosting.dag_predict", 0.0) / ops,
        "explain.structure_s": built("explain.structure", 0.0),
        "explain.shap_s": total("explain.shap", 0.0) / ops,
        "explain.shap_rows": count("shap.rows", 0) / ops,
        "explain.report_s": total("explain.report", 0.0) / ops,
        "serve.registry_s": built("serve.publish", 0.0) + built("serve.load", 0.0),
        "serve.service_self_s": own("serve.score_batch", 0.0) / ops,
        "serve.cache_hit_ratio": count("cache.hits", 0) / lookups if lookups else 0.0,
        "serve.cache_evictions": count("cache.evictions", 0) / ops,
        "serve.dedup_share": (
            count("service.dedup", 0) / count("service.requests", 1)
        ),
        "trace.overhead": overhead,
        "trace.op_s": float(np.sum(traced.latencies)) / ops,
    }
    return metrics


def _setup(workload: Workload, t0: float) -> dict[str, float]:
    """Set up under the host-speed sampler.

    Returns the raw time since ``t0`` less the probes taken, and that
    time at the reference speed: divided by the mean slowness of a probe
    before, the sampler's probes during and a probe after the set-up.
    """
    with Sampler() as sampler:
        p0 = time.perf_counter()
        readings = [sampler.probe()]
        p1 = time.perf_counter()
        workload.setup()
        p2 = time.perf_counter()
        readings += [*sampler.readings, sampler.probe()]
        probing = (p1 - p0) + sum(sampler.durations) + (time.perf_counter() - p2)
    raw = time.monotonic() - t0 - probing
    slowness = sum(readings) / len(readings)
    return {"raw_s": raw, "slowness": slowness, "setup_s": raw / slowness}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--patients", type=int, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.patients, args.workdir)
    try:
        if args.mode == "setup":
            result = {"setup": _setup(workload, args.t0)}
        elif args.mode == "run":
            setup = _setup(workload, args.t0)
            segment = workload.run(args.seconds)
            timing = segment_timing(segment)
            result = {
                "setup": setup,
                "metrics": end_to_end(timing, workload.peak_rss_mb()),
                "attempted": segment.ops,
                "failed": segment.failed,
                "inputs": workload.inputs(),
                "timing": timing_record(segment, timing),
            }
        else:
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            setup_spans = tracer.snapshot()
            untraced = workload.run(args.seconds)
            traced, spans = workload.traced_run(tracer, args.seconds)
            leftover = wrapped_targets()
            if leftover:
                raise RuntimeError(f"wrappers survived the traced run: {leftover}")
            overhead = (
                segment_timing(traced).ops_per_s
                / segment_timing(untraced).ops_per_s
            )
            result = {
                "metrics": per_layer(
                    setup_spans,
                    spans,
                    traced,
                    overhead,
                ),
                "timing": timing_record(traced, segment_timing(traced)),
                "attempted": untraced.ops + traced.ops,
                "failed": untraced.failed + traced.failed,
                "inputs": {
                    **workload.inputs(),
                    "trees_grown_per_op": spans["calls"].get("boosting.grow", 0)
                    / traced.ops,
                },
            }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
