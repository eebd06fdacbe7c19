"""Shared benchmark fixtures.

The benchmarks operate on the *paper-scale* cohort (261 patients) and
regenerate every table/figure of the evaluation section.  Each bench
renders its artefact into ``<results>/<exp>.txt`` so a bench run leaves a
complete paper-vs-measured record behind (consumed by EXPERIMENTS.md).
With ``REPRO_RECORD_RESULTS=1`` that directory is the committed
``results/`` (the CI benchmarks job sets it and uploads the files);
otherwise it is a per-session temporary directory, so running the test
suite leaves the committed artefacts alone.

Heavy experiment benches use ``benchmark.pedantic(..., rounds=1)``:
the quantity of interest is the artefact and a single wall-clock
measurement, not statistical timing of a 30-second training grid.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def ctx():
    """Paper-scale experiment context shared by all benches."""
    return ExperimentContext(seed=7, n_folds=3)


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Where benches write artefacts: ``results/`` only when recording."""
    if os.environ.get("REPRO_RECORD_RESULTS") != "1":
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def record(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered artefact (and echo it for -s runs)."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[saved to {path}]")


def latency_percentiles(latencies_s) -> dict[str, float]:
    """p50/p95/p99 (milliseconds) of a per-request latency sample."""
    import numpy as np

    lat = np.asarray(list(latencies_s), dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(lat, [50, 95, 99])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _lint_clean() -> bool:
    """Whether ``src/repro`` passes ``python -m repro lint`` right now.

    Run once per process and cached: a bench number recorded from a
    tree that violates the determinism contract (REP rules) is not
    comparable to one recorded from a clean tree, so every bench.json
    entry carries the verdict alongside its timing.
    """
    global _LINT_CLEAN
    if _LINT_CLEAN is None:
        from repro.analysis import run_lint

        _LINT_CLEAN = run_lint().clean
    return _LINT_CLEAN


_LINT_CLEAN: bool | None = None


def record_bench(
    results_dir: Path,
    name: str,
    seconds: float,
    *,
    speedup: float | None = None,
    config: dict | None = None,
    latency_ms: dict[str, float] | None = None,
    model_nodes: int | None = None,
    model_bytes: int | None = None,
    compression_ratio: float | None = None,
) -> None:
    """Update one machine-readable entry in ``results/bench.json``.

    Every bench records (name, wall seconds, speedup, config,
    lint_clean) next to its ``.txt`` render, keyed by name so re-runs
    update in place — the file is the BENCH_* perf trajectory CI
    uploads with the artefacts.  Serving benches additionally record
    tail latency: ``latency_ms`` carries p50/p95/p99 per-request
    milliseconds (see :func:`latency_percentiles`) so the trajectory
    captures the tail, not just throughput.  Model-size benches stamp
    the footprint next to the timing: ``model_nodes`` (source ensemble
    nodes), ``model_bytes`` (in-memory table bytes) and
    ``compression_ratio`` (source nodes per hash-consed DAG row).
    """
    path = results_dir / "bench.json"
    entries: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            loaded = None
        if isinstance(loaded, dict):
            entries = loaded
    entry = {
        "name": name,
        "seconds": round(float(seconds), 4),
        "speedup": None if speedup is None else round(float(speedup), 2),
        "config": config or {},
        "lint_clean": _lint_clean(),
    }
    if latency_ms is not None:
        entry["latency_ms"] = {
            key: round(float(value), 3) for key, value in latency_ms.items()
        }
    if model_nodes is not None:
        entry["model_nodes"] = int(model_nodes)
    if model_bytes is not None:
        entry["model_bytes"] = int(model_bytes)
    if compression_ratio is not None:
        entry["compression_ratio"] = round(float(compression_ratio), 3)
    entries[name] = entry
    path.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    tail = f" ({speedup:.1f}x)" if speedup is not None else ""
    if compression_ratio is not None:
        tail += f" compression={compression_ratio:.2f}x"
    if latency_ms is not None:
        tail += (
            f" p50={latency_ms['p50']:.2f}ms"
            f" p95={latency_ms['p95']:.2f}ms"
            f" p99={latency_ms['p99']:.2f}ms"
        )
    print(f"[bench.json] {name}: {seconds:.3f}s" + tail)


def timed(fn):
    """Wrap a callable so each invocation's wall time is collected.

    Works identically under statistical timing and
    ``--benchmark-disable``; read ``wrapped.times`` (seconds per call)
    afterwards and record e.g. ``min(wrapped.times)``.
    """

    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        wrapped.times.append(time.perf_counter() - start)
        return out

    wrapped.times = []
    return wrapped
