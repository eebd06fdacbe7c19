"""The benchmark's own tests, on a tiny cohort.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run them explicitly from the repository root::

    python3 -m pytest -q perfbench/checks.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PATIENTS = 30
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """``perfbench.workloads`` with the program's source importable."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("perfbench.workloads")


@pytest.fixture(scope="module")
def tracing(bench):
    return importlib.import_module("perfbench.tracing")


def make(bench, name, tmp_path, seed=5):
    workload = bench.WORKLOADS[name](seed, PATIENTS, tmp_path / f"{name}-{seed}")
    workload.setup()
    return workload


def run_bench(*args, cwd=ROOT):
    command = [sys.executable, "-m", "perfbench.run", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--patients", str(PATIENTS),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    assert {"nproc", "python", "numpy", "loadavg"} <= set(meta["host"])
    assert meta["calibration_ms_before"] > 0 and meta["calibration_ms_after"] > 0
    if workload == "train_grid":
        assert result["attempted"] % 12 == 0  # whole passes of the grid
    if not trace:
        assert len(meta["setups"]) == 3
        for setup in meta["setups"]:
            assert setup["setup_s"] == setup["raw_s"] / setup["slowness"]
        for name in ("setup_s", "ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    assert not (ROOT / ".perfbench-work").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_bench(
        "--workload", "serve_hot", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_rescaling_divides_by_the_slowness(bench):
    hostspeed = importlib.import_module("perfbench.hostspeed")
    assert hostspeed.rescale([1.0, 1.0, 3.0], [1.0, 2.0, 1.0]).tolist() == [
        1.0,
        0.5,
        3.0,
    ]
    assert 0.2 < hostspeed.probe() < 20.0
    with hostspeed.Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(i * i for i in range(1000))
        readings, probing = sampler.inside(t0, time.perf_counter())
    assert len(readings) >= 5 and 0 < probing < 0.2


# ----------------------------------------------------------------------
def _flip(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def test_corrupted_hot_result_counts_as_failed(bench, tmp_path):
    workload = make(bench, "serve_hot", tmp_path)
    real_op = workload.op
    calls = []

    def corrupting_op(request):
        results = real_op(request)
        calls.append(None)
        if len(calls) % 3 == 0:
            results[7] = dataclasses.replace(
                results[7], raw_score=_flip(results[7].raw_score)
            )
        return results

    workload.op = corrupting_op
    segment = workload.run(0.0)  # min_ops ops, checked one by one
    assert segment.ops == bench.MIN_TAIL_OPS
    assert segment.failed == segment.ops // 3


def test_corrupted_cold_results_count_as_failed(bench, tmp_path):
    workload = make(bench, "serve_cold", tmp_path)
    outputs = []
    for _ in range(3):
        request = workload.next_input()
        outputs.append((request, workload.op(request)))
    # op 0 intact; op 1 with one raw score off by an ulp (the deferred
    # exact check); op 2 with one SHAP contribution off (every row is
    # inspected for its top-k once the sampled rows include it).
    request, results = outputs[1]
    results[0] = dataclasses.replace(results[0], raw_score=_flip(results[0].raw_score))
    request, results = outputs[2]
    for j, served in enumerate(results):
        report = served.explanation
        bad = (_flip(report.contributions[0]), *report.contributions[1:])
        results[j] = dataclasses.replace(
            served, explanation=dataclasses.replace(report, contributions=bad)
        )
    inline = [workload.check(req, res) for req, res in outputs]
    assert inline == [True, False, True]  # raw != explanation.prediction
    assert workload.settle() == 1  # op 1 is not counted twice


def _with_first_float(report, change):
    """``report`` with ``change`` applied to its first float field."""
    field = next(
        f.name
        for f in dataclasses.fields(report)
        if isinstance(getattr(report, f.name), float)
    )
    return dataclasses.replace(report, **{field: change(getattr(report, field))})


def test_corrupted_protocol_report_counts_as_failed(bench, tmp_path):
    workload = make(bench, "train_grid", tmp_path)
    key = workload.next_input()
    result = workload.op(key)
    assert workload.check(key, result)
    # The test report is recomputed from the final model's predictions.
    again = workload.op(key)
    again.test_report = _with_first_float(again.test_report, _flip)
    assert not workload.check(key, again)
    # A CV report is compared with the reference table, so it fails on
    # the first run of its cell in the process too.
    fresh = next(cell for cell in bench.GRID if cell not in workload.digests)
    result = workload.op(fresh)
    result.cv_reports[1] = _with_first_float(
        result.cv_reports[1], lambda value: value * (1 + 1e-6)
    )
    assert not workload.check(fresh, result)


def test_every_grid_cell_matches_the_reference_table(bench, tmp_path):
    workload = make(bench, "train_grid", tmp_path)
    for key in bench.GRID:
        assert workload.check(key, workload.op(key)), key


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["serve_cold", "serve_hot", "train_grid"])
def test_same_seed_gives_identical_inputs(bench, tmp_path, name):
    first = make(bench, name, tmp_path / "a", seed=11)
    second = make(bench, name, tmp_path / "b", seed=11)
    other = make(bench, name, tmp_path / "c", seed=12)

    def stream(workload):
        inputs = [workload.next_input() for _ in range(24)]
        if name == "train_grid":
            return inputs
        return [np.asarray(request[0]).tobytes() for request in inputs]

    assert stream(first) == stream(second)
    assert stream(first) != stream(other)


# ----------------------------------------------------------------------
def test_no_wrapper_survives_into_an_untraced_run(bench, tracing, tmp_path):
    from repro.boosting.grower import TreeGrower
    from repro.serve.service import ScoringService

    grow, score = TreeGrower.grow, ScoringService.score_batch
    assert tracing.wrapped_targets() == []
    workload = make(bench, "serve_hot", tmp_path)
    tracer = tracing.Tracer()
    segment, spans = workload.traced_run(tracer, 0.0)
    assert tracing.wrapped_targets() == []
    assert TreeGrower.grow is grow and ScoringService.score_batch is score
    assert spans["calls"]["serve.score_batch"] == segment.ops
    assert spans["counts"]["service.requests"] == segment.ops * bench.BATCH
    assert spans["counts"]["cache.hits"] > 0 == spans["counts"]["cache.misses"]
    # A failing segment unwinds the wrappers too.
    workload.op = lambda request: 1 / 0
    with pytest.raises(ZeroDivisionError):
        workload.traced_run(tracer, 0.0)
    assert tracing.wrapped_targets() == []
    # An untraced segment records nothing.
    tracer.reset()
    del workload.op
    workload.run(0.0)
    assert tracer.snapshot()["calls"] == {}


def test_self_time_excludes_nested_spans(bench, tracing):
    from repro.boosting import GBRegressor

    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 6))
    y = X[:, 0] + rng.normal(size=300)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        GBRegressor(n_estimators=20, max_depth=3).fit(X, y)
        with tracer.paused():
            GBRegressor(n_estimators=5, max_depth=3).fit(X, y)
    finally:
        tracer.uninstall()
    seconds, own = tracer.seconds, tracer.self_seconds
    assert tracer.calls["boosting.fit"] == 1
    assert tracer.calls["boosting.grow"] == 20
    nested = sum(
        seconds[s]
        for s in ("boosting.grow", "boosting.bin_fit", "boosting.bin_transform")
    )
    assert own["boosting.fit"] == pytest.approx(
        seconds["boosting.fit"] - nested - seconds["boosting.tree_predict"],
        abs=1e-9,
    )
    assert tracer.counts["fit.trees_grown"] == 20
