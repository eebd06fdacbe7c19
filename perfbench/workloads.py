"""The three workloads, each a closed loop over the program's public API.

Every workload builds its inputs from the workload seed, warms up, then
times single operations (``op``) and checks each one outside the timed
region (``check``; ``settle`` for checks that are cheaper batched at the
end of a segment).  A failed check counts the op as failed.

The cohort and every protocol split use the paper-scale seed
:data:`COHORT_SEED` on every run, so each run does the same amount of
model work (trees grown, trees served); the workload seed drives the
request streams and the order of the training grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.cohort
import repro.learning.framework
import repro.pipeline.samples
from repro.cohort import CohortConfig
from repro.explain.reports import top_k_features
from repro.learning.metrics import classification_report, regression_report
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringService,
)

from . import reference
from .hostspeed import Sampler, rescale

__all__ = ["WORKLOADS", "Segment", "cohort_config", "segment_timing"]

#: Seed of the paper-scale cohort (261 patients) and of the protocol
#: splits, as in ``ExperimentContext``.
COHORT_SEED = 7
#: CV folds of the experiment grid (``EXPERIMENT_FOLDS``).
N_FOLDS = 3
#: The Fig. 4 grid: outcome x representation x frailty index.
GRID = tuple(
    (outcome, kind, with_fi)
    for outcome in ("qol", "sppb", "falls")
    for kind in ("kd", "dd")
    for with_fi in (False, True)
)
#: Rows per scoring op (the server's default ``max_batch``).
BATCH = 64
#: The scoring service's default LRU capacity, in rows.
CACHE_ROWS = 4096
#: Serving runs time at least this many ops, so ten lie beyond p90.
MIN_TAIL_OPS = 100
#: Absolute tolerance of the SHAP efficiency check.
EFFICIENCY_TOL = 1e-9
#: Rows of each cold op whose SHAP values are recomputed and checked.
CHECKED_ROWS = 8
#: Name the serving workloads publish their model under.
MODEL = "sppb"



def cohort_config(patients: int | None = None) -> CohortConfig:
    """The paper-scale cohort, or the same clinics scaled to ``patients``."""
    config = CohortConfig(seed=COHORT_SEED)
    if patients is None:
        return config
    scale = patients / config.n_patients
    clinics = tuple(
        replace(c, n_patients=max(2, round(c.n_patients * scale)))
        for c in config.clinics
    )
    return CohortConfig(seed=COHORT_SEED, clinics=clinics)


def _canon(value) -> str:
    """Exact text of a JSON-able value: equal text means equal bits."""
    return json.dumps(value, sort_keys=True)


def _bits(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def _report_bits(report) -> tuple | None:
    """A :class:`LocalExplanation`, floats as exact bit text."""
    if report is None:
        return None
    return (
        _bits(report.prediction),
        _bits(report.expected_value),
        report.features,
        tuple(map(_bits, report.contributions)),
        tuple(map(_bits, report.values)),
    )


def _fingerprint(result) -> tuple:
    """Every field of a :class:`ScoreResult`, floats as exact bit text."""
    return (
        _bits(result.raw_score),
        _bits(result.prediction),
        _bits(result.probability),
        result.cached,
        _report_bits(result.explanation),
    )


@dataclass
class Segment:
    """One timed stretch of ops, each with the host's slowness over it."""

    latencies: list[float] = field(default_factory=list)
    #: Mean host slowness over each op (see :mod:`perfbench.hostspeed`).
    slowness: list[float] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)


@dataclass
class Timing:
    """End-to-end timing of a segment: raw, and at the reference speed."""

    ops_per_s: float
    latencies: np.ndarray
    raw_ops_per_s: float
    raw_latencies: np.ndarray


def segment_timing(segment: Segment) -> Timing:
    """Closed loop, one caller: throughput is ops over summed op time."""
    raw = np.asarray(segment.latencies)
    rescaled = rescale(raw, segment.slowness)
    return Timing(raw.size / rescaled.sum(), rescaled, raw.size / raw.sum(), raw)


class Workload:
    """Closed loop, one caller: ``next_input`` and ``check`` are untimed."""

    name = ""
    #: Segments end on a whole number of this many ops.
    group = 1
    #: Minimum ops per segment (serving workloads report p90).
    min_ops = 1

    def __init__(self, seed: int, patients: int | None, workdir: Path):
        self.seed = seed
        self.patients = patients
        self.workdir = workdir
        #: Wraps the untimed work of a segment; the traced run pauses
        #: the tracer there, so checks never count as program time.
        self.untimed = contextlib.nullcontext

    def rng(self, stream: int) -> np.random.Generator:
        """An independent seeded stream: 0 feeds timed ops, others set-up."""
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def op(self, request):
        raise NotImplementedError

    def check(self, request, output) -> bool:
        raise NotImplementedError

    def settle(self) -> int:
        """Run deferred checks; return how many ops that passed their
        inline check fail these."""
        return 0

    def run(self, seconds: float) -> Segment:
        """Ops until ``seconds`` of op time, ``min_ops`` and whole groups.

        A probe sits between consecutive ops (the last of one op's
        readings and the first of the next's) and the sampler adds
        readings inside long ops; their durations are taken out of the
        op's time.
        """
        segment = Segment()
        start = time.perf_counter()
        with Sampler() as sampler:
            reading = sampler.probe()
            while (
                sum(segment.latencies) < seconds
                or segment.ops < self.min_ops
                or segment.ops % self.group
            ):
                with self.untimed():
                    request = self.next_input()
                t0 = time.perf_counter()
                output = self.op(request)
                t1 = time.perf_counter()
                inside, probing = sampler.inside(t0, t1)
                readings = [reading, *inside, sampler.probe()]
                reading = readings[-1]
                segment.latencies.append(t1 - t0 - probing)
                segment.slowness.append(sum(readings) / len(readings))
                with self.untimed():
                    segment.failed += not self.check(request, output)
        segment.wall = time.perf_counter() - start
        with self.untimed():
            segment.failed += self.settle()
        return segment

    def traced_run(self, tracer, seconds: float) -> tuple[Segment, dict]:
        """A segment under ``tracer``; returns it with its spans."""
        tracer.reset()
        self.untimed = tracer.paused
        tracer.install()
        try:
            segment = self.run(seconds)
        finally:
            tracer.uninstall()
            self.untimed = contextlib.nullcontext
        return segment, tracer.snapshot()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that runs the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def inputs(self) -> dict:
        """Input properties a "helps only X" claim would cite."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class TrainGrid(Workload):
    """One op is one Fig. 3 protocol run; a pass is the 12-config grid."""

    name = "train_grid"
    group = len(GRID)

    def setup(self) -> None:
        self.build()
        self.reference = reference.load(self.patients)
        self.order_rng = self.rng(0)
        self.queue: list[tuple] = []
        self.digests: dict[tuple, str] = {}
        self.final_trees: dict[tuple, int] = {}
        # Warm-up: the cheapest cell, whose digest the timed pass must
        # then reproduce bit for bit.
        warm = ("falls", "kd", False)
        if not self.check(warm, self.op(warm)):
            raise RuntimeError("warm-up protocol run failed its check")

    def build(self) -> None:
        """The cohort, the 12 sample sets and the three protocol plans."""
        cohort = repro.cohort.generate_cohort(cohort_config(self.patients))
        self.samples = {}
        for outcome, kind, with_fi in GRID:
            if kind == "dd":
                self.samples[(outcome, kind, with_fi)] = (
                    repro.pipeline.samples.build_dd_samples(
                        cohort, outcome, with_fi=with_fi
                    )
                )
        for outcome, kind, with_fi in GRID:
            if kind == "kd":
                self.samples[(outcome, kind, with_fi)] = (
                    repro.pipeline.samples.build_kd_samples(
                        self.samples[(outcome, "dd", with_fi)]
                    )
                )
        self.plans = {}
        for outcome in ("qol", "sppb", "falls"):
            geometry = self.samples[(outcome, "dd", False)]
            self.plans[outcome] = repro.learning.framework.ProtocolPlan.build(
                geometry.n_samples,
                geometry.y,
                stratified=outcome == "falls",
                n_folds=N_FOLDS,
                seed=COHORT_SEED,
            )

    def next_input(self):
        if not self.queue:  # a new pass, in seeded order
            self.queue = [GRID[i] for i in self.order_rng.permutation(len(GRID))]
        return self.queue.pop(0)

    def op(self, key):
        return repro.learning.framework.run_protocol(
            self.samples[key], plan=self.plans[key[0]], n_jobs=1
        )

    def check(self, key, result) -> bool:
        samples = self.samples[key]
        test = result.test_idx
        fast = result.test_predictions()
        # The float-threshold path is independent of the binned one the
        # protocol scores with; both must agree bit for bit.
        slow = result.model.predict(samples.X[test])
        report = (
            classification_report if key[0] == "falls" else regression_report
        )(samples.y[test], slow)
        digest = hashlib.sha256(
            _canon(
                [
                    [r.as_dict() for r in result.cv_reports],
                    result.test_report.as_dict(),
                    fast.tobytes().hex(),
                ]
            ).encode()
        ).hexdigest()
        self.final_trees[key] = result.model.ensemble_.n_trees
        return (
            np.array_equal(fast, slow)
            and _canon(report.as_dict()) == _canon(result.test_report.as_dict())
            and reference.matches(self.reference[reference.cell_name(key)], result)
            and self.digests.setdefault(key, digest) == digest
        )

    def inputs(self) -> dict:
        return {
            "configs_per_pass": len(GRID),
            "rows_per_op": {
                reference.cell_name(k): int(s.n_samples)
                for k, s in self.samples.items()
            },
            "features_per_op": {
                reference.cell_name(k): int(s.n_features)
                for k, s in self.samples.items()
            },
            "final_model_trees_per_pass": sum(self.final_trees.values()),
            "repeat_share": 0.0,
        }


# ----------------------------------------------------------------------
class _Served(Workload):
    """Shared set-up: the sppb DD+FI final model, published and reloaded."""

    min_ops = MIN_TAIL_OPS

    def setup(self) -> None:
        cohort = repro.cohort.generate_cohort(cohort_config(self.patients))
        samples = repro.pipeline.samples.build_dd_samples(
            cohort, MODEL, with_fi=True
        )
        plan = repro.learning.framework.ProtocolPlan.build(
            samples.n_samples, samples.y, n_folds=N_FOLDS, seed=COHORT_SEED
        )
        # The protocol's final model: fit on the training side with the
        # early-stopping carve-out as eval set.
        fit_idx = plan.train_idx[plan.inner_train]
        val_idx = plan.train_idx[plan.inner_val]
        model = repro.learning.framework.default_model_factory(samples)
        model.fit(
            samples.X[fit_idx],
            samples.y[fit_idx],
            eval_set=(samples.X[val_idx], samples.y[val_idx]),
        )
        self.registry_dir = self.workdir / "registry"
        self.registry = ModelRegistry(self.registry_dir)
        self.registry.publish(
            MODEL, model, metadata={"features": list(samples.feature_names)}
        )
        self.held_out = samples.X[plan.test_idx]
        self.feature_names = list(samples.feature_names)
        self.rows_seen: set[bytes] = set()
        self.rows_sent = 0

    def service(self) -> ScoringService:
        return ScoringService.from_registry(self.registry, MODEL)

    def op(self, request):
        """Requests are ``(rows or indices, [ScoreRequest])``."""
        return self.scoring.score_batch(request[1])

    def inputs(self) -> dict:
        return {
            "held_out_rows": int(self.held_out.shape[0]),
            "features": int(self.held_out.shape[1]),
            "rows_per_op": BATCH,
            "rows_sent": self.rows_sent,
            "distinct_rows": len(self.rows_seen),
            "repeat_share": 1.0 - len(self.rows_seen) / max(1, self.rows_sent),
        }


class ServeCold(_Served):
    """Never-seen rows: every request misses and the full LRU evicts."""

    name = "serve_cold"

    def setup(self) -> None:
        super().setup()
        self.scoring = self.service()
        self.model = self.scoring.model
        self.stream = self.rng(0)
        # Fill the LRU to capacity with predict-only rows, so the timed
        # ops evict from the first one on; then warm the explain path.
        fill = self.rng(1)
        for _ in range(CACHE_ROWS // BATCH):
            self.scoring.score_batch(
                [ScoreRequest(row=row) for row in self._draw(fill)]
            )
        warm = self.rng(2)
        for _ in range(2):
            rows = self._draw(warm)
            self.scoring.score_batch(
                [ScoreRequest(row=row, explain=True) for row in rows]
            )
        self.pending: list[tuple[np.ndarray, list, bool]] = []
        self.sample_rng = self.rng(3)

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        """A batch of new rows: each feature drawn from its held-out column."""
        n, d = self.held_out.shape
        picks = rng.integers(0, n, size=(BATCH, d))
        return self.held_out[picks, np.arange(d)]

    def next_input(self):
        rows = self._draw(self.stream)
        self.rows_sent += rows.shape[0]
        codes = self.model.bin(rows)
        self.rows_seen.update(codes[i].tobytes() for i in range(BATCH))
        return rows, [ScoreRequest(row=row, explain=True) for row in rows]

    def check(self, request, results) -> bool:
        expected = self.scoring.explainer.expected_value
        ok = len(results) == BATCH and all(
            r.explanation is not None
            and r.prediction == r.raw_score
            and r.explanation.prediction == r.raw_score
            and r.explanation.expected_value == expected
            for r in results
        )
        # Exact raw scores and SHAP efficiency are checked in one batch
        # at the end of the segment (TreeSHAP's per-call cost makes
        # per-op recomputation as dear as the op itself).
        self.pending.append((request[0], results, ok))
        return ok

    def settle(self) -> int:
        pending, self.pending = self.pending, []
        if not pending:
            return 0
        rows = np.concatenate([rows for rows, _, _ in pending])
        codes = self.model.bin(rows)
        raw = self.model.predict_binned(codes)
        picks = [
            np.sort(self.sample_rng.choice(BATCH, CHECKED_ROWS, replace=False))
            for _ in pending
        ]
        flat = np.concatenate([i * BATCH + p for i, p in enumerate(picks)])
        phi = self.scoring.explainer.shap_values_binned(
            np.asfortranarray(codes[flat])
        )
        expected = self.scoring.explainer.expected_value
        failed = 0
        for i, (_, results, passed_inline) in enumerate(pending):
            base = i * BATCH
            ok = all(
                r.raw_score == raw[base + j] for j, r in enumerate(results)
            )
            for k, j in enumerate(picks[i]):
                row = phi[i * CHECKED_ROWS + k]
                served = results[j]
                reference = top_k_features(
                    row,
                    rows[base + j],
                    self.feature_names,
                    prediction=raw[base + j],
                    expected_value=expected,
                    k=len(served.explanation.features),
                )
                ok = (
                    ok
                    and abs(row.sum() + expected - raw[base + j]) <= EFFICIENCY_TOL
                    and _report_bits(reference) == _report_bits(served.explanation)
                )
            failed += passed_inline and not ok  # count each op once
        return failed


class ServeHot(_Served):
    """Held-out visits revisited: every request is a cache hit."""

    name = "serve_hot"

    def setup(self) -> None:
        super().setup()
        self.scoring = self.service()
        self.scoring.score_rows(self.held_out, explain=True)
        hits = self.scoring.score_rows(self.held_out, explain=True)
        if not all(r.cached for r in hits):
            raise RuntimeError("warm-up did not fill the cache")
        self.expected = [_fingerprint(r) for r in hits]
        self.visits = _Visits(self.rng(0), self.held_out.shape[0])
        warm = _Visits(self.rng(1), self.held_out.shape[0])
        for _ in range(20):
            self.op(self._requests(warm.take(BATCH)))

    def _requests(self, idx: np.ndarray):
        return idx, [ScoreRequest(row=self.held_out[i], explain=True) for i in idx]

    def next_input(self):
        idx = self.visits.take(BATCH)
        self.rows_sent += idx.size
        self.rows_seen.update(int(i) for i in idx)
        return self._requests(idx)

    def check(self, request, results) -> bool:
        idx = request[0]
        return len(results) == idx.size and all(
            _fingerprint(r) == self.expected[i]
            for i, r in zip(idx, results)
        )


class _Visits:
    """Seeded revisiting order: a fresh permutation of the rows per cycle."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng = rng
        self.n = n
        self.order = np.empty(0, dtype=np.int64)

    def take(self, k: int) -> np.ndarray:
        while self.order.size < k:
            self.order = np.concatenate([self.order, self.rng.permutation(self.n)])
        taken, self.order = self.order[:k], self.order[k:]
        return taken


WORKLOADS = {
    w.name: w for w in (TrainGrid, ServeCold, ServeHot)
}
