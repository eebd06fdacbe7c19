"""Shared, memoised state for the experiment runners.

Generating the cohort, building the 12 sample sets and running the
Fig. 3 protocol are pure functions of (seed, parameters); the context
caches them so that e.g. the FIG5/FIG6/FIG7 runners reuse the models
FIG4 trained instead of refitting.

Concurrency contract
--------------------
Every memo (cohort, sample sets, protocol plans, results) is guarded by
one re-entrant lock, so a context may be shared across *threads*.
Parallel execution follows a strict **compute-in-worker /
merge-in-parent** policy: worker processes never see the context — a
:meth:`prefetch` unit carries only its sample set and a precomputed
:class:`~repro.learning.framework.ProtocolPlan`, returns a
sample-stripped result, and the parent merges it into the memo under
the lock.  Nothing a worker does can therefore race the caches, and a
context must never be pickled into a worker (each worker that needs one
builds its own).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.cohort import CohortConfig, CohortDataset, generate_cohort
from repro.learning.framework import (
    EvaluationResult,
    ProtocolPlan,
    run_protocol,
    strip_samples,
)
from repro.parallel import parallel_map
from repro.pipeline.samples import (
    SampleSet,
    build_dd_samples,
    build_kd_samples,
)

__all__ = ["ExperimentContext", "default_context"]

#: Reduced fold count for experiment runs; the paper uses "standard
#: KFold", and 3 folds keep the full grid affordable while preserving
#: the protocol structure.
EXPERIMENT_FOLDS = 3

#: Memo key: (outcome, kind, with_fi, max_gap).
ResultKey = tuple[str, str, bool, int]


@dataclass(frozen=True)
class _ResultUnit:
    """One protocol run shipped to a worker, its sample set included."""

    samples: SampleSet
    plan: ProtocolPlan
    n_folds: int
    seed: int


def _run_result_unit(unit: _ResultUnit, _state: object) -> EvaluationResult:
    # n_jobs=1: grid-level fan-out owns the parallelism; a unit must not
    # fork a nested pool (inside a worker this is a no-op anyway).
    result = run_protocol(
        unit.samples,
        n_folds=unit.n_folds,
        seed=unit.seed,
        plan=unit.plan,
        n_jobs=1,
    )
    return strip_samples(result)


class ExperimentContext:
    """Cohort + sample sets + fitted protocol results, cached.

    Parameters
    ----------
    seed:
        Root seed of the synthetic cohort and of all protocol splits.
    n_folds:
        CV folds used by every protocol run in this context.
    n_jobs:
        Worker processes for the grid runners (see
        :func:`repro.parallel.resolve_jobs`): ``None`` honours
        ``REPRO_JOBS``, ``1`` forces serial, ``0``/``-1`` use every CPU.
        Parallel and serial execution produce bitwise-identical results.
    """

    def __init__(
        self,
        seed: int = 7,
        n_folds: int = EXPERIMENT_FOLDS,
        cohort_config: CohortConfig | None = None,
        n_jobs: int | None = None,
    ):
        self.seed = seed
        self.n_folds = n_folds
        self.n_jobs = n_jobs
        self._cohort_config = cohort_config
        self._lock = threading.RLock()
        self._cohort: CohortDataset | None = None
        self._samples: dict[ResultKey, SampleSet] = {}
        self._results: dict[ResultKey, EvaluationResult] = {}
        self._plans: dict[tuple[str, int], ProtocolPlan] = {}

    @property
    def cohort(self) -> CohortDataset:
        """The synthetic cohort (generated on first access)."""
        with self._lock:
            if self._cohort is None:
                cfg = self._cohort_config or CohortConfig(seed=self.seed)
                self._cohort = generate_cohort(cfg)
            return self._cohort

    def samples(
        self,
        outcome: str,
        kind: str = "dd",
        with_fi: bool = False,
        max_gap: int = 5,
    ) -> SampleSet:
        """Memoised sample-set construction."""
        key = (outcome, kind, with_fi, max_gap)
        with self._lock:
            if key not in self._samples:
                dd_key = (outcome, "dd", with_fi, max_gap)
                if dd_key not in self._samples:
                    self._samples[dd_key] = build_dd_samples(
                        self.cohort, outcome, with_fi=with_fi, max_gap=max_gap
                    )
                if kind == "kd":
                    self._samples[key] = build_kd_samples(self._samples[dd_key])
            return self._samples[key]

    def plan(self, outcome: str, max_gap: int = 5) -> ProtocolPlan:
        """Memoised protocol splits for one outcome's sample geometry.

        The DD/KD/±FI arms of an outcome share rows and labels, so they
        share one plan — splits are computed once per sample set, not
        once per fit.
        """
        key = (outcome, max_gap)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                samples = self.samples(outcome, "dd", False, max_gap)
                plan = ProtocolPlan.build(
                    samples.n_samples,
                    samples.y,
                    stratified=outcome == "falls",
                    n_folds=self.n_folds,
                    seed=self.seed,
                )
                self._plans[key] = plan
            return plan

    def result(
        self,
        outcome: str,
        kind: str = "dd",
        with_fi: bool = False,
        max_gap: int = 5,
    ) -> EvaluationResult:
        """Memoised protocol run (Fig. 3) for one configuration."""
        key = (outcome, kind, with_fi, max_gap)
        with self._lock:
            cached = self._results.get(key)
        if cached is not None:
            return cached
        samples = self.samples(outcome, kind, with_fi, max_gap)
        result = run_protocol(
            samples,
            n_folds=self.n_folds,
            seed=self.seed,
            plan=self.plan(outcome, max_gap),
            n_jobs=self.n_jobs,
        )
        with self._lock:
            # A concurrent thread may have finished first; first one in
            # wins so every caller sees the same object (the results are
            # equal either way — the computation is deterministic).
            return self._results.setdefault(key, result)

    def prefetch(
        self,
        keys: list[tuple] | list[ResultKey],
        n_jobs: int | None = None,
    ) -> None:
        """Compute missing protocol results for ``keys``, concurrently.

        Keys are ``(outcome, kind, with_fi[, max_gap])``.  Sample sets
        and plans are built in the parent (memoised), each unit carries
        its sample set to the worker that runs it, and the stripped
        results are merged back under the lock with the parent's sample
        sets re-attached — the compute-in-worker / merge-in-parent
        policy.
        Subsequent :meth:`result` calls are memo hits.
        """
        normalised: list[ResultKey] = []
        for key in keys:
            if len(key) == 3:
                key = (*key, 5)
            if key not in normalised:
                normalised.append(key)  # preserve submission order
        with self._lock:
            missing = [k for k in normalised if k not in self._results]
        if not missing:
            return

        units = [
            _ResultUnit(
                samples=self.samples(outcome, kind, with_fi, max_gap),
                plan=self.plan(outcome, max_gap),
                n_folds=self.n_folds,
                seed=self.seed,
            )
            for outcome, kind, with_fi, max_gap in missing
        ]
        results = parallel_map(
            _run_result_unit,
            units,
            n_jobs=n_jobs if n_jobs is not None else self.n_jobs,
        )
        with self._lock:
            for key, result in zip(missing, results):
                restored = replace(result, samples=self.samples(*key))
                self._results.setdefault(key, restored)


_DEFAULT_LOCK = threading.Lock()
_DEFAULT_CONTEXTS: OrderedDict[int, ExperimentContext] = OrderedDict()
_DEFAULT_CAPACITY = 4


def default_context(seed: int = 7) -> ExperimentContext:
    """Process-wide shared context (one per seed, LRU of 4).

    Lock-guarded so concurrent first calls for a seed cannot race into
    building two contexts (the hazard the bare ``lru_cache`` had: cache
    *misses* are not atomic).
    """
    with _DEFAULT_LOCK:
        context = _DEFAULT_CONTEXTS.get(seed)
        if context is None:
            context = ExperimentContext(seed=seed)
            _DEFAULT_CONTEXTS[seed] = context
            while len(_DEFAULT_CONTEXTS) > _DEFAULT_CAPACITY:
                _DEFAULT_CONTEXTS.popitem(last=False)
        else:
            _DEFAULT_CONTEXTS.move_to_end(seed)
        return context
