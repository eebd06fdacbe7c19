"""Per-clinic model stratification (paper Table 1).

"To account for possible differences in data collection protocols
between the clinics, we also created one separate model for each."
The small Hong Kong cohort (33 patients) is expected to produce unstable
metrics — the anomalies the paper remarks on.

Each clinic's protocol run is an independent unit: the parent filters
the subset and derives the (size-reduced) fold count, each unit carries
its own subset to the worker that runs it, and results merge back in
clinic order — bitwise-identical to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.learning.framework import (
    EvaluationResult,
    run_protocol,
    strip_samples,
)
from repro.parallel import parallel_map
from repro.pipeline.samples import SampleSet

__all__ = [
    "per_clinic_results",
    "clinic_fold_count",
    "build_clinic_units",
    "run_clinic_unit",
]


def clinic_fold_count(subset: SampleSet, n_folds: int) -> int:
    """Reduce the fold count for small clinic subsets (never below 2).

    Stratified folds need >= n_folds members of each class, and tiny
    subsets (Hong Kong in the paper's setting) cannot sustain the
    requested K.
    """
    folds = n_folds
    if subset.outcome == "falls":
        _, class_counts = np.unique(subset.y, return_counts=True)
        folds = int(min(folds, class_counts.min()))
    return max(2, min(folds, subset.n_samples // 10 or 2))


@dataclass(frozen=True)
class _ClinicUnit:
    subset: SampleSet
    factory: Callable[[SampleSet], object] | None
    n_folds: int
    seed: int


def run_clinic_unit(unit: _ClinicUnit, _state: object) -> EvaluationResult:
    """Execute one clinic's protocol run (executor unit function)."""
    # n_jobs=1: the clinic fan-out owns the parallelism, so a unit run
    # inline never reads REPRO_JOBS (inside a worker this is a no-op).
    result = run_protocol(
        unit.subset,
        model_factory=unit.factory,
        n_folds=unit.n_folds,
        seed=unit.seed,
        n_jobs=1,
    )
    return strip_samples(result)


def build_clinic_units(
    samples: SampleSet,
    n_folds: int,
    seed: int,
    model_factory: Callable[[SampleSet], object] | None = None,
    clinics: list[str] | None = None,
) -> tuple[list[str], list[_ClinicUnit]]:
    """Build one executor unit per clinic of a sample set.

    The single source of the per-clinic protocol setup — clinic
    enumeration (largest first), subset filtering, fold-count reduction
    — used by both :func:`per_clinic_results` and the Table 1 runner so
    the two can never drift apart.

    Returns ``(clinics, units)`` aligned by position; run the units with
    :func:`run_clinic_unit` via :func:`repro.parallel.parallel_map` and
    re-attach each unit's subset to its (sample-stripped) result.
    """
    if clinics is None:
        names, counts = np.unique(samples.clinics.astype(str), return_counts=True)
        clinics = [str(n) for n in names[np.argsort(-counts)]]
    units: list[_ClinicUnit] = []
    for clinic in clinics:
        subset = samples.filter_clinic(clinic)
        units.append(
            _ClinicUnit(
                subset=subset,
                factory=model_factory,
                n_folds=clinic_fold_count(subset, n_folds),
                seed=seed,
            )
        )
    return clinics, units


def per_clinic_results(
    samples: SampleSet,
    clinics: list[str] | None = None,
    model_factory: Callable[[SampleSet], object] | None = None,
    n_folds: int = 5,
    seed: int = 0,
    n_jobs: int | None = None,
) -> dict[str, EvaluationResult]:
    """Run the Fig. 3 protocol separately on each clinic's samples.

    Parameters
    ----------
    clinics:
        Clinic names to evaluate; defaults to every clinic present in
        the sample set, sorted by size (largest first).
    n_jobs:
        Fan the clinics out across a process pool; ``None`` honours
        ``REPRO_JOBS``.  Results are bitwise-identical to serial.
    """
    clinics, units = build_clinic_units(
        samples, n_folds, seed, model_factory=model_factory, clinics=clinics
    )
    results = parallel_map(run_clinic_unit, units, n_jobs=n_jobs)
    return {
        clinic: replace(result, samples=unit.subset)
        for clinic, unit, result in zip(clinics, units, results)
    }
