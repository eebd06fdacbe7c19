"""ABL3 — class-weighting ablation on the Falls imbalance (extension).

The paper observes that the strong False-majority of the Falls outcome
collapses minority recall (Fig. 4: KD w/o FI recall-True = 2 %) but does
not evaluate counter-measures.  This extension sweeps the classifier's
positive-class weight (XGBoost's ``scale_pos_weight``) on the DD + FI
Falls sample set and reports the precision/recall trade-off — the
natural follow-up experiment for a deployment that cares about catching
fallers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.boosting import GBClassifier, GBConfig
from repro.experiments.context import ExperimentContext, default_context
from repro.learning.framework import (
    ProtocolPlan,
    run_protocol,
    strip_samples,
)
from repro.parallel import parallel_map
from repro.pipeline.samples import SampleSet

__all__ = ["run_imbalance_ablation", "render_imbalance_ablation"]


def _weighted_model(pos_weight: float, samples: SampleSet) -> GBClassifier:
    return GBClassifier(
        GBConfig(
            n_estimators=400,
            learning_rate=0.06,
            max_depth=4,
            min_child_weight=3.0,
            subsample=0.9,
            colsample_bytree=0.85,
            early_stopping_rounds=30,
            random_state=7,
            scale_pos_weight=pos_weight,
        )
    )


def _weighted_factory(pos_weight: float):
    # partial of a module-level function: picklable, so the arms can run
    # on the process backend (a closure could not leave the parent).
    return partial(_weighted_model, pos_weight)


@dataclass(frozen=True)
class _ArmUnit:
    plan: ProtocolPlan
    pos_weight: float
    n_folds: int
    seed: int


def _run_arm(unit: _ArmUnit, samples: SampleSet) -> dict:
    result = run_protocol(
        samples,
        model_factory=_weighted_factory(unit.pos_weight),
        n_folds=unit.n_folds,
        seed=unit.seed,
        plan=unit.plan,
        n_jobs=1,
    )
    return strip_samples(result).test_report.as_dict()


def run_imbalance_ablation(
    context: ExperimentContext | None = None,
    pos_weights: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
) -> dict[float, dict]:
    """Return ``{pos_weight: falls classification metrics}``.

    The weight arms share one sample set (the pool's state, pickled
    once per worker) and one protocol plan; each arm is an independent
    unit with identical results on every backend.
    """
    ctx = context or default_context()
    samples = ctx.samples("falls", "dd", with_fi=True)
    plan = ctx.plan("falls")
    units = [
        _ArmUnit(
            plan=plan,
            pos_weight=weight,
            n_folds=ctx.n_folds,
            seed=ctx.seed,
        )
        for weight in pos_weights
    ]
    reports = parallel_map(_run_arm, units, n_jobs=ctx.n_jobs, state=samples)
    return dict(zip(pos_weights, reports))


def render_imbalance_ablation(result: dict[float, dict]) -> str:
    """Plain-text rendering of the trade-off sweep."""
    lines = ["ABL3: Falls class-weighting sweep (DD + FI)"]
    for weight, metrics in result.items():
        lines.append(
            f"  pos_weight={weight:4.1f}: acc={100 * metrics['accuracy']:.1f}% "
            f"recall_true={100 * metrics['recall_true']:.1f}% "
            f"precision_true={100 * metrics['precision_true']:.1f}% "
            f"f1_true={100 * metrics['f1_true']:.1f}%"
        )
    return "\n".join(lines)
