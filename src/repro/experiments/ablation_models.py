"""ABL1 — model-family ablation (paper section 5: GBM vs GA2M).

The paper justifies its model choice: "The Gradient Boosting algorithm
proved to offer better predictive performance than other popular
intelligible learning frameworks such as GA2M".  This ablation trains
the GBM, the GA2M-style EBM, a linear model and a dummy on the same DD
sample sets and reports the headline metric of each.
"""

from __future__ import annotations

from repro.baselines import (
    EBMClassifier,
    EBMRegressor,
    LogisticRegressor,
    MajorityClassifier,
    MeanRegressor,
    RidgeRegressor,
)
from repro.experiments.context import ExperimentContext, default_context
from repro.learning.framework import run_protocol
from repro.pipeline.samples import SampleSet

__all__ = ["run_model_ablation", "render_model_ablation"]


def _factories(outcome: str) -> dict[str, object]:
    if outcome == "falls":
        return {
            "gbm": None,  # None -> default_model_factory (the GBM)
            "ebm": lambda s: EBMClassifier(n_cycles=40),
            "linear": lambda s: LogisticRegressor(alpha=1.0),
            "dummy": lambda s: MajorityClassifier(),
        }
    return {
        "gbm": None,
        "ebm": lambda s: EBMRegressor(n_cycles=40),
        "linear": lambda s: RidgeRegressor(alpha=1.0),
        "dummy": lambda s: MeanRegressor(),
    }


def run_model_ablation(
    context: ExperimentContext | None = None,
    with_fi: bool = True,
) -> dict[str, dict[str, dict]]:
    """Return ``{outcome: {model_name: metrics_dict}}``.

    Every model runs through the identical Fig. 3 protocol on the same
    DD sample set, so differences are attributable to the model family.
    """
    ctx = context or default_context()
    grid: dict[str, dict[str, dict]] = {}
    for outcome in ("qol", "sppb", "falls"):
        samples: SampleSet = ctx.samples(outcome, "dd", with_fi)
        row: dict[str, dict] = {}
        for name, factory in _factories(outcome).items():
            # Only the GBM runs fan out: the baselines are cheap, and
            # fanning them out too measured slower than fitting them
            # in-process.
            result = run_protocol(
                samples,
                model_factory=factory,
                n_folds=ctx.n_folds,
                seed=ctx.seed,
                n_jobs=ctx.n_jobs if factory is None else 1,
            )
            row[name] = result.test_report.as_dict()
        grid[outcome] = row
    return grid


def render_model_ablation(grid: dict[str, dict[str, dict]]) -> str:
    """Plain-text rendering of the ablation grid."""
    lines = ["ABL1: model-family ablation (DD features, with FI)"]
    for outcome, row in grid.items():
        key = "accuracy" if outcome == "falls" else "one_minus_mape"
        label = "acc" if outcome == "falls" else "1-MAPE"
        cells = "  ".join(
            f"{name}={100 * metrics[key]:.1f}%" for name, metrics in row.items()
        )
        lines.append(f"  {outcome:6s} ({label}): {cells}")
    return "\n".join(lines)
