"""FIG7 — global SV dependence of one PRO item (paper Fig. 7).

The paper plots the Shapley values of one PRO question across the
population against the answer value and observes a data-driven
threshold: the contribution flips sign at answers >= 3.  The runner
computes dependence curves for the PRO items, picks the one with the
crispest sign-change threshold, and returns its curve — demonstrating
that the DD model re-discovers KD-style cutoffs automatically.
"""

from __future__ import annotations

# repro: scope[row-deterministic]
# The artefact is built from per-row SHAP values computed by a
# row-sharded sweep; nothing here may depend on how the batch was sharded.

import numpy as np

from repro.cohort.schema import pro_item_names
from repro.experiments.context import ExperimentContext, default_context
from repro.experiments.shap_sweep import parallel_shap
from repro.explain import GlobalDependence, dependence_curve

__all__ = ["run_fig7", "render_fig7"]

#: Number of held-out samples used for the population SHAP pass.
_MAX_EXPLAIN = 300


def run_fig7(
    context: ExperimentContext | None = None,
    outcome: str = "qol",
    n_jobs: int | None = None,
) -> GlobalDependence:
    """Dependence curve of the PRO item with the clearest threshold.

    Candidates are ranked by (has a detected threshold, total |SV|
    mass); the winner's full curve is returned.  ``n_jobs`` (default:
    the context's) row-shards the population SHAP pass across the
    executor, bitwise-identical to the serial pass.
    """
    ctx = context or default_context()
    result = ctx.result(outcome, "dd", with_fi=True)
    samples = result.samples
    test_idx = result.test_idx[:_MAX_EXPLAIN]
    X = samples.X[test_idx]

    # One batched TreeSHAP pass over the population block (routed in
    # bin-code space via the model's fitted BinMapper), row-sharded
    # across the executor when n_jobs > 1.
    shap, _ = parallel_shap(
        result.model, X, n_jobs=n_jobs if n_jobs is not None else ctx.n_jobs
    )
    names = list(samples.feature_names)

    best_curve: GlobalDependence | None = None
    best_score = -np.inf
    for item in pro_item_names():
        col = names.index(item)
        observed = ~np.isnan(X[:, col])
        if np.count_nonzero(observed) < 30:
            continue
        curve = dependence_curve(shap[:, col], X[:, col], item)
        mass = float(np.abs(shap[:, col]).sum(axis=0))
        score = mass + (1e6 if curve.threshold is not None else 0.0)
        if score > best_score:
            best_score = score
            best_curve = curve
    if best_curve is None:
        raise RuntimeError("no PRO item had enough observed values")
    return best_curve


def render_fig7(curve: GlobalDependence) -> str:
    """Plain-text rendering of the dependence curve."""
    return "FIG7: " + curve.render()
