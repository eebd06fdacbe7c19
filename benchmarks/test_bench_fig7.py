"""FIG7 bench — global SV dependence of one PRO item (paper Fig. 7).

Expected shape vs the paper: the population SHAP values of a PRO item
flip sign at a mid-scale answer value (the paper reports >= 3 on a
5-level item), i.e. the DD model rediscovers a KD-style cutoff.
"""

import time

import numpy as np

from benchmarks.conftest import record
from repro.experiments import run_fig7
from repro.experiments.fig7_global_dependence import render_fig7
from repro.explain import (
    ReferenceTreeShapInteractionExplainer,
    TreeShapInteractionExplainer,
)


def test_fig7_global_dependence(ctx, results_dir):
    curve = run_fig7(ctx)
    record(results_dir, "fig7_global_dependence", render_fig7(curve))

    assert curve.feature.startswith("pro_")
    # A data-driven threshold emerged.
    assert curve.threshold is not None
    assert curve.values.min() < curve.threshold <= curve.values.max()
    # The dependence is monotone in the mean over the answer range ends
    # (low answers on one side of zero, high answers on the other).
    assert np.sign(curve.mean_shap[0]) != np.sign(curve.mean_shap[-1])
    # The detector now reports the orientation of the flip too.
    assert curve.flip_direction() in (
        "negative_to_positive", "positive_to_negative"
    )


def test_fig7_interaction_engine_speedup(ctx):
    """Batched vs recursive SHAP interactions at the Fig. 7 model.

    Interaction matrices are the heaviest explanation workload (the
    recursive oracle re-walks each tree 2 x n_used_features times per
    sample).  The batched engine explains a 24-patient block in one
    pass; the reference is timed on 2 samples and compared per row.
    """
    result = ctx.result("qol", "dd", with_fi=True)
    X = result.samples.X[result.test_idx[:24]]
    n_ref = 2

    batched = TreeShapInteractionExplainer(result.model)
    t0 = time.perf_counter()
    matrices = batched.shap_interaction_values_batch(X)
    t_batched = time.perf_counter() - t0

    reference = ReferenceTreeShapInteractionExplainer(result.model)
    t0 = time.perf_counter()
    ref_matrices = [
        reference.shap_interaction_values(X[i], X.shape[1])
        for i in range(n_ref)
    ]
    t_reference = time.perf_counter() - t0

    for i in range(n_ref):
        assert np.allclose(matrices[i], ref_matrices[i], atol=1e-10)
    speedup = (t_reference / n_ref) / (t_batched / X.shape[0])
    assert speedup >= 10.0, (
        f"per-row speedup {speedup:.1f}x < 10x: batched {t_batched:.3f}s "
        f"for {X.shape[0]} matrices, recursive {t_reference:.3f}s for "
        f"{n_ref} matrices"
    )
