"""FIG6 bench — matched-pair local explanations (paper Fig. 6).

Expected shape vs the paper: two distinct patients with (nearly)
identical SPPB predictions whose top-5 Shapley rankings differ — the
basis of the paper's personalised-medicine argument.
"""

import time

import numpy as np

from benchmarks.conftest import record
from repro.experiments import run_fig6
from repro.experiments.fig6_local_explanations import render_fig6
from repro.explain import ReferenceTreeShapExplainer, TreeShapExplainer


def test_fig6_local_explanations(ctx, results_dir):
    pair = run_fig6(ctx)
    record(results_dir, "fig6_local_explanations", render_fig6(pair))

    assert pair.patient_a != pair.patient_b
    assert abs(pair.prediction_a - pair.prediction_b) <= 0.25
    assert len(pair.explanation_a.features) == 5
    assert len(pair.explanation_b.features) == 5
    # The two top-5 sets differ (same outcome, different explanation).
    assert len(pair.shared_top_features) < 5
    # Each report decomposes its own prediction exactly (efficiency is
    # checked in unit tests; here check the reports carry signed parts).
    assert pair.explanation_a.positive() or pair.explanation_a.negative()


def test_fig6_shap_engine_speedup(ctx):
    """Batched vs recursive TreeSHAP at the Fig. 6 configuration.

    The batched engine explains the full 220-sample held-out block; the
    recursive reference is timed on a 24-sample slice (it is far too
    slow for the full block) and compared per row.  The floor is a
    >= 10x per-row speedup; in practice it is ~100x.
    """
    result = ctx.result("sppb", "dd", with_fi=True)
    X = result.samples.X[result.test_idx[:220]]
    n_ref = 24

    batched = TreeShapExplainer(result.model)
    t_batched = min(
        _timed(lambda: batched.shap_values(X)) for _ in range(3)
    )
    phi = batched.shap_values(X)

    reference = ReferenceTreeShapExplainer(result.model)
    t0 = time.perf_counter()
    phi_ref = reference.shap_values(X[:n_ref])
    t_reference = time.perf_counter() - t0

    assert np.allclose(phi[:n_ref], phi_ref, atol=1e-10)
    speedup = (t_reference / n_ref) / (t_batched / X.shape[0])
    assert speedup >= 10.0, (
        f"per-row speedup {speedup:.1f}x < 10x: batched {t_batched:.3f}s "
        f"for {X.shape[0]} rows, recursive {t_reference:.3f}s for "
        f"{n_ref} rows"
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
