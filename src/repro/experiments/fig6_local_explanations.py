"""FIG6 — local SHAP explanations for two matched patients (paper Fig. 6).

The paper shows two patients with the *same* predicted SPPB index whose
top-5 Shapley rankings differ — the personalised-medicine argument.  The
runner explains the held-out samples of the SPPB DD model, searches for
a pair of distinct patients with (nearly) identical predictions but
different top-5 feature sets, and returns both reports.
"""

from __future__ import annotations

# repro: scope[row-deterministic]
# The matched pair is selected from per-row SHAP values computed by a
# row-sharded sweep; nothing here may depend on how the batch was sharded.

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import ExperimentContext, default_context
from repro.experiments.shap_sweep import parallel_shap
from repro.explain import LocalExplanation, local_reports

__all__ = ["MatchedPair", "run_fig6", "render_fig6"]

#: Number of held-out samples to explain (SHAP cost control).
_MAX_EXPLAIN = 220


@dataclass(frozen=True)
class MatchedPair:
    """Two same-prediction patients with different explanations."""

    patient_a: str
    patient_b: str
    prediction_a: float
    prediction_b: float
    explanation_a: LocalExplanation
    explanation_b: LocalExplanation

    @property
    def shared_top_features(self) -> set[str]:
        """Intersection of the two top-k feature sets."""
        return set(self.explanation_a.features) & set(self.explanation_b.features)


def run_fig6(
    context: ExperimentContext | None = None,
    k: int = 5,
    tolerance: float = 0.25,
    n_jobs: int | None = None,
) -> MatchedPair:
    """Find and explain a matched patient pair on the SPPB DD model.

    Parameters
    ----------
    k:
        Report size (the paper shows the 5 most relevant SVs).
    tolerance:
        Maximum |prediction difference| for two samples to count as
        "the same SPPB prediction".
    n_jobs:
        Workers for the SHAP sweep (default: the context's ``n_jobs``).
        The sweep is row-sharded across the executor and
        bitwise-identical to the serial pass for every worker count.

    Raises
    ------
    RuntimeError
        If no pair with differing top-k rankings exists among the
        explained samples (does not happen at the default seed).
    """
    ctx = context or default_context()
    result = ctx.result("sppb", "dd", with_fi=True)
    samples = result.samples
    test_idx = result.test_idx[:_MAX_EXPLAIN]
    X = samples.X[test_idx]
    pids = samples.patient_ids[test_idx]

    # One batched TreeSHAP pass explains the whole held-out block
    # (row-sharded across the executor when n_jobs > 1); the predictions
    # fall out of the efficiency axiom, so the model is not traversed a
    # second time.
    shap, expected_value = parallel_shap(
        result.model, X, n_jobs=n_jobs if n_jobs is not None else ctx.n_jobs
    )
    preds = expected_value + shap.sum(axis=1)
    names = list(samples.feature_names)

    order = np.argsort(preds)
    best: tuple[float, int, int] | None = None
    for a_pos in range(len(order) - 1):
        i = order[a_pos]
        for b_pos in range(a_pos + 1, len(order)):
            j = order[b_pos]
            if preds[j] - preds[i] > tolerance:
                break
            if pids[i] == pids[j]:
                continue
            top_i = set(np.argsort(-np.abs(shap[i]))[:k].tolist())
            top_j = set(np.argsort(-np.abs(shap[j]))[:k].tolist())
            overlap = len(top_i & top_j)
            score = float(preds[j] - preds[i]) + overlap
            if best is None or score < best[0]:
                best = (score, int(i), int(j))
    if best is None:
        raise RuntimeError("no same-prediction patient pair found")

    _, i, j = best
    expl_i, expl_j = local_reports(
        shap[[i, j]], X[[i, j]], names, expected_value, k=k
    )
    return MatchedPair(
        patient_a=str(pids[i]),
        patient_b=str(pids[j]),
        prediction_a=float(preds[i]),
        prediction_b=float(preds[j]),
        explanation_a=expl_i,
        explanation_b=expl_j,
    )


def render_fig6(pair: MatchedPair) -> str:
    """Plain-text rendering of the two reports."""
    lines = [
        "FIG6: two patients, same SPPB prediction, different explanations",
        f"  patient A = {pair.patient_a} (pred {pair.prediction_a:.2f})",
        *("  " + line for line in pair.explanation_a.render().splitlines()),
        f"  patient B = {pair.patient_b} (pred {pair.prediction_b:.2f})",
        *("  " + line for line in pair.explanation_b.render().splitlines()),
        f"  shared top-5 features: {sorted(pair.shared_top_features)}",
    ]
    return "\n".join(lines)
