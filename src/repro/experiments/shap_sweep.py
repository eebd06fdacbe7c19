"""Row-sharded batched TreeSHAP sweeps for the Fig. 6/7 runners.

The batched engine is row-deterministic (see
:mod:`repro.explain.structure`), so sharding rows across the executor
is bitwise-identical to the serial pass for any worker count.
"""

from __future__ import annotations

# repro: scope[row-deterministic]
# A sweep's SHAP values must not depend on how its rows were sharded.

import numpy as np

from repro.explain.treeshap import TreeShapExplainer
from repro.parallel import parallel_map, resolve_jobs

__all__ = ["parallel_shap"]


def _sweep_chunk(bounds: tuple[int, int], state) -> np.ndarray:
    explainer, X = state
    lo, hi = bounds
    return explainer.shap_values(X[lo:hi])


def parallel_shap(
    model, X: np.ndarray, *, n_jobs: int | None = None
) -> tuple[np.ndarray, float]:
    """Batched TreeSHAP over ``X``, row-sharded across the executor.

    Returns ``(phi, expected_value)``.  The explainer is built once in
    the parent and handed to the pool with ``X`` as its state; every
    worker unpickles the pair once and explains one contiguous chunk of
    rows.  The result is **bitwise identical** to the serial pass for
    any worker count (asserted in
    ``tests/experiments/test_parallel_sweeps.py``).
    """
    X = np.asarray(X, dtype=np.float64)
    explainer = TreeShapExplainer(model)
    jobs = min(resolve_jobs(n_jobs), max(int(X.shape[0]), 1))
    if jobs <= 1:
        return explainer.shap_values(X), explainer.expected_value
    bounds = np.linspace(0, X.shape[0], jobs + 1).astype(np.int64)
    chunks = parallel_map(
        _sweep_chunk,
        [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])],
        n_jobs=jobs,
        state=(explainer, X),
    )
    return np.vstack(chunks), explainer.expected_value
