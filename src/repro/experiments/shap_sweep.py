"""Row-sharded batched TreeSHAP sweeps for the Fig. 6/7 runners.

The batched engine is row-deterministic (see
:mod:`repro.explain.structure`), so sharding rows across the executor
is bitwise-identical to the serial pass for any worker count.
"""

from __future__ import annotations

# repro: scope[row-deterministic]
# A sweep's SHAP values must not depend on how its rows were sharded.

import pickle

import numpy as np

from repro.explain.treeshap import TreeShapExplainer
from repro.parallel import parallel_map, resolve_jobs

__all__ = ["parallel_shap"]


def _sweep_setup(arrays: dict[str, np.ndarray]):
    return pickle.loads(arrays["explainer"]), arrays["X"]


def _sweep_chunk(bounds: tuple[int, int], state) -> np.ndarray:
    explainer, X = state
    lo, hi = bounds
    return explainer.shap_values(X[lo:hi])


def parallel_shap(
    model, X: np.ndarray, *, n_jobs: int | None = None
) -> tuple[np.ndarray, float]:
    """Batched TreeSHAP over ``X``, row-sharded across the executor.

    Returns ``(phi, expected_value)``.  The explainer is built once in
    the parent and pickled into a byte array that rides the executor's
    shared-memory handoff next to ``X``; every worker unpickles it once
    and explains one contiguous chunk of rows.  The result is
    **bitwise identical** to the serial pass for any worker count
    (asserted in ``tests/experiments/test_parallel_sweeps.py``).
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
        shared={
            "explainer": np.frombuffer(pickle.dumps(explainer), np.uint8),
            "X": X,
        },
        setup=_sweep_setup,
    )
    return np.vstack(chunks), explainer.expected_value
