"""Batched exact path-dependent TreeSHAP (Lundberg et al. 2018, Alg. 2).

For one tree and one sample, Shapley values of the tree's conditional-
expectation value function are computed in ``O(L * D^2)`` by maintaining,
along each root-to-leaf path, the weighted fractions of feature subsets
that flow down the path ("EXTEND"/"UNWIND" bookkeeping).  Ensemble SHAP
values are sums over trees, plus the ensemble ``base_score`` folded into
the expected value.

This module holds the *batched* engine: each tree's decision structure
is preprocessed once into :class:`repro.explain.structure.TreeStructure`
(root-to-leaf path feature/cover-fraction arrays, duplicate-feature
merge, null-entry padding), every sample's go-left decision at every
internal node is evaluated in one vectorized pass (optionally in bin-code
space through a fitted :class:`repro.boosting.binning.BinMapper` — the
same fast path :meth:`Tree.predict_binned` uses), and the EXTEND/UNWIND
recurrences then run as NumPy array operations across an entire
``(n_samples, n_leaves)`` panel at once instead of one recursive Python
pass per (sample, tree).

Correctness anchors:

* the recursive oracle in :mod:`repro.explain.reference`
  (``ReferenceTreeShapExplainer``) — matched to strict float tolerance;
* brute-force subset enumeration in :mod:`repro.explain.exact`;

both exercised over NaN routing, duplicated path features, permuted
node layouts and single-node trees in
``tests/explain/test_batched_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.tree import TreeEnsemble
from repro.explain.structure import (
    TreeStructure,
    node_decisions,
    node_decisions_binned,
)

__all__ = ["TreeShapExplainer"]


def _extend_weights(one: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """EXTEND the subset-weight recurrence across a (samples, leaves) panel.

    ``one`` is ``(n, L, m)`` per-sample one fractions (0/1 floats),
    ``zero`` is ``(L, m)`` zero fractions.  Returns the ``(n, L, m+1)``
    path-weight tensor: position ``k`` holds the summed weight of
    feature subsets of size ``k`` flowing down each leaf's path (index 0
    is Algorithm 2's dummy root entry).
    """
    n, L, m = one.shape
    weights = np.zeros((n, L, m + 1), dtype=np.float64)
    weights[..., 0] = 1.0
    for d in range(1, m + 1):
        o_d = one[..., d - 1]
        z_d = zero[:, d - 1]
        for i in range(d - 1, -1, -1):
            weights[..., i + 1] += o_d * weights[..., i] * ((i + 1) / (d + 1))
            weights[..., i] *= z_d * ((d - i) / (d + 1))
    return weights


def _unwound_sums(
    weights: np.ndarray, one_e: np.ndarray, zero_e: np.ndarray
) -> np.ndarray:
    """Summed weights after hypothetically UNWINDing one path entry.

    ``weights`` is ``(n, L, M+1)``; ``one_e``/``zero_e`` are the entry's
    fractions, shapes ``(n, L)`` and ``(L,)``.  Both the hot
    (``one == 1``) and cold (``one == 0``) closed forms are evaluated
    vectorized and selected per element.
    """
    M = weights.shape[-1] - 1
    nvec = weights[..., M].copy()
    total_hot = np.zeros_like(nvec)
    for i in range(M - 1, -1, -1):
        tmp = nvec * ((M + 1) / (i + 1))
        total_hot += tmp
        nvec = weights[..., i] - tmp * zero_e * ((M - i) / (M + 1))
    coef = (M + 1) / (M - np.arange(M, dtype=np.float64))
    # Elementwise product + fixed-axis sum instead of a matmul: the
    # reduction order then depends only on M, never on the batch shape,
    # keeping per-row results bitwise stable under any batching.
    total_cold = (weights[..., :M] * coef).sum(axis=-1) / zero_e
    return np.where(one_e == 1.0, total_hot, total_cold)


def _plain_deltas(
    struct: TreeStructure, one: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per-(sample, leaf, entry) unconditioned SHAP deltas."""
    delta = np.empty_like(one)
    for e in range(one.shape[-1]):
        total = _unwound_sums(weights, one[..., e], struct.zeros[:, e])
        delta[..., e] = (
            total * (one[..., e] - struct.zeros[:, e]) * struct.leaf_values
        )
    return delta


def _accumulate_tree(
    struct: TreeStructure, decisions: np.ndarray, phi: np.ndarray
) -> None:
    """Add one tree's SHAP values for all samples into ``phi``."""
    one = struct.hot_fractions(decisions)
    weights = _extend_weights(one, struct.zeros)
    n, L, m = one.shape
    delta = _plain_deltas(struct, one, weights)
    phi[:, struct.used] += struct.fold(delta.reshape(n, L * m))


class _PreprocessedExplainer:
    """Shared model intake for the batched explainers.

    Extracts the ensemble, builds one :class:`TreeStructure` per tree,
    records the fitted feature count (strict input validation) and the
    fitted ``BinMapper`` (bin-space routing fast path), and provides the
    per-tree decision-matrix dispatch.
    """

    def __init__(self, model):
        ensemble = getattr(model, "ensemble_", model)
        if not isinstance(ensemble, TreeEnsemble):
            raise TypeError(
                "model must be a TreeEnsemble or a fitted GB estimator"
            )
        if ensemble.n_trees == 0:
            raise ValueError("cannot explain an empty ensemble")
        self.ensemble = ensemble
        #: Feature count the model was fitted on (None for bare ensembles).
        self.n_features_ = getattr(model, "n_features_", None)
        #: The BinMapper the trees were grown with, enabling bin-space
        #: routing; None falls back to raw thresholds.  Must be the
        #: fitted model's own mapper — codes from any other mapper are
        #: meaningless against the trees' ``bin_threshold``.
        self.bin_mapper = getattr(model, "mapper_", None)
        self._structures = [TreeStructure(t) for t in ensemble.trees]
        self._min_features = max(
            (s.min_features for s in self._structures), default=0
        )
        self._binnable = all(
            t.bin_threshold is not None for t in ensemble.trees
        )

    def _check_columns(self, n_columns: int) -> None:
        if self.n_features_ is not None and n_columns != self.n_features_:
            raise ValueError(
                f"X has {n_columns} feature columns, but the explained "
                f"model was fitted on {self.n_features_} features"
            )
        if n_columns < self._min_features:
            raise ValueError(
                f"X has {n_columns} feature columns, but the ensemble "
                f"splits on feature index {self._min_features - 1}"
            )

    @property
    def supports_binned(self) -> bool:
        """Whether pre-binned uint8 codes can be routed directly."""
        return self.bin_mapper is not None and self._binnable

    def _decisions_for(self, X: np.ndarray):
        """Per-tree go-left decision factory (binned when possible)."""
        if self.supports_binned:
            # F order: the per-tree decision matrices gather columns.
            binned = self.bin_mapper.transform(X, order="F")
            return self._decisions_for_binned(binned)
        return lambda tree: node_decisions(tree, X)

    def _decisions_for_binned(self, binned: np.ndarray):
        """Per-tree decision factory over already-quantized codes."""
        missing_bin = self.bin_mapper.missing_bin
        return lambda tree: node_decisions_binned(tree, binned, missing_bin)

    def _check_binned(self, binned: np.ndarray) -> np.ndarray:
        if not self.supports_binned:
            raise RuntimeError(
                "model carries no fitted BinMapper / bin thresholds; "
                "use the raw-input entry point instead"
            )
        binned = np.asarray(binned)
        if binned.ndim != 2:
            raise ValueError(f"expected 2-D input, got shape {binned.shape}")
        self._check_columns(binned.shape[1])
        return binned


class TreeShapExplainer(_PreprocessedExplainer):
    """Exact batched TreeSHAP over a fitted ensemble.

    Parameters
    ----------
    model:
        Either a :class:`~repro.boosting.tree.TreeEnsemble` or a fitted
        estimator exposing ``ensemble_`` (``GBRegressor``,
        ``GBClassifier``).  Fitted estimators also contribute their
        recorded feature count (strict input validation) and their
        ``mapper_`` (bin-space routing fast path).

    Notes
    -----
    Attributions are on the *raw score* scale (log-odds for the
    classifier), matching ``shap.TreeExplainer`` with default arguments:
    ``expected_value + shap_values(x).sum() == raw_prediction(x)``
    exactly (the efficiency axiom, property-tested).
    """

    def __init__(self, model):
        super().__init__(model)
        self.expected_value = self.ensemble.base_score + sum(
            s.expected_value for s in self._structures
        )

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """SHAP values, shape ``(n_samples, n_features)``.

        ``X`` may contain NaN (routed by each split's default direction,
        like prediction).  When the model's fitted ``BinMapper`` is
        available and every tree carries bin thresholds, sample routing
        runs in bin-code space — exactly equivalent to raw-threshold
        routing, but free of NaN checks.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"expected 2-D input, got shape {X.shape}")
        self._check_columns(X.shape[1])

        decisions_for = self._decisions_for(X)
        phi = np.zeros(X.shape, dtype=np.float64)
        for struct in self._structures:
            if struct.n_entries == 0:
                continue
            _accumulate_tree(struct, decisions_for(struct.tree), phi)
        return phi

    def shap_values_single(self, x: np.ndarray) -> np.ndarray:
        """SHAP values of one sample, shape ``(n_features,)``."""
        return self.shap_values(np.asarray(x)[None, :])[0]

    def shap_values_binned(self, binned: np.ndarray) -> np.ndarray:
        """SHAP values from pre-binned uint8 codes.

        ``binned`` must come from the model's own fitted ``BinMapper``
        (e.g. ``model.bin(X)``); the result is bitwise-identical to
        :meth:`shap_values` on the raw rows.  This is the serving entry
        point: repeated requests reuse the preprocessed tree structures
        *and* skip re-quantization.
        """
        binned = self._check_binned(binned)
        decisions_for = self._decisions_for_binned(binned)
        phi = np.zeros(binned.shape, dtype=np.float64)
        for struct in self._structures:
            if struct.n_entries == 0:
                continue
            _accumulate_tree(struct, decisions_for(struct.tree), phi)
        return phi
