"""Recursive per-sample TreeSHAP — the reference oracle.

This is the original interpreter-bound implementation of exact
path-dependent TreeSHAP (Lundberg et al. 2018, Algorithm 2): one
recursive pass per (sample, tree) with explicit ``_Path`` bookkeeping,
plus the conditioned variant used for interaction values.  The
production engine is the batched one in
:mod:`repro.explain.treeshap` / :mod:`repro.explain.interactions`;
this module is kept verbatim as an independently-derived oracle for the
equivalence test suite (and both are property-tested against brute-force
subset enumeration in :mod:`repro.explain.exact`).

It also keeps the per-row top-k report builder
(:func:`reference_top_k_features`), the oracle of the batched
:func:`repro.explain.reports.top_k_features`.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.tree import LEAF, Tree, TreeEnsemble
from repro.explain.reports import LocalExplanation
from repro.explain.structure import tree_expected_value

__all__ = [
    "ReferenceTreeShapExplainer",
    "ReferenceTreeShapInteractionExplainer",
    "reference_top_k_features",
]


class _Path:
    """The subset-weight path of Algorithm 2 (parallel arrays).

    ``feature[i]``, ``zero_fraction[i]``, ``one_fraction[i]`` describe
    the i-th split on the current root-to-node path; ``pweight[i]`` is
    the summed weight of subsets of size i flowing down.
    """

    __slots__ = ("feature", "zero", "one", "weight", "length")

    def __init__(self, capacity: int):
        self.feature = np.empty(capacity, dtype=np.int64)
        self.zero = np.empty(capacity, dtype=np.float64)
        self.one = np.empty(capacity, dtype=np.float64)
        self.weight = np.empty(capacity, dtype=np.float64)
        self.length = 0

    def copy(self) -> "_Path":
        clone = _Path(len(self.feature))
        n = self.length
        clone.feature[:n] = self.feature[:n]
        clone.zero[:n] = self.zero[:n]
        clone.one[:n] = self.one[:n]
        clone.weight[:n] = self.weight[:n]
        clone.length = n
        return clone

    def extend(self, zero_fraction: float, one_fraction: float, feature: int):
        m = self.length
        self.feature[m] = feature
        self.zero[m] = zero_fraction
        self.one[m] = one_fraction
        self.weight[m] = 1.0 if m == 0 else 0.0
        for i in range(m - 1, -1, -1):
            self.weight[i + 1] += one_fraction * self.weight[i] * (i + 1) / (m + 1)
            self.weight[i] = zero_fraction * self.weight[i] * (m - i) / (m + 1)
        self.length = m + 1

    def unwind(self, index: int):
        m = self.length - 1
        one = self.one[index]
        zero = self.zero[index]
        n = self.weight[m]
        for i in range(m - 1, -1, -1):
            if one != 0.0:
                t = self.weight[i]
                self.weight[i] = n * (m + 1) / ((i + 1) * one)
                n = t - self.weight[i] * zero * (m - i) / (m + 1)
            else:
                self.weight[i] = self.weight[i] * (m + 1) / (zero * (m - i))
        for i in range(index, m):
            self.feature[i] = self.feature[i + 1]
            self.zero[i] = self.zero[i + 1]
            self.one[i] = self.one[i + 1]
        self.length = m

    def unwound_sum(self, index: int) -> float:
        """Sum of weights after a hypothetical unwind of ``index``."""
        m = self.length - 1
        one = self.one[index]
        zero = self.zero[index]
        total = 0.0
        if one != 0.0:
            n = self.weight[m]
            for i in range(m - 1, -1, -1):
                tmp = n * (m + 1) / ((i + 1) * one)
                total += tmp
                n = self.weight[i] - tmp * zero * (m - i) / (m + 1)
        else:
            for i in range(m - 1, -1, -1):
                total += self.weight[i] * (m + 1) / (zero * (m - i))
        return total


def _tree_shap(tree: Tree, x: np.ndarray, phi: np.ndarray) -> None:
    """Accumulate one tree's SHAP values for sample ``x`` into ``phi``."""
    max_depth = tree.max_depth() + 2

    def hot_cold(node: int) -> tuple[int, int]:
        v = x[tree.feature[node]]
        if np.isnan(v):
            go_left = bool(tree.missing_left[node])
        else:
            go_left = bool(v <= tree.threshold[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        return (left, right) if go_left else (right, left)

    def recurse(node: int, path: _Path, zero_fraction: float,
                one_fraction: float, feature: int) -> None:
        path = path.copy()
        path.extend(zero_fraction, one_fraction, feature)
        if tree.children_left[node] == LEAF:
            value = tree.value[node]
            for i in range(1, path.length):
                w = path.unwound_sum(i)
                phi[path.feature[i]] += (
                    w * (path.one[i] - path.zero[i]) * value
                )
            return

        hot, cold = hot_cold(node)
        split_feature = int(tree.feature[node])
        cover = tree.cover[node]
        hot_zero = tree.cover[hot] / cover
        cold_zero = tree.cover[cold] / cover
        incoming_zero, incoming_one = 1.0, 1.0
        # If this feature already appeared on the path, undo its entry
        # and carry its fractions (each feature appears at most once).
        for i in range(1, path.length):
            if path.feature[i] == split_feature:
                incoming_zero = path.zero[i]
                incoming_one = path.one[i]
                path.unwind(i)
                break
        recurse(hot, path, incoming_zero * hot_zero, incoming_one, split_feature)
        recurse(cold, path, incoming_zero * cold_zero, 0.0, split_feature)

    root_path = _Path(max_depth + 1)
    recurse(0, root_path, 1.0, 1.0, -1)


def _conditioned_tree_shap(
    tree: Tree,
    x: np.ndarray,
    phi: np.ndarray,
    condition: int,
    condition_feature: int,
) -> None:
    """TreeSHAP with one feature forced hot (+1) / cold (-1).

    ``condition = 0`` reduces to the unconditioned algorithm.
    """
    max_depth = tree.max_depth() + 2

    def hot_cold(node: int) -> tuple[int, int]:
        v = x[tree.feature[node]]
        if np.isnan(v):
            go_left = bool(tree.missing_left[node])
        else:
            go_left = bool(v <= tree.threshold[node])
        left = int(tree.children_left[node])
        right = int(tree.children_right[node])
        return (left, right) if go_left else (right, left)

    def recurse(
        node: int,
        path: _Path,
        zero_fraction: float,
        one_fraction: float,
        feature: int,
        condition_fraction: float,
    ) -> None:
        if condition_fraction == 0.0:
            return
        path = path.copy()
        # Skip crediting the conditioned feature on the path.
        if condition == 0 or condition_feature != feature:
            path.extend(zero_fraction, one_fraction, feature)
        if tree.children_left[node] == LEAF:
            value = tree.value[node]
            for i in range(1, path.length):
                w = path.unwound_sum(i)
                phi[path.feature[i]] += (
                    w * (path.one[i] - path.zero[i]) * value * condition_fraction
                )
            return

        hot, cold = hot_cold(node)
        split_feature = int(tree.feature[node])
        cover = tree.cover[node]
        hot_zero = tree.cover[hot] / cover
        cold_zero = tree.cover[cold] / cover

        hot_condition = condition_fraction
        cold_condition = condition_fraction
        if condition > 0 and split_feature == condition_feature:
            cold_condition = 0.0
        elif condition < 0 and split_feature == condition_feature:
            hot_condition *= hot_zero
            cold_condition *= cold_zero

        incoming_zero, incoming_one = 1.0, 1.0
        for i in range(1, path.length):
            if path.feature[i] == split_feature:
                incoming_zero = path.zero[i]
                incoming_one = path.one[i]
                path.unwind(i)
                break
        recurse(
            hot,
            path,
            incoming_zero * hot_zero,
            incoming_one,
            split_feature,
            hot_condition,
        )
        recurse(
            cold,
            path,
            incoming_zero * cold_zero,
            0.0,
            split_feature,
            cold_condition,
        )

    recurse(0, _Path(max_depth + 1), 1.0, 1.0, -1, 1.0)


class ReferenceTreeShapExplainer:
    """Per-sample recursive TreeSHAP over a fitted ensemble.

    Same contract as :class:`repro.explain.treeshap.TreeShapExplainer`
    (which is the batched production engine and matches this one to
    float tolerance — see ``tests/explain/test_batched_equivalence.py``),
    but O(n_samples * n_trees) recursive Python passes.  Kept as the
    oracle and as the baseline of the Fig. 6/7 explain benchmarks.
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
        self.expected_value = ensemble.base_score + sum(
            tree_expected_value(t) for t in ensemble.trees
        )

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """SHAP values, shape ``(n_samples, n_features)``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"expected 2-D input, got shape {X.shape}")
        phi = np.zeros(X.shape, dtype=np.float64)
        for tree in self.ensemble.trees:
            for i in range(X.shape[0]):
                _tree_shap(tree, X[i], phi[i])
        return phi

    def shap_values_single(self, x: np.ndarray) -> np.ndarray:
        """SHAP values of one sample, shape ``(n_features,)``."""
        return self.shap_values(np.asarray(x)[None, :])[0]


class ReferenceTreeShapInteractionExplainer:
    """Per-sample recursive SHAP interaction matrices (oracle).

    ``O(n_used_features)`` conditioned recursive passes per tree per
    sample; superseded by the batched
    :class:`repro.explain.interactions.TreeShapInteractionExplainer`.
    """

    def __init__(self, model):
        ensemble = getattr(model, "ensemble_", model)
        if not isinstance(ensemble, TreeEnsemble):
            raise TypeError("model must be a TreeEnsemble or fitted estimator")
        if ensemble.n_trees == 0:
            raise ValueError("cannot explain an empty ensemble")
        self.ensemble = ensemble

    def shap_interaction_values(self, x: np.ndarray, n_features: int) -> np.ndarray:
        """The ``(n_features, n_features)`` interaction matrix for ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"expected a single sample, got shape {x.shape}")

        out = np.zeros((n_features, n_features), dtype=np.float64)
        plain = np.zeros(n_features, dtype=np.float64)
        for tree in self.ensemble.trees:
            _conditioned_tree_shap(tree, x, plain, 0, -1)
            for i in [int(f) for f in tree.used_features()]:
                phi_on = np.zeros(n_features, dtype=np.float64)
                phi_off = np.zeros(n_features, dtype=np.float64)
                _conditioned_tree_shap(tree, x, phi_on, 1, i)
                _conditioned_tree_shap(tree, x, phi_off, -1, i)
                delta = (phi_on - phi_off) / 2.0
                delta[i] = 0.0
                out[i] += delta

        # Symmetrise is unnecessary (the construction is symmetric up to
        # float error) but cheap insurance; then set main effects so each
        # row sums to the plain SHAP value.
        out = (out + out.T) / 2.0
        np.fill_diagonal(out, 0.0)
        np.fill_diagonal(out, plain - out.sum(axis=1))
        return out


def reference_top_k_features(
    shap_row: np.ndarray,
    x_row: np.ndarray,
    feature_names: list[str],
    prediction: float,
    expected_value: float,
    k: int = 5,
) -> LocalExplanation:
    """Top-k local report for one sample, one Python pass per field."""
    shap_row = np.asarray(shap_row, dtype=np.float64)
    x_row = np.asarray(x_row, dtype=np.float64)
    if len(shap_row) != len(feature_names) or len(x_row) != len(feature_names):
        raise ValueError("shap/x/feature_names lengths differ")
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(-np.abs(shap_row))[:k]
    return LocalExplanation(
        prediction=float(prediction),
        expected_value=float(expected_value),
        features=tuple(feature_names[i] for i in order),
        contributions=tuple(float(shap_row[i]) for i in order),
        values=tuple(float(x_row[i]) for i in order),
    )
