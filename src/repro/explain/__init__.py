"""Shapley-value model interpretation (the paper's SHAP [11]).

The paper couples XGBoost with the SHAP TreeExplainer to produce local
(per-patient) and global (population) feature attributions.  This package
re-implements that machinery with two interchangeable engines:

``TreeShapExplainer`` / ``TreeShapInteractionExplainer``
    The production engines: exact polynomial-time *path-dependent*
    TreeSHAP (Lundberg et al., Algorithm 2), batched — each tree's
    decision structure is preprocessed once
    (:class:`~repro.explain.structure.TreeStructure`) and whole
    ``(n_samples, n_features)`` matrices are answered with vectorized
    EXTEND/UNWIND array operations, optionally routing samples in
    bin-code space through the model's fitted ``BinMapper``.
``ReferenceTreeShapExplainer`` / ``ReferenceTreeShapInteractionExplainer``
    The original recursive per-(sample, tree) implementation, kept as
    the reference oracle: the equivalence suite proves the batched
    engines match it (and brute force) to strict float tolerance.
``brute_force_shap``
    Exponential-time reference of the same value function (subset
    enumeration), used to property-test both fast engines.
``LocalExplanation`` / ``top_k_features`` / ``local_reports``
    Per-patient attribution reports (paper Fig. 6).  ``top_k_features``
    takes one row (one report) or a whole ``(n, d)`` batch (a list of
    reports from a single row-wise ranking pass); the per-row builder
    it replaced is kept in :mod:`repro.explain.reference` as its oracle.
``GlobalDependence`` / ``dependence_curve`` / ``detect_threshold``
    Population-level value-vs-SV curves and the automatic cutoff
    extraction the paper highlights in Fig. 7.
"""

from repro.explain.exact import brute_force_shap, tree_value_function
from repro.explain.interactions import TreeShapInteractionExplainer
from repro.explain.reference import (
    ReferenceTreeShapExplainer,
    ReferenceTreeShapInteractionExplainer,
)
from repro.explain.reports import (
    GlobalDependence,
    GlobalImportance,
    LocalExplanation,
    dependence_curve,
    detect_threshold,
    global_importance,
    local_reports,
    top_k_features,
)
from repro.explain.sampling import PermutationShapEstimator
from repro.explain.structure import TreeStructure, tree_expected_value
from repro.explain.treeshap import TreeShapExplainer

__all__ = [
    "TreeShapExplainer",
    "ReferenceTreeShapExplainer",
    "ReferenceTreeShapInteractionExplainer",
    "TreeStructure",
    "tree_expected_value",
    "brute_force_shap",
    "tree_value_function",
    "PermutationShapEstimator",
    "TreeShapInteractionExplainer",
    "LocalExplanation",
    "GlobalDependence",
    "GlobalImportance",
    "dependence_curve",
    "detect_threshold",
    "global_importance",
    "local_reports",
    "top_k_features",
]
