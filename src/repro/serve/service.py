"""Micro-batched scoring over a fitted model, with an exact result cache.

A :class:`ScoringService` is constructed once per model version and then
answers arbitrarily many heterogeneous requests.  Three mechanisms make
the hot path fast without changing a single output bit:

1. **Structure reuse** — the batched TreeSHAP engine preprocesses every
   tree once at service construction
   (:class:`repro.explain.TreeShapExplainer`); requests never rebuild
   decision structures.
2. **Micro-batching** — a batch of requests is quantized with one
   ``BinMapper.transform``, predicted with one ``predict_raw_binned``
   sweep, explained with one ``shap_values_binned`` call and reported
   with one batch ``top_k_features`` call, regardless of how the
   predict/explain flags are mixed across requests.
3. **Exact caching** — results are cached under ``(version tag, row bin
   codes)``.  Codes are the model's own quantized representation, so a
   hit is bitwise-identical to recomputation; repeated-cohort traffic
   (the same patients scored at every visit) short-circuits entirely.
   Duplicate rows *within* one batch are computed once, too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.boosting.gbm import GBClassifier
from repro.explain.reports import LocalExplanation, top_k_features
from repro.explain.treeshap import TreeShapExplainer
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.registry import ModelRegistry, model_fingerprint

__all__ = [
    "ScoreRequest",
    "ScoreResult",
    "ScoringService",
    "ServiceStats",
    "stack_request_rows",
    "registry_model",
]


def stack_request_rows(
    requests: Sequence["ScoreRequest"], n_features: int
) -> np.ndarray:
    """Validate and stack request rows into one ``(n, d)`` matrix.

    Shared by the single-process service and the multi-worker router so
    both fronts reject malformed rows identically.
    """
    rows = np.empty((len(requests), n_features), dtype=np.float64)
    for i, req in enumerate(requests):
        row = np.asarray(req.row, dtype=np.float64)
        if row.shape != (n_features,):
            raise ValueError(
                f"request {i}: expected row of shape "
                f"({n_features},), got {row.shape}"
            )
        rows[i] = row
    return rows


def registry_model(
    registry: ModelRegistry, name: str, tag: str | None, kwargs: dict
):
    """Load ``name@tag`` and default the scoring-front kwargs.

    Resolves the tag, loads the model, and fills in ``version`` (the
    stable registry reference, no re-fingerprinting) and
    ``feature_names`` (from the published metadata) unless the caller
    set them — the one loading convention behind both
    ``ScoringService.from_registry`` and ``ScoringRouter.from_registry``.
    """
    tag = registry.resolve(name, tag)
    model = registry.load(name, tag)
    kwargs.setdefault("version", f"{name}@{tag}")
    if "feature_names" not in kwargs:
        features = registry.describe(name, tag).metadata.get("features")
        if features is not None:
            kwargs["feature_names"] = list(features)
    return model


@dataclass(frozen=True)
class ScoreRequest:
    """One row to score.

    Attributes
    ----------
    row:
        Raw feature values (NaN = missing), length ``n_features``.
    explain:
        Whether to also compute the SHAP attribution report.
    """

    row: np.ndarray
    explain: bool = False


@dataclass(frozen=True)
class ScoreResult:
    """The service's answer for one request.

    Attributes
    ----------
    raw_score:
        The ensemble margin (identical scale for both estimator kinds).
    prediction:
        Point prediction — the raw score for regressors, the class
        label for classifiers.
    probability:
        P(class = 1) for classifiers, None for regressors.
    explanation:
        Top-k attribution report when the request asked for one.
    cached:
        True when every field the request needed came from the cache.
    """

    raw_score: float
    prediction: float
    probability: float | None
    explanation: LocalExplanation | None
    cached: bool


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`ScoringService`."""

    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    batch_dedup_hits: int = 0
    predicted_rows: int = 0
    explained_rows: int = 0
    total_seconds: float = 0.0

    @property
    def rows_per_second(self) -> float:
        """Lifetime request throughput (0 when idle)."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.requests / self.total_seconds


@dataclass
class _Entry:
    """Cached per-row results (raw score always, SHAP row lazily)."""

    raw: float
    phi: np.ndarray | None = None


@dataclass
class _Plan:
    """Which requests a batch can serve from cache vs must compute.

    ``entry_by_key`` keeps a strong reference to every entry the batch
    touches, so assembly is immune to the cache evicting entries of the
    very batch being computed (capacity smaller than the batch).
    """

    keys: list
    satisfied: list
    deduped: list
    entry_by_key: dict = field(default_factory=dict)
    predict_rows: dict = field(default_factory=dict)
    explain_rows: dict = field(default_factory=dict)


class ScoringService:
    """Answer prediction/explanation requests for one model version.

    Parameters
    ----------
    model:
        A fitted ``GBRegressor``/``GBClassifier`` carrying its
        ``mapper_`` (models loaded through the registry always do).
    version:
        Cache namespace tag; defaults to the model's content
        fingerprint, so two services over identical models share
        semantics (and never collide with a different model).
    feature_names:
        Column names used in attribution reports; defaults to
        ``f0..f{d-1}``.
    cache_size:
        LRU capacity in rows (0 disables caching).
    top_k:
        Features per attribution report (the paper reports 5).
    """

    def __init__(
        self,
        model,
        *,
        version: str | None = None,
        feature_names: Sequence[str] | None = None,
        cache_size: int = 4096,
        top_k: int = 5,
    ):
        if getattr(model, "ensemble_", None) is None:
            raise ValueError("model is not fitted")
        if getattr(model, "mapper_", None) is None:
            raise ValueError(
                "model carries no fitted BinMapper (mapper_); reload it "
                "through the registry (format v2) or refit"
            )
        self.model = model
        self.explainer = TreeShapExplainer(model)
        if not self.explainer.supports_binned:
            raise ValueError(
                "model trees carry no bin thresholds; the service "
                "requires the binned fast path"
            )
        # Predict through the hash-consed DAG (one shared node table,
        # all trees advanced in one fused frontier loop) — bitwise
        # identical to the per-tree ensemble path.  The model cons-es
        # (and caches) its own table here unless it already holds one.
        compact = getattr(model, "compact_", None)
        if compact is None and callable(getattr(model, "compact", None)):
            compact = model.compact()
        self._engine = compact if compact is not None else model.ensemble_
        self.n_features = int(model.n_features_)
        if version is None:
            from repro.boosting.serialize import model_to_dict

            version = model_fingerprint(model_to_dict(model))
        self.version = version
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(self.n_features)]
        if len(feature_names) != self.n_features:
            raise ValueError(
                f"got {len(feature_names)} feature names for a model "
                f"fitted on {self.n_features} features"
            )
        self.feature_names = list(feature_names)
        self.top_k = top_k
        self._cache = LRUCache(cache_size)
        self._stats = ServiceStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        name: str,
        tag: str | None = None,
        **kwargs,
    ) -> "ScoringService":
        """Load ``name@tag`` (default latest) and wrap it in a service.

        The cache version is the registry reference, so it is stable
        across processes without re-fingerprinting the document.
        """
        return cls(registry_model(registry, name, tag, kwargs), **kwargs)

    # ------------------------------------------------------------------
    def score_batch(
        self,
        requests: Sequence[ScoreRequest],
        codes: np.ndarray | None = None,
    ) -> list[ScoreResult]:
        """Score a heterogeneous micro-batch with single engine calls.

        ``codes`` optionally passes the rows' bin codes computed
        upstream (they must come from this model's own mapper — the
        router already quantizes every batch for shard hashing, so its
        workers skip re-binning).  Codes from the same mapper are
        bitwise identical wherever they are computed, so the option
        never changes a result.
        """
        if not requests:
            return []
        t0 = time.perf_counter()
        rows = self._stack_rows(requests)
        if codes is None:
            codes = self.model.bin(rows)
        else:
            codes = np.asarray(codes)
            if codes.shape != rows.shape:
                raise ValueError(
                    f"expected codes of shape {rows.shape}, "
                    f"got {codes.shape}"
                )
        plan = self._plan(requests, codes)
        self._compute(plan, codes)
        results = self._assemble(requests, rows, plan)
        self._stats.requests += len(requests)
        self._stats.batches += 1
        self._stats.total_seconds += time.perf_counter() - t0
        return results

    def score_rows(self, X: np.ndarray, explain: bool = False) -> list[ScoreResult]:
        """Convenience wrapper: one homogeneous batch from a matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D input, got shape {X.shape}")
        return self.score_batch(
            [ScoreRequest(row=X[i], explain=explain) for i in range(X.shape[0])]
        )

    # ------------------------------------------------------------------
    def _stack_rows(self, requests: Sequence[ScoreRequest]) -> np.ndarray:
        return stack_request_rows(requests, self.n_features)

    def _plan(self, requests: Sequence[ScoreRequest], codes: np.ndarray) -> _Plan:
        """Split a batch into cache hits, in-batch duplicates and misses."""
        plan = _Plan(keys=[], satisfied=[], deduped=[])
        for i, req in enumerate(requests):
            key = (self.version, codes[i].tobytes())
            if key in plan.entry_by_key:
                entry = plan.entry_by_key[key]
            elif key in plan.predict_rows:
                entry = None  # known missing; don't re-count the lookup
            else:
                entry = self._cache.get(key)
                if entry is not None:
                    plan.entry_by_key[key] = entry
            needs_predict = entry is None
            needs_explain = req.explain and (entry is None or entry.phi is None)
            predict_owner = (
                plan.predict_rows.setdefault(key, i) if needs_predict else None
            )
            explain_owner = (
                plan.explain_rows.setdefault(key, i) if needs_explain else None
            )
            hit = not needs_predict and not needs_explain
            plan.keys.append(key)
            plan.satisfied.append(hit)
            plan.deduped.append(
                not hit
                and (predict_owner is None or predict_owner != i)
                and (explain_owner is None or explain_owner != i)
            )
        return plan

    def _compute(self, plan: _Plan, codes: np.ndarray) -> None:
        """Run the (at most) two batched engine calls and fill the cache."""
        touched: dict = {}
        if plan.predict_rows:
            idx = np.fromiter(plan.predict_rows.values(), dtype=np.int64)
            raw = self._engine.predict_raw_binned(
                codes[idx], self.model.mapper_.missing_bin
            )
            for key, r in zip(plan.predict_rows, raw):
                entry = _Entry(raw=float(r))
                plan.entry_by_key[key] = entry
                touched[key] = entry
            self._stats.predicted_rows += len(idx)
        if plan.explain_rows:
            idx = np.fromiter(plan.explain_rows.values(), dtype=np.int64)
            # F order matches the engine's per-tree column gathers (the
            # batch codes are C order for the per-row cache keys).
            phi = self.explainer.shap_values_binned(np.asfortranarray(codes[idx]))
            for j, key in enumerate(plan.explain_rows):
                # The entry exists by now: either freshly predicted above
                # or cached with only its SHAP row missing.  Copy the row
                # out of the batch result so a cached entry doesn't pin
                # the whole (n, d) array alive for its LRU lifetime.
                entry = plan.entry_by_key[key]
                entry.phi = phi[j].copy()
                touched[key] = entry
            self._stats.explained_rows += len(idx)
        for key, entry in touched.items():
            self._cache.put(key, entry)

    def _assemble(
        self,
        requests: Sequence[ScoreRequest],
        rows: np.ndarray,
        plan: _Plan,
    ) -> list[ScoreResult]:
        entries = [plan.entry_by_key[key] for key in plan.keys]
        # Every report of the batch comes from one top_k_features call
        # over the stacked SHAP rows of the explained requests.
        explained = [i for i, req in enumerate(requests) if req.explain]
        reports = iter(())
        if explained:
            reports = iter(
                top_k_features(
                    np.stack([entries[i].phi for i in explained]),
                    rows[explained],
                    self.feature_names,
                    prediction=[entries[i].raw for i in explained],
                    expected_value=self.explainer.expected_value,
                    k=self.top_k,
                )
            )
        results = []
        is_classifier = isinstance(self.model, GBClassifier)
        for i, req in enumerate(requests):
            raw = entries[i].raw
            if is_classifier:
                probability = float(self.model.proba_from_raw(raw))
                prediction = float(probability >= 0.5)
            else:
                probability = None
                prediction = raw
            explanation = next(reports) if req.explain else None
            if plan.satisfied[i]:
                self._stats.cache_hits += 1
            elif plan.deduped[i]:
                self._stats.batch_dedup_hits += 1
            results.append(
                ScoreResult(
                    raw_score=raw,
                    prediction=prediction,
                    probability=probability,
                    explanation=explanation,
                    cached=plan.satisfied[i],
                )
            )
        return results

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Lifetime service counters."""
        return self._stats

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the underlying result cache."""
        return self._cache.stats
