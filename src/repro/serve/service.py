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
   An entry holds the raw score and, once the row has been explained,
   its ranked top-k (column indices, names and SHAP contributions), so
   a hit only picks the report's raw values out of the requesting row:
   no SHAP row is re-ranked.  Duplicate rows *within* one batch are
   computed once, too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.boosting.gbm import GBClassifier
from repro.explain.reports import (
    LocalExplanation,
    _local_explanation,
    top_k_features,
)
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
    both fronts reject malformed rows identically.  Well-formed batches
    are stacked by one ``np.array`` call; anything else goes through the
    per-row loop, which names the first bad request.
    """
    try:
        rows = np.array([req.row for req in requests], dtype=np.float64)
    except Exception:
        rows = None
    if rows is not None and rows.shape == (len(requests), n_features):
        return rows
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


def _score_result(
    raw_score: float,
    prediction: float,
    probability: float | None,
    explanation: LocalExplanation | None,
    cached: bool,
) -> ScoreResult:
    """``ScoreResult(...)`` without the frozen-dataclass ``__init__``.

    Builds the same object as the public constructor, as
    :func:`repro.explain.reports._local_explanation` does for reports.
    """
    result = object.__new__(ScoreResult)
    result.__dict__.update(
        raw_score=raw_score,
        prediction=prediction,
        probability=probability,
        explanation=explanation,
        cached=cached,
    )
    return result


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


class _Entry:
    """One cached row: its raw score, and its ranked top-k once explained.

    ``order`` holds the ranked column indices, ``features`` and
    ``contributions`` the matching names and SHAP values; a report's
    ``values`` are picked at ``order`` out of whichever row asks.
    """

    __slots__ = ("raw", "order", "features", "contributions")

    def __init__(self, raw: float):
        self.raw = raw
        self.order: list[int] | None = None
        self.features: tuple[str, ...] = ()
        self.contributions: tuple[float, ...] = ()


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
        rows = stack_request_rows(requests, self.n_features)
        if codes is None:
            codes = self.model.bin(rows)
        else:
            codes = np.asarray(codes)
            if codes.shape != rows.shape:
                raise ValueError(
                    f"expected codes of shape {rows.shape}, "
                    f"got {codes.shape}"
                )
        # Every row's cache key is its slice of one C-order byte string.
        blob = codes.tobytes()
        width = len(blob) // len(requests)
        keys = [
            (self.version, blob[i * width : (i + 1) * width])
            for i in range(len(requests))
        ]
        # ``entries`` holds every entry the batch touches (None while a
        # key is missing), so a cache smaller than the batch cannot evict
        # one mid-batch; ``predict``/``explain`` map each key to the
        # first row that must compute it.
        entries: dict = {}
        predict: dict = {}
        explain: dict = {}
        cached = []
        deduped = 0
        lookup = self._cache.get
        for i, (key, req) in enumerate(zip(keys, requests)):
            if key not in entries:
                entries[key] = lookup(key)
            entry = entries[key]
            if entry is None:
                owner = predict.setdefault(key, i) == i
                if req.explain:
                    owner = explain.setdefault(key, i) == i or owner
            elif req.explain and entry.order is None:
                owner = explain.setdefault(key, i) == i
            else:
                cached.append(True)
                continue
            cached.append(False)
            deduped += not owner
        reports = self._compute(rows, codes, entries, predict, explain)

        # A report the batch did not rank itself takes the entry's
        # ranking and the requesting row's values at the ranked
        # columns, picked for all such rows by one gather.
        borrowed = [
            i for i, req in enumerate(requests) if req.explain and i not in reports
        ]
        values = iter(())
        if borrowed:
            orders = [entries[keys[i]].order for i in borrowed]
            k = len(orders[0])
            cols = np.fromiter(
                chain.from_iterable(orders), dtype=np.intp, count=k * len(borrowed)
            )
            cols += np.repeat(np.asarray(borrowed, dtype=np.intp) * rows.shape[1], k)
            picked = rows.take(cols).tolist()
            values = (tuple(picked[j : j + k]) for j in range(0, len(picked), k))
        expected_value = float(self.explainer.expected_value)
        is_classifier = isinstance(self.model, GBClassifier)
        results = []
        for i, (key, req, hit) in enumerate(zip(keys, requests, cached)):
            entry = entries[key]
            raw = entry.raw
            if is_classifier:
                probability = float(self.model.proba_from_raw(raw))
                prediction = float(probability >= 0.5)
            else:
                probability = None
                prediction = raw
            if not req.explain:
                explanation = None
            elif i in reports:
                explanation = reports[i]
            else:
                explanation = _local_explanation(
                    raw,
                    expected_value,
                    entry.features,
                    entry.contributions,
                    next(values),
                )
            results.append(
                _score_result(raw, prediction, probability, explanation, hit)
            )
        self._stats.cache_hits += sum(cached)
        self._stats.batch_dedup_hits += deduped
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
    def _compute(
        self,
        rows: np.ndarray,
        codes: np.ndarray,
        entries: dict,
        predict: dict,
        explain: dict,
    ) -> dict:
        """Run the (at most) two batched engine calls and fill the cache.

        Returns the report of each row that ranked its own SHAP values.
        """
        if predict:
            idx = np.fromiter(predict.values(), dtype=np.int64, count=len(predict))
            raw = self._engine.predict_raw_binned(
                codes[idx], self.model.mapper_.missing_bin
            )
            for key, r in zip(predict, raw.tolist()):
                entries[key] = _Entry(r)
            self._stats.predicted_rows += len(idx)
        reports = {}
        if explain:
            idx = np.fromiter(explain.values(), dtype=np.int64, count=len(explain))
            # F order matches the engine's per-tree column gathers (the
            # batch codes are C order for the per-row cache keys).
            phi = self.explainer.shap_values_binned(np.asfortranarray(codes[idx]))
            ranked, orders = top_k_features(
                phi,
                rows[idx],
                self.feature_names,
                prediction=[entries[key].raw for key in explain],
                expected_value=self.explainer.expected_value,
                k=self.top_k,
                return_order=True,
            )
            for key, report, order in zip(explain, ranked, orders):
                # The entry exists by now: either freshly predicted above
                # or cached with only its ranking missing.
                entry = entries[key]
                entry.order = order
                entry.features = report.features
                entry.contributions = report.contributions
            reports = dict(zip(explain.values(), ranked))
            self._stats.explained_rows += len(idx)
        # Fresh entries first, then cached ones that gained a ranking.
        for key in chain(predict, (key for key in explain if key not in predict)):
            self._cache.put(key, entries[key])
        return reports

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Lifetime service counters."""
        return self._stats

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the underlying result cache."""
        return self._cache.stats
