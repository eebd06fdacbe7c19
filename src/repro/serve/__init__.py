"""Model serving: registry, micro-batched scoring, exact result caching.

The training and explanation engines (:mod:`repro.boosting`,
:mod:`repro.explain`) answer *whole-matrix* questions fast; this package
turns them into a request/response subsystem — the paper's vision of a
fitted model assisting many clinical visits, scaled to heavy traffic:

``ModelRegistry``
    Content-addressed persistence of fitted estimators on top of
    :mod:`repro.boosting.serialize`: a version tag is the fingerprint of
    the model document, so publishing is idempotent and a tag uniquely
    names the exact trees, bin mapper and hyper-parameters that produced
    every cached result.
``ScoringService``
    Accepts heterogeneous requests (predict-only and predict+explain
    mixed), micro-batches them into single ``predict_binned`` /
    batched-TreeSHAP calls, and reuses the preprocessed per-tree
    structures across every request of the service's lifetime.
``LRUCache``
    Exact result cache keyed on ``(model version, row bin codes)``.  The
    bin codes are the model's own quantized view of a row — two rows
    with equal codes are indistinguishable to every tree — so cache hits
    return bitwise-identical predictions and SHAP values, never
    approximations.
``ScoringRouter``
    The multi-worker scoring plane (:mod:`repro.serve.router`): the
    parent builds one ``ScoringService`` per version and hands it to
    the worker pool as its state, pickled once; N workers each unpickle
    their own empty-cache copy, and
    the router shards each micro-batch of heterogeneous requests by
    bin-code hash.  Output is bitwise-identical to the single-process
    service for every worker count.
``ScoringServer``
    The network edge (:mod:`repro.serve.server`): an asyncio HTTP/1.1
    front end that batches posts on arrival over the router, admission
    control (:mod:`repro.serve.admission`), hot model swap driven by
    the registry's ``LATEST`` pointer, and a ``/metrics`` ops endpoint
    (:mod:`repro.serve.stats`).  Responses stay bitwise-identical to
    the in-process service at every worker count.
``python -m repro serve``
    Driver (:mod:`repro.serve.driver`): publish models into a registry,
    score cohort CSV tables end-to-end (streamed in chunks, optionally
    multi-worker via ``--jobs``), and ``start`` the HTTP server.
"""

from repro.serve.admission import AdmissionController
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.registry import ModelRegistry, ModelVersion, model_fingerprint
from repro.serve.router import RouterStats, ScoringRouter
from repro.serve.server import ScoringServer, ServerThread, result_to_wire
from repro.serve.service import (
    ScoreRequest,
    ScoreResult,
    ScoringService,
    ServiceStats,
)
from repro.serve.stats import LatencyWindow, ServerStats, metrics_payload

__all__ = [
    "AdmissionController",
    "CacheStats",
    "LatencyWindow",
    "LRUCache",
    "ModelRegistry",
    "ModelVersion",
    "model_fingerprint",
    "metrics_payload",
    "result_to_wire",
    "RouterStats",
    "ScoreRequest",
    "ScoreResult",
    "ScoringRouter",
    "ScoringServer",
    "ScoringService",
    "ServerThread",
    "ServerStats",
    "ServiceStats",
]
