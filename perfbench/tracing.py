"""Spans and counters taken from outside the program.

A :class:`Tracer` wraps the public entry points of each layer
(``cohort``, ``pipeline``, ``learning``, ``boosting``, ``explain``,
``serve``) by replacing the attribute on its module or class, records
one span per call on the monotonic clock, and restores every original
on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.

A span's *self* time is its duration minus the time covered by the
wrapped spans nested inside it, per thread.  Spans and counts stay in
memory until the run reads :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "wrapped_targets"]

#: Marker attribute set on every wrapper, so a test can prove that no
#: wrapper survives into an untraced run.
WRAPPED = "__perfbench_span__"


def _grow_calls(tracer: "Tracer") -> int:
    return tracer.calls["boosting.grow"]


def _fit_before(tracer, args):
    return _grow_calls(tracer)


def _fit_after(tracer, args, grows_before):
    model = args[0]
    tracer.counts["fit.trees_grown"] += _grow_calls(tracer) - grows_before
    tracer.counts["fit.trees_kept"] += int(model.best_iteration_ or 0)


def _shap_after(tracer, args, _state):
    tracer.counts["shap.rows"] += int(args[1].shape[0])


def _service_counters(service) -> tuple[int, ...]:
    cache = service.cache_stats
    stats = service.stats
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        stats.batch_dedup_hits,
        stats.requests,
    )


_SERVICE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "service.dedup",
    "service.requests",
)


def _score_before(tracer, args):
    return _service_counters(args[0])


def _score_after(tracer, args, before):
    after = _service_counters(args[0])
    for name, old, new in zip(_SERVICE_COUNTERS, before, after):
        tracer.counts[name] += new - old


def _targets() -> list[tuple[object, str, str, object, object]]:
    """``(owner, attribute, span, before_hook, after_hook)`` per entry point.

    Module-level functions are wrapped on the binding their callers use:
    the benchmark calls ``cohort``/``pipeline``/``learning`` through the
    modules named here, and the scoring service looks ``top_k_features``
    up in ``repro.serve.service``.
    """
    import repro.cohort
    import repro.learning.framework
    import repro.pipeline.samples
    import repro.serve.service
    from repro.boosting.binning import BinMapper
    from repro.boosting.dag import CompactEnsemble
    from repro.boosting.gbm import _BaseGB
    from repro.boosting.grower import TreeGrower
    from repro.boosting.tree import Tree
    from repro.explain.treeshap import TreeShapExplainer
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import ScoringService

    return [
        (repro.cohort, "generate_cohort", "cohort.generate", None, None),
        (repro.pipeline.samples, "build_dd_samples", "pipeline.dd", None, None),
        (repro.pipeline.samples, "build_kd_samples", "pipeline.kd", None, None),
        (
            repro.learning.framework,
            "run_protocol",
            "learning.protocol",
            None,
            None,
        ),
        (_BaseGB, "fit", "boosting.fit", _fit_before, _fit_after),
        (TreeGrower, "grow", "boosting.grow", None, None),
        (Tree, "predict_binned", "boosting.tree_predict", None, None),
        (BinMapper, "fit", "boosting.bin_fit", None, None),
        (BinMapper, "transform", "boosting.bin_transform", None, None),
        (
            CompactEnsemble,
            "predict_raw_binned",
            "boosting.dag_predict",
            None,
            None,
        ),
        (TreeShapExplainer, "__init__", "explain.structure", None, None),
        (
            TreeShapExplainer,
            "shap_values_binned",
            "explain.shap",
            None,
            _shap_after,
        ),
        (repro.serve.service, "top_k_features", "explain.report", None, None),
        (ModelRegistry, "publish", "serve.publish", None, None),
        (ModelRegistry, "load", "serve.load", None, None),
        (
            ScoringService,
            "score_batch",
            "serve.score_batch",
            _score_before,
            _score_after,
        ),
    ]


def wrapped_targets() -> list[str]:
    """``owner.attribute`` of every target currently carrying a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in _targets()
        if hasattr(getattr(owner, attr), WRAPPED)
    ]


class Tracer:
    """Per-process span and counter accumulators over wrapped entry points."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # Re-entrant: a signal handler may snapshot on the thread that is
        # inside a wrapper's bookkeeping.
        self._lock = threading.RLock()
        self._paused = False
        self._local = threading.local()
        self._restore: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """A plain copy of the accumulators (JSON-serialisable)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; a second install without uninstall raises."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for owner, attr, span, before, after in _targets():
            original = getattr(owner, attr)
            own = isinstance(owner, type) and attr in vars(owner)
            self._restore.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(span, original, before, after))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if isinstance(owner, type) and not own:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------------
    def _frames(self) -> list[float]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, span, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            state = before(tracer, args) if before is not None else None
            frames = tracer._frames()
            frames.append(0.0)
            t0 = tracer._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - t0
                nested = frames.pop()
                if frames:
                    frames[-1] += elapsed
                with tracer._lock:
                    tracer.seconds[span] += elapsed
                    tracer.self_seconds[span] += elapsed - nested
                    tracer.calls[span] += 1
                    if after is not None:
                        after(tracer, args, state)

        setattr(wrapper, WRAPPED, span)
        return wrapper

