"""Deterministic parallel execution on one supervised worker pool.

Every worker process is a :class:`ShardedPool` worker, with results
bitwise-identical to the serial path: :func:`parallel_map` runs the
grid's independent units (CV folds, Fig. 4 cells, per-clinic models,
ablation arms), and :class:`HistogramPool` (:mod:`repro.parallel.hist`)
shards one fit's histogram build across contiguous feature blocks.
See :mod:`repro.parallel.executor` for the execution model and
:mod:`repro.parallel.shared` for the shared-memory design-matrix
handoff.

Worker-count selection: explicit ``n_jobs`` arguments beat the
``REPRO_JOBS`` environment variable; the default is serial.
"""

from repro.parallel.executor import (
    ShardedPool,
    in_worker,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.hist import HistogramPool
from repro.parallel.shared import pack_samples, unpack_samples

__all__ = [
    "ShardedPool",
    "HistogramPool",
    "in_worker",
    "parallel_map",
    "resolve_jobs",
    "pack_samples",
    "unpack_samples",
]
