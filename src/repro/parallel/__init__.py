"""Deterministic parallel execution on one supervised worker pool.

Every worker process is a :class:`ShardedPool` worker, with results
bitwise-identical to the serial path: :func:`parallel_map` runs the
grid's independent units (CV folds, Fig. 4 cells, per-clinic models,
ablation arms), and the scoring router shards rows across a persistent
pool.  A pool's inputs travel as one ``state`` object, pickled once and
sent down each worker's own pipe.  See :mod:`repro.parallel.executor`
for the execution model.

Worker-count selection: explicit ``n_jobs`` arguments beat the
``REPRO_JOBS`` environment variable; the default is serial.
"""

from repro.parallel.executor import (
    ShardedPool,
    in_worker,
    parallel_map,
    resolve_jobs,
)

__all__ = [
    "ShardedPool",
    "in_worker",
    "parallel_map",
    "resolve_jobs",
]
