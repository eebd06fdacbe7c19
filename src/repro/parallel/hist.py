"""Intra-fit parallel histogram accumulation (feature-block sharding).

The tree grower's per-level candidate scan is dominated by building the
``(n_channels, n_features, stride)`` gradient/hessian histograms of
every scannable node.  :class:`HistogramPool` parallelises that build
*inside a single fit* without changing a single bit of the result:

* Features are partitioned once into contiguous blocks, one per worker.
  Block ownership is **fixed for the life of the pool**, so every
  (feature, bin) cell is always accumulated by the same worker.
* :class:`HistogramPool` is a :class:`~repro.parallel.executor.ShardedPool`
  client: block ``w`` is shard ``w``, so the pool's one supervisor
  spawns, heals, kills and closes the block workers.
* The F-contiguous binned matrix is exported to POSIX shared memory
  once per fit; the round's gradient/hessian arrays are written into a
  pre-created shared buffer once per boosting round
  (:meth:`HistogramPool.begin_round`).  Each worker's ``setup`` maps the
  binned matrix read-only and the wave buffers writable — nothing large
  is ever pickled.
* The grower batches all nodes of a tree level into one *wave*
  (:meth:`HistogramPool.accumulate`): the concatenated row indices are
  written to a shared scratch buffer, one task per block carries
  ``(f0, f1, wave bounds, n_channels, mask)``, each
  worker bincounts its feature block for every node of the wave into
  its disjoint slice of a shared output buffer, and the parent copies
  the assembled histograms out.

Bitwise determinism
-------------------
Each (feature, bin) cell is one ``np.bincount`` over the node's rows in
ascending row order — exactly the serial grower's accumulation — and
float64 throughout.  Sharding only decides *which process* runs a
cell's bincount, never the order of the additions inside it, so the
assembled histograms are bitwise identical to the serial path for any
worker count (asserted end-to-end in
``tests/boosting/test_parallel_fit.py``).

Robustness is the supervisor's: ``n_jobs <= 1`` — and any parent that
cannot fork (spawn platforms, multithreaded parents) — accumulates
in-process; a worker dying mid-fit routes its feature block to
in-process recompute for the current wave — slower, never different —
and the supervisor respawns the slot (bounded backoff) before a later
wave, re-mapping the same segments and the same feature block, so block
ownership (and with it bitwise identity) survives any kill schedule.
With ``task_deadline`` set a *stuck* worker is detected mid-wave, its
block recomputed in-process and the process killed for respawn.  The
fault sites keep their ``hist.*`` names.  Inside an executor worker
:func:`~repro.parallel.executor.resolve_jobs` answers 1, so
grid-parallel experiment runs never nest a second-level histogram pool.
"""
# repro: scope[row-deterministic]

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.parallel.executor import ShardedPool, _start_method, resolve_jobs
from repro.parallel.shared import _ArraySpec, attach_shared, release_shared

__all__ = ["FLAT_CELLS_MAX", "HistogramPool"]

#: The output buffer always reserves three channels (grad, hess, count)
#: even for unit-hessian rounds that use only two.
_MAX_CHANNELS = 3

#: Capacity ceiling of the shared output buffer; waves with more nodes
#: than fit are transparently chunked.
_OUT_CAP_BYTES = 32 << 20

#: Nodes with at most this many rows x features cells accumulate with
#: one flat offset-codes bincount instead of the per-feature loop.  The
#: serial grower reads the same constant: both sides must pick the same
#: path for a node, since the flat path also fills masked-out features.
FLAT_CELLS_MAX = 1 << 18


def _feature_blocks(n_features: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous ``[f0, f1)`` blocks, balanced to within one feature."""
    jobs = max(1, min(jobs, n_features))
    base, extra = divmod(n_features, jobs)
    blocks: list[tuple[int, int]] = []
    start = 0
    for w in range(jobs):
        stop = start + base + (1 if w < extra else 0)
        blocks.append((start, stop))
        start = stop
    return blocks


def _accumulate_block(
    binned: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    rows: np.ndarray,
    hist: np.ndarray,
    f0: int,
    f1: int,
    mask: np.ndarray | None,
) -> None:
    """Fill ``hist[:, f0:f1, :]`` with one node's per-(feature, bin) sums.

    This is the serial grower's accumulation restricted to one feature
    block: every (feature, bin) cell is a single ``np.bincount`` over
    ``rows`` in ascending row order, so the result is independent of
    how features are partitioned across workers.  Nodes of at most
    :data:`FLAT_CELLS_MAX` rows x features cells (counted over the whole
    matrix, as the grower counts them) use the flat offset-codes
    bincount (which, like the serial flat path, also
    fills features excluded by ``mask`` — harmless, every consumer is
    mask-guarded); large nodes accumulate one masked-in feature at a
    time, leaving masked-out features at exact zero.
    """
    nch = hist.shape[0]
    stride = hist.shape[2]
    unit_hess = nch == 2
    block = hist[:, f0:f1, :]
    g_rows = grad[rows]
    if rows.size * binned.shape[1] <= FLAT_CELLS_MAX:
        d_block = f1 - f0
        offsets = np.arange(d_block, dtype=np.int64) * stride
        flat = (binned[rows, f0:f1].astype(np.int64) + offsets).ravel()
        size = d_block * stride
        block[0] = np.bincount(
            flat, weights=np.repeat(g_rows, d_block), minlength=size
        ).reshape(d_block, stride)
        if unit_hess:
            block[1] = np.bincount(flat, minlength=size).reshape(d_block, stride)
        else:
            block[1] = np.bincount(
                flat, weights=np.repeat(hess[rows], d_block), minlength=size
            ).reshape(d_block, stride)
            block[2] = np.bincount(flat, minlength=size).reshape(d_block, stride)
        return
    block[...] = 0.0
    h_rows = None if unit_hess else hess[rows]
    if mask is None:
        features = range(f0, f1)
    else:
        features = np.flatnonzero(mask[f0:f1]) + f0
    for f in features:
        codes = binned[:, f][rows]
        local = f - f0
        block[0, local] = np.bincount(codes, weights=g_rows, minlength=stride)
        if unit_hess:
            block[1, local] = np.bincount(codes, minlength=stride)
        else:
            block[1, local] = np.bincount(codes, weights=h_rows, minlength=stride)
            block[2, local] = np.bincount(codes, minlength=stride)


def _accumulate_wave(task: tuple, state: dict) -> None:
    """One block's share of a wave: every node's slice of ``out``."""
    f0, f1, bounds, nch, mask = task
    gh, rows, out = state["gh"], state["rows"], state["out"]
    for slot, (start, stop) in enumerate(bounds):
        _accumulate_block(
            state["binned"],
            gh[0],
            gh[1],
            rows[start:stop],
            out[slot, :nch],
            f0,
            f1,
            mask,
        )


def _map_wave_buffers(arrays: dict, buffers: dict) -> dict:
    """Worker setup: the binned matrix plus writable wave buffers."""
    state = attach_shared(buffers, writable=True)
    state["binned"] = arrays["binned"].T  # (n, d), F-contiguous view
    return state


class HistogramPool(ShardedPool):
    """Persistent feature-block workers for one fit's histogram waves.

    Parameters
    ----------
    binned:
        ``(n_samples, n_features)`` uint8 bin codes (made F-contiguous,
        matching the grower's training layout).  The training rows lead;
        rows after them (the grower's passengers) are never
        histogrammed, so each round's gradients may be shorter.
    missing_bin:
        The mapper's missing-value bin code; ``stride = missing_bin + 1``
        is the per-feature histogram width.
    n_jobs:
        Worker count (:func:`~repro.parallel.executor.resolve_jobs`
        convention: argument over ``REPRO_JOBS`` over serial; capped at
        ``n_features``; serial when the parent cannot fork).

    Lifecycle: construct once per fit, call :meth:`begin_round` once
    per boosting round, :meth:`accumulate` once per node wave, and
    :meth:`close` in a ``finally`` — it shuts workers down and unlinks
    every shared segment (idempotent; also runs on ``with`` exit).
    """

    _SITE = "hist"

    def __init__(
        self,
        binned: np.ndarray,
        missing_bin: int,
        *,
        n_jobs: int | None = None,
        out_slots: int | None = None,
        task_deadline: float | None = None,
        max_respawns: int | None = None,
        close_timeout: float = 5.0,
    ):
        if binned.dtype != np.uint8:
            raise TypeError("binned matrix must be uint8")
        self.binned = (
            binned if binned.flags.f_contiguous else np.asfortranarray(binned)
        )
        self.stride = missing_bin + 1
        n, d = self.binned.shape
        if out_slots is None:
            cell_bytes = _MAX_CHANNELS * d * self.stride * 8
            out_slots = max(1, _OUT_CAP_BYTES // max(cell_bytes, 1))
        self._slots = max(1, int(out_slots))
        # Per-round state (set by begin_round).
        self._nch: int | None = None
        self._mask: np.ndarray | None = None
        jobs = max(1, min(resolve_jobs(n_jobs), d))
        if n == 0 or _start_method() != "fork":
            jobs = 1
        shapes = {
            "gh": ((2, n), np.float64),
            "rows": ((n,), np.int64),
            "out": ((self._slots, _MAX_CHANNELS, d, self.stride), np.float64),
        }
        # The wave buffers are segments this pool creates itself, never
        # ``shared`` entries: export_shared inlines small arrays into the
        # spec, and a worker's copy would never see the per-round writes.
        segments: list[shared_memory.SharedMemory] = []
        buffers: dict[str, _ArraySpec] = {}
        self._arrays: dict[str, np.ndarray] = {"binned": self.binned}
        if jobs > 1:
            try:
                for name, (shape, dtype) in shapes.items():
                    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
                    # repro: allow[REP003] -- pool-owned segments: close() unlinks them all, and every consumer wraps the pool in try/finally (gbm.fit) or a with block
                    segment = shared_memory.SharedMemory(
                        create=True, size=max(1, nbytes)
                    )
                    segments.append(segment)
                    buffers[name] = _ArraySpec(
                        segment.name, shape, np.dtype(dtype).name
                    )
                    self._arrays[name] = np.ndarray(
                        shape, dtype=dtype, buffer=segment.buf
                    )
            except OSError:  # no usable shared memory: accumulate in-process
                release_shared(segments)
                segments, buffers, jobs = [], {}, 1
        if jobs <= 1:
            for name, (shape, dtype) in shapes.items():
                self._arrays[name] = np.empty(shape, dtype=dtype)
        try:
            super().__init__(
                n_jobs=jobs,
                shared={"binned": self.binned.T},
                setup=_map_wave_buffers,
                setup_args=(buffers,),
                task_deadline=task_deadline,
                max_respawns=max_respawns,
                close_timeout=close_timeout,
            )
        except BaseException:
            release_shared(segments)
            raise
        self._segments.extend(segments)  # close() unlinks them too
        self._blocks = _feature_blocks(d, self.workers)

    def _state(self) -> dict:
        """In-process accumulation reads and writes the parent's buffers."""
        return self._arrays

    # ------------------------------------------------------------------
    def begin_round(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        feature_mask: np.ndarray,
        n_channels: int,
    ) -> None:
        """Publish one boosting round's gradients to the workers.

        Writes the round's gradient/hessian arrays into the shared
        buffer (all workers are idle between waves, so the write cannot
        race a read) and records the round's column mask and channel
        count for the waves that follow.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._nch = int(n_channels)
        self._mask = (
            None
            if bool(feature_mask.all())
            else np.ascontiguousarray(feature_mask, dtype=bool)
        )
        # Gradients cover the training rows, which lead the matrix; any
        # rows after them are passengers that no histogram reads.
        self._arrays["gh"][0, : grad.size] = grad
        self._arrays["gh"][1, : hess.size] = hess

    def accumulate(self, rows_list: list[np.ndarray]) -> list[np.ndarray]:
        """Histograms for one wave of nodes, in input order.

        Each entry of ``rows_list`` is one node's (sorted, disjoint)
        row indices; the return value is one float64
        ``(n_channels, n_features, stride)`` array per node, bitwise
        identical to the serial grower's ``_histograms`` output.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._nch is None:
            raise RuntimeError("begin_round() must be called before accumulate()")
        rows_buf, out = self._arrays["rows"], self._arrays["out"]
        hists: list[np.ndarray] = []
        for first in range(0, len(rows_list), self._slots):
            chunk = rows_list[first : first + self._slots]
            bounds: list[tuple[int, int]] = []
            offset = 0
            for rows in chunk:
                rows_buf[offset : offset + rows.size] = rows
                bounds.append((offset, offset + rows.size))
                offset += rows.size
            wave = (bounds, self._nch, self._mask)
            self.scatter(
                _accumulate_wave,
                [(w, (f0, f1, *wave)) for w, (f0, f1) in enumerate(self._blocks)],
            )
            hists.extend(np.array(out[i, : self._nch]) for i in range(len(chunk)))
        return hists
