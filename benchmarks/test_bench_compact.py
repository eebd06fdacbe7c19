"""Compaction bench — the hash-consed DAG vs the per-tree ensemble.

Two numbers on the Fig. 4 model family (the reproduction's default
400-round gradient-boosting configuration):

* **Compression** — source ensemble nodes per shared-table row.  The
  grower re-derives identical subtrees across boosting rounds (shallow
  trees over a shared bin space), so hash-consing collapses the
  ensemble well below its nominal node count (target >= 1.2x; measured
  ~2.5x on the DD representation).
* **Predict speedup** — serving-shaped micro-batches routed through
  ``CompactEnsemble.predict_raw_binned``'s fused frontier loop vs the
  per-tree ``TreeEnsemble`` path.  One numpy dispatch per tree level
  (amortised over all trees) replaces ``n_trees x depth`` of them, so
  the win grows as batches shrink toward the single-visit case.

Both floors are asserted, with bitwise identity between the two paths
on every batch shape.  The model footprint of a published version is
in the registry's ``compaction`` metadata (``repro serve versions``).
"""

import time

import numpy as np

#: Requests per service micro-batch (matches the serve bench).
MICRO_BATCH = 64
#: Timing repetitions; the best of each path is compared.
ROUNDS = 15


def _best_of(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_compact_dag_compression_and_speedup(ctx):
    samples = ctx.samples("sppb", "dd", with_fi=True)
    result = ctx.result("sppb", "dd", with_fi=True)
    model = result.model
    compact = model.compact()
    stats = compact.stats()
    missing_bin = model.mapper_.missing_bin

    codes = model.bin(samples.X)
    batch = codes[:MICRO_BATCH]
    reference = model.ensemble_.predict_raw_binned(batch, missing_bin)
    assert np.array_equal(
        compact.predict_raw_binned(batch, missing_bin), reference
    )
    assert np.array_equal(
        compact.predict_raw_binned(codes, missing_bin),
        model.ensemble_.predict_raw_binned(codes, missing_bin),
    )

    t_tree = _best_of(
        lambda: model.ensemble_.predict_raw_binned(batch, missing_bin)
    )
    t_dag = _best_of(lambda: compact.predict_raw_binned(batch, missing_bin))

    speedup = t_tree / t_dag
    assert stats["ratio"] >= 1.2, (
        f"compression {stats['ratio']:.2f}x < 1.2x: {stats['nodes']} "
        f"source nodes -> {stats['table_rows']} table rows"
    )
    assert speedup >= 1.2, (
        f"{MICRO_BATCH}-row predict speedup {speedup:.2f}x < 1.2x: "
        f"per-tree {t_tree * 1e3:.2f} ms, fused DAG {t_dag * 1e3:.2f} ms"
    )
