"""PIPE bench — zero-redundancy data prep vs the preserved loop path.

The sample-set build was rewritten as vectorised numpy group-by passes
over a shared per-cohort prep (``repro.pipeline.prep``): PRO grouping,
monthly activity aggregation, label/FI lookups and bounded interpolation
are each one array pass, computed once per cohort instead of once per
build.  The originals are preserved in ``repro.pipeline.reference``;
this bench measures the full paper-scale build of all six DD sample
sets (3 outcomes x ±FI) plus the QA gap report on both paths, asserts
the vectorised path is >= 5x faster, and spot-checks bitwise-identical
output (the exhaustive equivalence suite lives in
``tests/pipeline/test_groupby.py``).
"""

import time

import numpy as np

import repro.pipeline.prep as prep_module
from repro.pipeline import build_dd_samples, gap_report
from repro.pipeline import reference as ref

#: The six DD configurations of the Fig. 3/4 grid.
CONFIGS = [
    (outcome, with_fi)
    for outcome in ("qol", "sppb", "falls")
    for with_fi in (False, True)
]

SPEEDUP_TARGET = 5.0


def test_pipeline_vectorised_build_speedup(ctx):
    cohort = ctx.cohort  # paper scale: 261 patients

    start = time.perf_counter()
    loop_samples = {
        config: ref.build_dd_samples_loop(cohort, config[0], with_fi=config[1])
        for config in CONFIGS
    }
    ref.gap_report_loop(cohort)
    t_loop = time.perf_counter() - start

    # Cold-cache measurement: the vectorised path must win even when it
    # builds the shared prep from scratch (warm rebuilds are ~100x).
    prep_module._CACHE.clear()
    start = time.perf_counter()
    fast_samples = {
        config: build_dd_samples(cohort, config[0], with_fi=config[1])
        for config in CONFIGS
    }
    gap_report(cohort)
    t_fast = time.perf_counter() - start

    for config in CONFIGS:
        new, old = fast_samples[config], loop_samples[config]
        assert new.n_samples == old.n_samples
        equal = (new.X == old.X) | (np.isnan(new.X) & np.isnan(old.X))
        assert equal.all(), f"sample mismatch for {config}"
        assert np.array_equal(new.y, old.y)

    speedup = t_loop / t_fast
    assert speedup >= SPEEDUP_TARGET, (
        f"speedup {speedup:.1f}x < {SPEEDUP_TARGET:.0f}x: loop path "
        f"{t_loop:.3f}s, vectorised path {t_fast:.3f}s (cold prep cache)"
    )
