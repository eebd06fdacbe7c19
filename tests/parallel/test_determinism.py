"""Parallel-vs-serial determinism: the executor must not change results.

The contract of ``repro.parallel``: scheduling must never leak into
results.  These tests run the full Fig. 4 grid — and one unit of every
other parallelised runner — under both backends and assert bitwise
equality of reports, predictions and rendered artefacts.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    run_fig4,
    run_imbalance_ablation,
    run_table1,
)
from repro.experiments.fig4_performance import render_fig4
from repro.learning import per_clinic_results, run_protocol
from repro.parallel import executor

from tests.conftest import small_config


@pytest.fixture(scope="module")
def serial_ctx():
    return ExperimentContext(
        seed=11, n_folds=2, cohort_config=small_config(), n_jobs=1
    )


@pytest.fixture(scope="module")
def parallel_ctx():
    return ExperimentContext(
        seed=11, n_folds=2, cohort_config=small_config(), n_jobs=2
    )


class TestFig4Grid:
    def test_full_grid_bitwise_equal(self, serial_ctx, parallel_ctx):
        serial = run_fig4(serial_ctx)
        parallel = run_fig4(parallel_ctx)
        assert serial == parallel  # every metric of every cell, exactly

    def test_rendered_artefacts_identical(self, serial_ctx, parallel_ctx):
        assert render_fig4(run_fig4(serial_ctx)) == render_fig4(
            run_fig4(parallel_ctx)
        )

    def test_predictions_bitwise_equal(self, serial_ctx, parallel_ctx):
        run_fig4(serial_ctx)
        run_fig4(parallel_ctx)
        for outcome in ("qol", "sppb", "falls"):
            for kind in ("kd", "dd"):
                a = serial_ctx.result(outcome, kind, True)
                b = parallel_ctx.result(outcome, kind, True)
                assert np.array_equal(a.test_predictions(), b.test_predictions())
                assert np.array_equal(a.train_idx, b.train_idx)
                assert np.array_equal(a.test_idx, b.test_idx)

    def test_models_bitwise_equal(self, serial_ctx, parallel_ctx):
        a = serial_ctx.result("qol", "dd", True)
        b = parallel_ctx.result("qol", "dd", True)
        assert len(a.model.ensemble_.trees) == len(b.model.ensemble_.trees)
        for ta, tb in zip(a.model.ensemble_.trees, b.model.ensemble_.trees):
            assert np.array_equal(ta.value, tb.value)
            assert np.array_equal(ta.feature, tb.feature)

    def test_cv_reports_equal(self, serial_ctx, parallel_ctx):
        a = serial_ctx.result("falls", "dd", False)
        b = parallel_ctx.result("falls", "dd", False)
        assert [r.as_dict() for r in a.cv_reports] == [
            r.as_dict() for r in b.cv_reports
        ]


class TestOtherRunners:
    def test_table1_grid_identical(self, serial_ctx, parallel_ctx):
        serial = run_table1(serial_ctx, kinds=("dd",))
        parallel = run_table1(parallel_ctx, kinds=("dd",))
        assert list(serial) == list(parallel)  # clinic order too
        assert serial == parallel

    def test_imbalance_arms_identical(self, serial_ctx, parallel_ctx):
        weights = (1.0, 6.0)
        assert run_imbalance_ablation(
            serial_ctx, pos_weights=weights
        ) == run_imbalance_ablation(parallel_ctx, pos_weights=weights)

    def test_per_clinic_results_identical(self, serial_ctx, parallel_ctx):
        samples = serial_ctx.samples("qol", "dd", True)
        serial = per_clinic_results(samples, n_folds=2, seed=0, n_jobs=1)
        parallel = per_clinic_results(samples, n_folds=2, seed=0, n_jobs=2)
        assert list(serial) == list(parallel)
        for clinic in serial:
            assert (
                serial[clinic].test_report.as_dict()
                == parallel[clinic].test_report.as_dict()
            )
            # the parent re-attaches full sample sets on merge
            assert set(parallel[clinic].samples.clinics.tolist()) == {clinic}

    def test_serial_clinic_runs_ignore_repro_jobs(
        self, serial_ctx, monkeypatch
    ):
        samples = serial_ctx.samples("qol", "dd", True)
        expected = per_clinic_results(samples, n_folds=2, seed=0, n_jobs=1)
        real_pool = executor.ShardedPool

        def serial_pool_only(*args, n_jobs=None, **kwargs):
            if n_jobs != 1:
                raise AssertionError(f"a pool of n_jobs={n_jobs} was asked for")
            return real_pool(*args, n_jobs=n_jobs, **kwargs)

        monkeypatch.setattr(executor, "ShardedPool", serial_pool_only)
        monkeypatch.setenv("REPRO_JOBS", "2")
        got = per_clinic_results(samples, n_folds=2, seed=0, n_jobs=1)
        assert {c: r.test_report.as_dict() for c, r in got.items()} == {
            c: r.test_report.as_dict() for c, r in expected.items()
        }

    def test_protocol_fold_fanout_identical(self, serial_ctx):
        samples = serial_ctx.samples("qol", "dd", False)
        a = run_protocol(samples, n_folds=3, seed=5, n_jobs=1)
        b = run_protocol(samples, n_folds=3, seed=5, n_jobs=2)
        assert a.test_report.as_dict() == b.test_report.as_dict()
        assert [r.as_dict() for r in a.cv_reports] == [
            r.as_dict() for r in b.cv_reports
        ]
        assert np.array_equal(a.test_predictions(), b.test_predictions())


class TestContextSafety:
    def test_prefetch_merges_into_memo(self, parallel_ctx):
        keys = [("sppb", "kd", False), ("sppb", "kd", True)]
        parallel_ctx.prefetch(keys)
        # memo hit: same object identity on repeated access
        first = parallel_ctx.result("sppb", "kd", False)
        assert parallel_ctx.result("sppb", "kd", False) is first
        # merged results carry the parent's sample sets
        assert first.samples is parallel_ctx.samples("sppb", "kd", False)

    def test_prefetch_accepts_short_and_long_keys(self, parallel_ctx):
        parallel_ctx.prefetch([("qol", "kd", False), ("qol", "kd", False, 5)])
        assert parallel_ctx.result("qol", "kd", False) is parallel_ctx.result(
            "qol", "kd", False, 5
        )

    def test_concurrent_result_calls_converge(self, serial_ctx):
        import threading

        outputs = []

        def fetch():
            outputs.append(serial_ctx.result("qol", "kd", True))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o is outputs[0] for o in outputs)
