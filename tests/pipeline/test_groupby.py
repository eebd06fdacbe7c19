"""Vectorised group-by passes vs the preserved loop oracles.

The sample-set build, QA statistics and lookup helpers were rewritten
as numpy group-by passes (``repro.pipeline.prep`` + vectorised
``Table.group_by``); the originals live on in
``repro.pipeline.reference``.  These tests prove the two produce
identical outputs — bitwise for every float — including the edge cases
the loops handled implicitly (empty patients, single-row groups, NaN
labels).
"""

import warnings

import numpy as np
import pytest

from repro.pipeline import build_dd_samples, gap_report
from repro.pipeline import reference as ref
from repro.pipeline.impute import interpolate_blocks, interpolate_matrix
from repro.pipeline.prep import cohort_prep, group_sort
from repro.tabular import Table


def assert_matrices_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()


class TestSampleBuildEquivalence:
    @pytest.mark.parametrize("outcome", ["qol", "falls"])
    @pytest.mark.parametrize("with_fi", [False, True])
    def test_bitwise_identical_samples(self, small_cohort, outcome, with_fi):
        new = build_dd_samples(small_cohort, outcome, with_fi=with_fi)
        old = ref.build_dd_samples_loop(small_cohort, outcome, with_fi=with_fi)
        assert new.feature_names == old.feature_names
        assert_matrices_equal(new.X, old.X)
        assert np.array_equal(new.y, old.y)
        assert (new.patient_ids == old.patient_ids).all()
        assert (new.clinics == old.clinics).all()
        assert np.array_equal(new.windows, old.windows)
        assert np.array_equal(new.months, old.months)

    @pytest.mark.parametrize("max_gap", [0, 1, 17])
    def test_identical_across_interpolation_bounds(self, small_cohort, max_gap):
        new = build_dd_samples(small_cohort, "sppb", max_gap=max_gap)
        old = ref.build_dd_samples_loop(small_cohort, "sppb", max_gap=max_gap)
        assert_matrices_equal(new.X, old.X)
        assert np.array_equal(new.months, old.months)

    def test_gap_report_identical(self, small_cohort):
        assert gap_report(small_cohort) == ref.gap_report_loop(small_cohort)

    def test_label_plane_matches_loop_lookup_with_nan_labels(self, small_cohort):
        # Synthetic cohorts carry NaN outcome values for some visits —
        # exactly the entries the sample build must skip.  The dense
        # prep plane must agree with the loop dict entry-for-entry and
        # be NaN (= skip) everywhere the dict has no entry.
        prep = cohort_prep(small_cohort)
        code_of = prep.code_of
        n_windows = small_cohort.config.n_windows
        for outcome in ("qol", "sppb", "falls"):
            plane = prep.labels(outcome)
            old = ref.label_lookup_loop(small_cohort, outcome)
            covered = set()
            for (pid, window), value in old.items():
                if window > n_windows:
                    continue  # outside the plane, never queried
                got = plane[code_of[pid], window]
                assert (np.isnan(value) and np.isnan(got)) or value == got
                covered.add((code_of[pid], window))
            for code in range(len(prep.patient_ids)):
                for window in range(1, n_windows + 1):
                    if (code, window) not in covered:
                        assert np.isnan(plane[code, window])

    def test_fi_plane_matches_loop_lookup(self, small_cohort):
        prep = cohort_prep(small_cohort)
        old = ref.fi_lookup_loop(small_cohort)
        codes, months = np.nonzero(~np.isnan(prep.fi))
        plane_entries = {
            (prep.patient_ids[c], int(m)): float(prep.fi[c, m])
            for c, m in zip(codes, months)
        }
        assert plane_entries == {
            k: v for k, v in old.items() if not np.isnan(v)
        }

    def test_pro_grouping_matches_loop(self, small_cohort):
        prep = cohort_prep(small_cohort)
        old = ref.pro_rows_by_patient_loop(small_cohort)
        # first-appearance patient order
        assert prep.patient_ids.tolist() == list(old)
        starts = prep.pro_starts
        for code, pid in enumerate(prep.patient_ids):
            months, items = old[pid]
            assert np.array_equal(
                prep.pro_months_sorted[starts[code] : starts[code + 1]], months
            )
            assert_matrices_equal(
                prep.pro_matrix_sorted[starts[code] : starts[code + 1]],
                np.asarray(items, dtype=np.float64),
            )

    def test_prep_cached_per_cohort(self, small_cohort):
        assert cohort_prep(small_cohort) is cohort_prep(small_cohort)


class TestGroupSort:
    def test_empty_input(self):
        keys = np.array([], dtype=object)
        order, starts, codes, uniq = group_sort(keys, np.array([], dtype=np.int64))
        assert order.size == 0 and codes.size == 0
        assert starts.tolist() == [0]
        assert uniq.size == 0

    def test_single_row_groups(self):
        keys = np.array(["c", "a", "b"], dtype=object)
        order, starts, codes, uniq = group_sort(keys, np.array([5, 1, 3]))
        assert uniq.tolist() == ["c", "a", "b"]  # first appearance, not sorted
        assert starts.tolist() == [0, 1, 2, 3]
        assert order.tolist() == [0, 1, 2]

    def test_sorts_within_group_stably(self):
        keys = np.array(["p", "q", "p", "q", "p"], dtype=object)
        months = np.array([3, 2, 1, 2, 3])
        order, starts, codes, uniq = group_sort(keys, months)
        assert uniq.tolist() == ["p", "q"]
        # group p: months [3, 1, 3] at rows [0, 2, 4] -> sorted 1, 3, 3
        # with the tie broken by original row order (0 before 4).
        assert order[starts[0] : starts[1]].tolist() == [2, 0, 4]
        # group q: tie on month 2 -> original order 1, 3.
        assert order[starts[1] : starts[2]].tolist() == [1, 3]
        assert codes.tolist() == [0, 1, 0, 1, 0]


class TestTableGroupByVectorised:
    """The vectorised Table.group_by against a per-group recomputation."""

    @staticmethod
    def _loop_group_by(table, keys, aggregations):
        """Reference semantics: old per-row dict grouping + per-group agg."""
        from repro.tabular.table import _AGGREGATIONS

        arrays = [table[k] for k in keys]
        groups: dict[tuple, list[int]] = {}
        for i in range(table.num_rows):
            groups.setdefault(tuple(arr[i] for arr in arrays), []).append(i)
        out: dict[str, list] = {k: [] for k in keys}
        out.update({c: [] for c in aggregations})
        for key_tuple, idx in groups.items():
            for k, v in zip(keys, key_tuple):
                out[k].append(v)
            for cname, agg in aggregations.items():
                fn = _AGGREGATIONS[agg] if isinstance(agg, str) else agg
                out[cname].append(fn(table[cname][np.asarray(idx)]))
        return Table(out)

    @pytest.mark.parametrize(
        "agg", ["mean", "sum", "min", "max", "std", "median", "count", "first", "last"]
    )
    def test_uniform_groups_match_loop(self, agg):
        rng = np.random.default_rng(3)
        n_groups, size = 37, 8
        table = Table(
            {
                "k": np.repeat(np.arange(n_groups), size),
                "v": np.where(
                    rng.random(n_groups * size) < 0.2,
                    np.nan,
                    rng.normal(size=n_groups * size),
                ),
            }
        )
        with np.errstate(all="ignore"):
            got = table.group_by("k", {"v": agg})
            want = self._loop_group_by(table, ["k"], {"v": agg})
        assert got.column_names == want.column_names
        assert np.array_equal(got["k"], want["k"])
        assert_matrices_equal(
            got["v"][None, :].astype(np.float64),
            want["v"][None, :].astype(np.float64),
        )

    def test_single_row_groups_match_loop(self):
        table = Table({"k": ["b", "a", "c"], "v": [1.5, np.nan, 3.0]})
        with np.errstate(all="ignore"):
            got = table.group_by("k", {"v": "mean"})
            want = self._loop_group_by(table, ["k"], {"v": "mean"})
        assert got["k"].tolist() == ["b", "a", "c"]
        assert_matrices_equal(got["v"], want["v"])

    @pytest.mark.parametrize(
        "agg, numpy_agg",
        [
            ("mean", np.nanmean),
            ("sum", np.nansum),
            ("min", np.nanmin),
            ("max", np.nanmax),
            ("std", np.nanstd),
            ("median", np.nanmedian),
        ],
        ids=["mean", "sum", "min", "max", "std", "median"],
    )
    @pytest.mark.parametrize("sizes", [(2, 2, 2), (1, 3, 2)])
    def test_all_nan_group_mean_is_silent_nan(self, sizes, agg, numpy_agg):
        # Equal sizes take the vectorised path (where the aggregation
        # has one), unequal ones the loop.
        keys = np.repeat(["a", "b", "c"], sizes)
        values = np.arange(len(keys), dtype=np.float64)
        values[keys == "b"] = np.nan
        table = Table({"k": keys, "v": values})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = table.group_by("k", {"v": agg})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = np.array([numpy_agg(values[keys == k]) for k in "abc"])
        assert np.isnan(got["v"][1]) == (agg != "sum")
        assert got["v"].view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_unequal_group_sizes_match_loop(self):
        table = Table(
            {"k": [0, 0, 1, 0, 2, 2], "v": [1.0, 2.0, 3.0, np.nan, 5.0, 6.0]}
        )
        got = table.group_by("k", {"v": "mean"})
        want = self._loop_group_by(table, ["k"], {"v": "mean"})
        assert np.array_equal(got["k"], want["k"])
        assert_matrices_equal(got["v"], want["v"])

    def test_nan_keys_collapse_to_one_group(self):
        # Documented behaviour change vs the per-row loop: all NaN keys
        # form a single group (np.unique semantics) instead of one group
        # per row (a nan != nan dict artefact).
        table = Table({"k": [np.nan, 1.0, np.nan], "v": [1.0, 2.0, 3.0]})
        got = table.group_by("k", {"v": "sum"})
        assert got.num_rows == 2
        assert got["v"].tolist() == [4.0, 2.0]

    def test_empty_table(self):
        table = Table({"k": np.array([], dtype=np.float64), "v": np.array([], dtype=np.float64)})
        got = table.group_by("k", {"v": "mean"})
        assert got.num_rows == 0
        assert got.column_names == ("k", "v")

    def test_multi_key_first_appearance_order(self):
        table = Table(
            {
                "a": ["x", "x", "y", "x"],
                "b": [2, 1, 2, 2],
                "v": [1.0, 2.0, 3.0, 4.0],
            }
        )
        got = table.group_by(["a", "b"], {"v": "sum"})
        assert list(zip(got["a"].tolist(), got["b"].tolist())) == [
            ("x", 2),
            ("x", 1),
            ("y", 2),
        ]
        assert got["v"].tolist() == [5.0, 2.0, 3.0]


class TestInterpolateBlocks:
    @pytest.mark.parametrize("max_gap", [0, 1, 5, 17])
    def test_matches_per_block_loop(self, rng, max_gap):
        blocks = rng.normal(size=(40, 8, 7))
        blocks[rng.random(blocks.shape) < 0.5] = np.nan
        want = np.stack([interpolate_matrix(b, max_gap) for b in blocks])
        assert_matrices_equal(interpolate_blocks(blocks, max_gap), want)

    def test_all_missing_series_untouched(self):
        blocks = np.full((3, 6, 2), np.nan)
        out = interpolate_blocks(blocks, 5)
        assert np.isnan(out).all()

    def test_boundary_gaps_stay_missing(self):
        blocks = np.array([[[np.nan], [1.0], [np.nan], [3.0], [np.nan]]])
        out = interpolate_blocks(blocks, 5)
        assert np.isnan(out[0, 0, 0]) and np.isnan(out[0, 4, 0])
        assert out[0, 2, 0] == 2.0

    def test_empty_stack(self):
        assert interpolate_blocks(np.empty((0, 8, 3)), 5).shape == (0, 8, 3)

    def test_does_not_mutate_input_single_block(self):
        # Regression: for m == 1 the internal transpose is already
        # contiguous; without an explicit copy the fill mutated the
        # caller's array in place.
        blocks = np.array([[[1.0], [np.nan], [3.0], [4.0]]])
        out = interpolate_blocks(blocks, 2)
        assert np.isnan(blocks[0, 1, 0])
        assert not np.shares_memory(out, blocks)
        assert out[0, 1, 0] == 2.0

    def test_rejects_negative_gap_and_bad_shape(self):
        with pytest.raises(ValueError):
            interpolate_blocks(np.zeros((2, 2, 2)), -1)
        with pytest.raises(ValueError):
            interpolate_blocks(np.zeros((2, 2)), 1)
