"""Unit tests for repro.boosting.binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.boosting import BinMapper


def loop_transform(mapper: BinMapper, X: np.ndarray, order: str) -> np.ndarray:
    """The per-column transform (cast, NaN mask and copy per feature)."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.uint8, order=order)
    for f, cut in enumerate(mapper.bin_edges_):
        col = X[:, f]
        codes = np.searchsorted(cut, col, side="left").astype(np.uint8)
        codes[np.isnan(col)] = mapper.missing_bin
        out[:, f] = codes
    return out


@st.composite
def mapper_and_matrix(draw):
    """A fitted mapper plus a matrix probing its edges and specials."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 6))
    max_bins = draw(st.sampled_from([2, 4, 16, 64, 255]))
    rng = np.random.default_rng(seed)
    fit = np.round(rng.normal(size=(draw(st.integers(1, 300)), d)), 2)
    fit[rng.random(fit.shape) < 0.2] = np.nan
    if draw(st.booleans()):
        fit[:, rng.integers(d)] = np.nan  # an all-missing feature
    mapper = BinMapper(max_bins=max_bins).fit(fit)
    edges = np.concatenate(mapper.bin_edges_ + [np.zeros(1)])
    probes = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )
    elements = st.one_of(
        st.sampled_from(probes.tolist()),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
    n = draw(st.sampled_from([0, 1, 64]) | st.integers(0, 20))
    X = draw(arrays(np.float64, (n, d), elements=elements))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return mapper, X


class TestFit:
    def test_few_distinct_values_get_exact_bins(self):
        X = np.array([[1.0], [2.0], [2.0], [5.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        assert mapper.n_bins_[0] == 3
        assert mapper.bin_edges_[0].tolist() == [1.5, 3.5]

    def test_many_values_use_quantiles(self, rng):
        X = rng.normal(size=(1000, 1))
        mapper = BinMapper(max_bins=16).fit(X)
        assert mapper.n_bins_[0] <= 16
        assert len(mapper.bin_edges_[0]) == mapper.n_bins_[0] - 1

    def test_nan_ignored_during_fit(self):
        X = np.array([[1.0], [np.nan], [3.0]])
        mapper = BinMapper(max_bins=4).fit(X)
        assert mapper.n_bins_[0] == 2

    def test_all_nan_column(self):
        X = np.array([[np.nan], [np.nan]])
        mapper = BinMapper().fit(X)
        assert mapper.n_bins_[0] == 1

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=256)

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="inf"):
            BinMapper().fit(np.array([[np.inf]]))

    def test_1d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            BinMapper().fit(np.array([1.0]))


class TestTransform:
    def test_codes_respect_edges(self):
        X = np.array([[1.0], [2.0], [5.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        codes = mapper.transform(X)
        assert codes[:, 0].tolist() == [0, 1, 2]

    def test_nan_goes_to_missing_bin(self):
        X = np.array([[1.0], [2.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        codes = mapper.transform(np.array([[np.nan]]))
        assert codes[0, 0] == mapper.missing_bin

    def test_unseen_values_clamp_to_outer_bins(self):
        X = np.array([[1.0], [2.0], [3.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        codes = mapper.transform(np.array([[-100.0], [100.0]]))
        assert codes[0, 0] == 0
        assert codes[1, 0] == mapper.n_bins_[0] - 1

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((1, 1)))

    def test_feature_count_mismatch(self):
        mapper = BinMapper().fit(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="features"):
            mapper.transform(np.zeros((3, 3)))

    def test_fit_transform_roundtrip(self, rng):
        X = rng.normal(size=(50, 3))
        mapper = BinMapper(max_bins=8)
        codes = mapper.fit_transform(X)
        assert np.array_equal(codes, mapper.transform(X))

    def test_binning_preserves_order(self, rng):
        X = np.sort(rng.normal(size=(200, 1)), axis=0)
        codes = BinMapper(max_bins=16).fit_transform(X)
        assert (np.diff(codes[:, 0].astype(int)) >= 0).all()


class TestTransformMatchesLoop:
    @given(case=mapper_and_matrix(), order=st.sampled_from(["C", "F"]))
    @settings(max_examples=200, deadline=None)
    def test_codes_and_layout_equal_the_column_loop(self, case, order):
        mapper, X = case
        got = mapper.transform(X, order=order)
        want = loop_transform(mapper, X, order)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)
        assert got.strides == want.strides
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous


class TestThresholdValue:
    def test_matches_edge(self):
        X = np.array([[1.0], [2.0], [5.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        assert mapper.threshold_value(0, 0) == pytest.approx(1.5)
        assert mapper.threshold_value(0, 1) == pytest.approx(3.5)

    def test_past_last_edge_is_inf(self):
        X = np.array([[1.0], [2.0]])
        mapper = BinMapper(max_bins=8).fit(X)
        assert mapper.threshold_value(0, 5) == np.inf

    def test_negative_index_rejected(self):
        mapper = BinMapper().fit(np.array([[1.0], [2.0]]))
        with pytest.raises(IndexError):
            mapper.threshold_value(0, -1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BinMapper().threshold_value(0, 0)
