"""Differential tests: batched top-k reports vs the per-row oracle.

``top_k_features`` ranks a whole ``(n, d)`` batch with one row-wise
``argsort``; :func:`repro.explain.reference.reference_top_k_features`
is the per-row builder it replaced.  Every field of every report must
carry the oracle's exact float bits, including on exact-zero ties,
equal-magnitude +/- ties, ``k`` above the nonzero count or above ``d``,
and NaN/+-inf raw values.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.boosting import GBRegressor
from repro.explain import LocalExplanation, local_reports, top_k_features
from repro.explain.reference import reference_top_k_features
from repro.serve import ScoreRequest, ScoringService


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def report_bits(report: LocalExplanation) -> tuple:
    """Every field of a report, floats as their exact bytes."""
    return (
        _bits(report.prediction),
        _bits(report.expected_value),
        report.features,
        tuple(map(_bits, report.contributions)),
        tuple(map(_bits, report.values)),
    )


# Few distinct magnitudes, both signs and both zeros: most rows tie.
_TIED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1.0, -1.0])
_SHAP = st.one_of(_TIED, _TIED, st.floats(-4.0, 4.0, width=64))
_X = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 3.0]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def batches(draw):
    n = draw(st.sampled_from([1, 64]) | st.integers(0, 9))
    d = draw(st.integers(1, 9))
    shap = draw(arrays(np.float64, (n, d), elements=_SHAP))
    x = draw(arrays(np.float64, (n, d), elements=_X))
    predictions = draw(
        arrays(np.float64, (n,), elements=st.floats(-5.0, 5.0, width=64))
    )
    k = draw(st.integers(1, d + 3))
    layout = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray]))
    return layout(shap), layout(x), predictions, k


class TestBatchMatchesOracle:
    @given(batch=batches(), expected_value=st.floats(-2.0, 2.0, width=64))
    @settings(max_examples=200, deadline=None)
    def test_every_field_bitwise_equal(self, batch, expected_value):
        shap, x, predictions, k = batch
        names = [f"f{j}" for j in range(shap.shape[1])]
        reports = top_k_features(
            shap, x, names, predictions, expected_value, k=k
        )
        assert len(reports) == shap.shape[0]
        for i, report in enumerate(reports):
            oracle = reference_top_k_features(
                shap[i], x[i], names, predictions[i], expected_value, k=k
            )
            assert report_bits(report) == report_bits(oracle)

    @given(batch=batches())
    @settings(max_examples=50, deadline=None)
    def test_one_row_call_returns_one_report(self, batch):
        shap, x, predictions, k = batch
        names = [f"f{j}" for j in range(shap.shape[1])]
        for i in range(shap.shape[0]):
            report = top_k_features(
                shap[i], x[i], names, predictions[i], 0.5, k=k
            )
            assert isinstance(report, LocalExplanation)
            oracle = reference_top_k_features(
                shap[i], x[i], names, predictions[i], 0.5, k=k
            )
            assert report_bits(report) == report_bits(oracle)

    def test_local_reports_is_the_batch_form(self):
        rng = np.random.default_rng(3)
        shap = rng.normal(size=(7, 5))
        shap[:, 3:] = 0.0
        X = rng.normal(size=(7, 5))
        names = list("abcde")
        predictions = 0.2 + shap.sum(axis=1)
        reports = local_reports(shap, X, names, 0.2, k=4)
        assert len(reports) == 7
        for i, report in enumerate(reports):
            oracle = reference_top_k_features(
                shap[i], X[i], names, predictions[i], 0.2, k=4
            )
            assert report_bits(report) == report_bits(oracle)

    def test_feature_name_objects_are_kept(self):
        names = np.array(["a", "b", "c"])
        report = top_k_features(
            np.array([0.1, -0.3, 0.2]), np.zeros(3), names, 0.0, 0.0, k=3
        )
        oracle = reference_top_k_features(
            np.array([0.1, -0.3, 0.2]), np.zeros(3), names, 0.0, 0.0, k=3
        )
        assert report.features == oracle.features
        assert [type(f) for f in report.features] == [
            type(f) for f in oracle.features
        ]

    def test_prediction_count_must_match_rows(self):
        with pytest.raises(ValueError, match="predictions"):
            top_k_features(
                np.zeros((3, 2)), np.zeros((3, 2)), ["a", "b"], [0.0, 1.0], 0.0
            )

    def test_batch_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            top_k_features(
                np.zeros((3, 2)), np.zeros((2, 2)), ["a", "b"], np.zeros(3), 0.0
            )


@pytest.fixture(scope="module")
def regressor():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(200, 6))
    X[rng.random(X.shape) < 0.15] = np.nan
    y = np.nan_to_num(X[:, 0]) - 2 * np.nan_to_num(X[:, 4]) + rng.normal(
        0, 0.1, 200
    )
    return GBRegressor(n_estimators=15, max_depth=3).fit(X, y), X


class TestServiceReports:
    def test_mixed_batch_matches_oracle_per_row(self, regressor):
        model, X = regressor
        names = [f"c{j}" for j in range(X.shape[1])]
        service = ScoringService(model, feature_names=names, top_k=4)
        service.score_rows(X[:10], explain=True)  # full hits below
        service.score_rows(X[10:15])  # hits needing only their SHAP row
        rows = [X[0], X[20], X[12], X[3], X[20], X[30], X[12], X[10], X[31]]
        explain = [True, True, True, False, True, False, True, True, True]
        results = service.score_batch(
            [ScoreRequest(row=r, explain=e) for r, e in zip(rows, explain)]
        )
        assert [r.cached for r in results] == [
            True, False, False, True, False, False, False, False, False,
        ]
        assert service.stats.batch_dedup_hits == 2

        stacked = np.stack(rows)
        phi = service.explainer.shap_values_binned(
            np.asfortranarray(model.bin(stacked))
        )
        raw = model.predict(stacked)
        for i, (result, wanted) in enumerate(zip(results, explain)):
            assert result.raw_score == raw[i]
            if not wanted:
                assert result.explanation is None
                continue
            oracle = reference_top_k_features(
                phi[i], rows[i], names, raw[i],
                service.explainer.expected_value, k=4,
            )
            assert report_bits(result.explanation) == report_bits(oracle)
