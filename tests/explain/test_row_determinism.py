"""Row determinism: a row's SHAP values never depend on its batch.

The multi-worker scoring plane shards micro-batches across processes
and the Fig. 6/7 sweeps shard rows across the executor; both guarantees
rest on the batched engine computing every row's attribution with
reductions whose order is independent of the batch shape.  These tests
pin that property bitwise — any reintroduction of a shape-dependent
reduction (a BLAS matmul over the leaf-entry axis, say) fails here
before it silently breaks the serving equivalence suite.
"""

import pickle

import numpy as np
import pytest

from repro.boosting import GBClassifier, GBRegressor
from repro.explain import TreeShapExplainer, TreeShapInteractionExplainer
from repro.explain.structure import TreeStructure


@pytest.fixture(scope="module")
def model_and_X():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(120, 9))
    X[rng.random(X.shape) < 0.12] = np.nan
    y = (
        1.5 * np.nan_to_num(X[:, 0])
        - np.nan_to_num(X[:, 4]) ** 2
        + rng.normal(0, 0.1, 120)
    )
    return GBRegressor(n_estimators=30, max_depth=4).fit(X, y), X


def _chunked(fn, X, sizes):
    parts, lo = [], 0
    for size in sizes:
        parts.append(fn(X[lo : lo + size]))
        lo += size
    assert lo == X.shape[0]
    return np.vstack(parts)


class TestShapRowDeterminism:
    @pytest.mark.parametrize(
        "sizes",
        [
            (1,) * 120,
            (7, 13, 100),
            (119, 1),
            (60, 60),
        ],
    )
    def test_raw_chunks_bitwise_equal_full_batch(self, model_and_X, sizes):
        model, X = model_and_X
        explainer = TreeShapExplainer(model)
        full = explainer.shap_values(X)
        assert np.array_equal(
            _chunked(explainer.shap_values, X, sizes), full
        )

    def test_binned_chunks_bitwise_equal_full_batch(self, model_and_X):
        model, X = model_and_X
        explainer = TreeShapExplainer(model)
        codes = model.bin(X)
        full = explainer.shap_values_binned(codes)
        chunked = _chunked(
            explainer.shap_values_binned, codes, (5, 25, 90)
        )
        assert np.array_equal(chunked, full)
        # Bin-space routing stays bitwise equal to raw routing.
        assert np.array_equal(full, explainer.shap_values(X))

    def test_classifier_single_rows_equal_batch(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] + 0.4 * X[:, 2] > 0).astype(int)
        model = GBClassifier(n_estimators=15, max_depth=3).fit(X, y)
        explainer = TreeShapExplainer(model)
        full = explainer.shap_values(X)
        singles = np.vstack(
            [explainer.shap_values_single(X[i]) for i in range(80)]
        )
        assert np.array_equal(singles, full)

    def test_interactions_chunks_bitwise_equal_full_batch(self, model_and_X):
        model, X = model_and_X
        explainer = TreeShapInteractionExplainer(model)
        block = X[:24]
        full = explainer.shap_interaction_values_batch(block)
        chunked = np.concatenate(
            [
                explainer.shap_interaction_values_batch(block[:5]),
                explainer.shap_interaction_values_batch(block[5:6]),
                explainer.shap_interaction_values_batch(block[6:24]),
            ]
        )
        assert np.array_equal(chunked, full)


class TestExplainerPickleRoundTrip:
    """Pool workers receive explainers pickled by the parent; the
    unpickled structures must explain bitwise like the originals."""

    def test_pickled_explainer_bitwise(self, model_and_X):
        model, X = model_and_X
        baseline = TreeShapExplainer(model)
        rebuilt = pickle.loads(pickle.dumps(baseline))
        assert rebuilt.expected_value == baseline.expected_value
        assert np.array_equal(
            rebuilt.shap_values(X[:40]), baseline.shap_values(X[:40])
        )
        codes = model.bin(X[:40])
        assert np.array_equal(
            rebuilt.shap_values_binned(codes),
            baseline.shap_values_binned(codes),
        )

    def test_single_node_tree_round_trip(self):
        from repro.boosting.tree import Tree

        tree = Tree(
            children_left=np.array([-1]),
            children_right=np.array([-1]),
            feature=np.array([0]),
            threshold=np.array([0.0]),
            missing_left=np.array([True]),
            value=np.array([1.25]),
            cover=np.array([10.0]),
        )
        rebuilt = pickle.loads(pickle.dumps(TreeStructure(tree)))
        assert rebuilt.n_entries == 0
        assert rebuilt.expected_value == 1.25
