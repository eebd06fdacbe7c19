"""Equivalence and regression tests for the histogram-subtraction grower.

Two families of guarantees:

* Trees grown with sibling histograms derived as ``parent - child``
  must match trees whose every node accumulates histograms from
  scratch — same structure, same split features/bins/thresholds, same
  missing directions, and (up to last-ulp float noise) the same leaf
  values — across missingness levels, row/column subsampling and
  monotone constraints.
* The split scan must consider the "all non-missing left, missing
  right" candidate (raw threshold ``+inf``) that the pre-fix scan
  silently dropped for features using their full bin budget.

Each optimisation of one boosting round is also checked bitwise against
the path it replaced: passenger rows against ``Tree.predict_binned``,
the flat histogram path against the per-feature one on both sides of
the cell crossover, and the contiguous split scan against the padded
scan it replaced (kept below as the oracle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.boosting.grower as grower_mod
from repro.boosting import BinMapper, GBClassifier, GBConfig, GBRegressor
from repro.boosting.grower import FLAT_CELLS_MAX, TreeGrower, _NodeTask
from repro.boosting.losses import LogisticLoss, SquaredErrorLoss
from repro.boosting.tree import LEAF


def make_data(seed, n=500, d=6, missing=0.15):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if missing > 0:
        X[rng.random(X.shape) < missing] = np.nan
    y = (
        2 * np.nan_to_num(X[:, 0])
        - np.nan_to_num(X[:, 1]) ** 2
        + rng.normal(0, 0.3, n)
    )
    return X, y


def grow_both_ways(X, y, rows=None, feature_mask=None, **config_overrides):
    """Grow one tree with and without histogram subtraction."""
    cfg = GBConfig(
        n_estimators=1,
        subsample=1.0,
        colsample_bytree=1.0,
        learning_rate=1.0,
        **config_overrides,
    )
    mapper = BinMapper(max_bins=cfg.max_bins).fit(X)
    binned = mapper.transform(X)
    grad = y - y.mean()
    hess = np.ones_like(y)
    if rows is None:
        rows = np.arange(len(y))
    if feature_mask is None:
        feature_mask = np.ones(X.shape[1], dtype=bool)
    trees = []
    for use_subtraction in (True, False):
        grower = TreeGrower(binned, mapper, cfg, use_subtraction=use_subtraction)
        trees.append(grower.grow(grad, hess, rows, feature_mask))
    return trees


def assert_trees_equivalent(a, b):
    """Same structure and splits; values equal up to last-ulp noise."""
    assert np.array_equal(a.children_left, b.children_left)
    assert np.array_equal(a.children_right, b.children_right)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.bin_threshold, b.bin_threshold)
    assert np.array_equal(a.missing_left, b.missing_left)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    np.testing.assert_allclose(a.value, b.value, rtol=0, atol=1e-10)
    np.testing.assert_allclose(a.cover, b.cover, rtol=0, atol=1e-8)


class TestSubtractionEquivalence:
    @pytest.mark.parametrize("missing", [0.0, 0.15, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_missingness_levels(self, seed, missing):
        # min_child_weight keeps leaves away from 1-2 row micro-nodes,
        # where two features can isolate the *same* row subset and tie
        # exactly; either choice is optimal there, so tie flips from
        # last-ulp subtraction noise would be legitimate, but they make
        # strict structural comparison meaningless.
        X, y = make_data(seed, missing=missing)
        sub, scratch = grow_both_ways(X, y, max_depth=5, min_child_weight=5.0)
        assert_trees_equivalent(sub, scratch)

    def test_large_node_per_feature_path(self):
        # Nodes above the grower's flat-path cell cap accumulate
        # histograms per feature; a root above the cap whose children
        # fall below it exercises the per-feature path, the flat path,
        # and the subtraction crossover between them in one tree.
        n, d = 6000, 48
        assert n * d > FLAT_CELLS_MAX >= (n // 2 + 500) * d
        X, y = make_data(9, n=n, d=d, missing=0.15)
        sub, scratch = grow_both_ways(X, y, max_depth=4, min_child_weight=5.0)
        assert_trees_equivalent(sub, scratch)

    def test_row_subsampling(self):
        X, y = make_data(3)
        rows = np.sort(np.random.default_rng(7).choice(len(y), 300, replace=False))
        sub, scratch = grow_both_ways(X, y, rows=rows, max_depth=4)
        assert_trees_equivalent(sub, scratch)

    def test_column_subsampling(self):
        X, y = make_data(4)
        mask = np.array([True, False, True, True, False, True])
        sub, scratch = grow_both_ways(X, y, feature_mask=mask, max_depth=4)
        assert_trees_equivalent(sub, scratch)
        assert set(sub.feature[sub.children_left != LEAF]) <= {0, 2, 3, 5}

    def test_monotone_constraints(self):
        X, y = make_data(5)
        sub, scratch = grow_both_ways(
            X, y, max_depth=4, monotone_constraints=(1, -1, 0, 0, 0, 0)
        )
        assert_trees_equivalent(sub, scratch)

    def test_min_child_weight_and_gamma(self):
        X, y = make_data(6)
        sub, scratch = grow_both_ways(
            X, y, max_depth=5, min_child_weight=10.0, gamma=0.5
        )
        assert_trees_equivalent(sub, scratch)

    def test_full_model_equivalent(self, monkeypatch):
        """End to end: a fit with subtraction disabled predicts the same.

        Later rounds see raw scores that differ by the last-ulp noise of
        earlier leaf values, so exactly-tied candidates at tiny late
        nodes may legitimately resolve either way; the strict structural
        guarantee (covered tree-by-tree above) is asserted here for the
        first tree, which both fits grow from identical gradients.
        """
        import repro.boosting.gbm as gbm_mod

        class ScratchGrower(TreeGrower):
            def __init__(self, binned, mapper, config, **kwargs):
                super().__init__(
                    binned, mapper, config, use_subtraction=False, **kwargs
                )

        X, y = make_data(8, n=400)
        fast = GBRegressor(n_estimators=25, max_depth=4).fit(X, y)
        monkeypatch.setattr(gbm_mod, "TreeGrower", ScratchGrower)
        slow = GBRegressor(n_estimators=25, max_depth=4).fit(X, y)
        np.testing.assert_allclose(
            fast.predict(X), slow.predict(X), rtol=0, atol=1e-8
        )
        assert fast.ensemble_.n_trees == slow.ensemble_.n_trees
        assert_trees_equivalent(fast.ensemble_.trees[0], slow.ensemble_.trees[0])


class TestMissingDirectionSplit:
    """The pre-fix scan dropped the last non-missing bin, so the
    "all non-missing left / missing right" split was never found for
    features with more distinct values than ``max_bins``."""

    @staticmethod
    def _missingness_signal_data():
        # The only signal is *whether* the feature is missing; the
        # feature has > max_bins distinct values so every bin is used.
        rng = np.random.default_rng(11)
        n = 400
        x = np.full(n, np.nan)
        x[:300] = rng.uniform(0.0, 1.0, 300)
        y = np.where(np.isnan(x), 1.0, 0.0)
        return x[:, None], y

    def test_split_is_found(self):
        X, y = self._missingness_signal_data()
        sub, scratch = grow_both_ways(X, y, max_depth=1)
        assert_trees_equivalent(sub, scratch)
        # A single root split: all observed values left, missing right.
        assert sub.n_nodes == 3
        assert sub.threshold[0] == np.inf
        assert not sub.missing_left[0]

    def test_split_separates_perfectly(self):
        X, y = self._missingness_signal_data()
        model = GBRegressor(
            n_estimators=30,
            max_depth=1,
            learning_rate=0.5,
            subsample=1.0,
            colsample_bytree=1.0,
        ).fit(X, y)
        pred = model.predict(X)
        assert float(np.mean(np.abs(pred - y))) < 0.01

    def test_tree_keeps_growing_below_missing_direction_split(self):
        # The observed side retains sub-structure after the root's
        # missing-direction split on the same high-cardinality feature.
        rng = np.random.default_rng(12)
        n = 400
        x = np.full(n, np.nan)
        x[:300] = rng.uniform(0.0, 1.0, 300)
        y = np.where(np.isnan(x), -2.0, np.where(x > 0.5, 1.0, 0.0))
        sub, scratch = grow_both_ways(x[:, None], y, max_depth=2, reg_lambda=0.0)
        assert_trees_equivalent(sub, scratch)
        assert sub.threshold[0] == np.inf
        assert not sub.missing_left[0]
        # grow_both_ways feeds grad = y - mean(y), so leaves hold the
        # negated residual; missing rows form a pure leaf while the
        # observed split lands on the bin edge closest to 0.5.
        pred = sub.predict(x[:, None])
        miss = np.isnan(x)
        np.testing.assert_allclose(
            pred[miss], -(y[miss] - y.mean()), rtol=0, atol=1e-12
        )
        assert float(np.mean(np.abs(pred + (y - y.mean())))) < 0.05


class TestBinnedPrediction:
    def test_predict_binned_matches_raw_predict(self):
        X, y = make_data(20, n=600, missing=0.2)
        cfg = GBConfig(n_estimators=1, subsample=1.0, colsample_bytree=1.0)
        mapper = BinMapper(max_bins=cfg.max_bins).fit(X)
        grower = TreeGrower(mapper.transform(X), mapper, cfg)
        grad = y - y.mean()
        tree = grower.grow(
            grad, np.ones_like(y), np.arange(len(y)),
            np.ones(X.shape[1], dtype=bool),
        )
        # Training rows and *unseen* rows (incl. values outside the
        # training range) must route identically in both spaces.
        X_new, _ = make_data(21, n=200, missing=0.3)
        X_new[:5] = 100.0
        for mat in (X, X_new):
            codes = mapper.transform(mat)
            assert np.array_equal(
                tree.predict_binned(codes, mapper.missing_bin),
                tree.predict(mat),
            )

    def test_leaf_out_matches_prediction(self):
        X, y = make_data(22, n=300)
        cfg = GBConfig(n_estimators=1, subsample=1.0, colsample_bytree=1.0)
        mapper = BinMapper(max_bins=cfg.max_bins).fit(X)
        grower = TreeGrower(mapper.transform(X), mapper, cfg)
        rows = np.arange(len(y))
        leaf_out = np.empty(len(y), dtype=np.int64)
        tree = grower.grow(
            y - y.mean(), np.ones_like(y), rows,
            np.ones(X.shape[1], dtype=bool), leaf_out=leaf_out,
        )
        assert np.array_equal(tree.value[leaf_out], tree.predict(X))
        assert (tree.children_left[leaf_out] == LEAF).all()


def assert_trees_identical(a, b):
    """Bitwise equality of every per-node array."""
    for name in (
        "children_left",
        "children_right",
        "feature",
        "bin_threshold",
        "missing_left",
        "value",
        "cover",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)


class TestPassengers:
    """Out-of-bag and eval rows routed through the grower's partition
    land where :meth:`Tree.predict_binned` sends them, and change
    nothing about the tree."""

    @given(
        seed=st.integers(0, 10_000),
        missing=st.sampled_from([0.0, 0.2, 0.7]),
        subsample=st.sampled_from([1.0, 0.8, 0.4]),
        colsample=st.sampled_from([1.0, 0.6]),
        monotone=st.booleans(),
        logistic=st.booleans(),
        n_eval=st.integers(0, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_passenger_leaves_match_predict_binned(
        self, seed, missing, subsample, colsample, monotone, logistic, n_eval
    ):
        rng = np.random.default_rng(seed)
        n, d = 240, 5
        X, y = make_data(seed, n=n, d=d, missing=missing)
        X_val, _ = make_data(seed + 1, n=n_eval, d=d, missing=missing)
        if n_eval >= 2:
            X_val[0] = np.nan  # every feature in its missing bin
            X_val[1] = 1e9  # past every edge
        cfg = GBConfig(
            max_depth=4,
            min_child_weight=1.0,
            monotone_constraints=(1, -1, 0, 0, 0) if monotone else None,
        )
        mapper = BinMapper(max_bins=cfg.max_bins).fit(X)
        raw = rng.normal(scale=0.5, size=n)
        if logistic:
            grad, hess = LogisticLoss().gradient_hessian(
                raw, (y > np.median(y)).astype(np.float64)
            )
        else:
            grad, hess = SquaredErrorLoss().gradient_hessian(raw, y)
        rows = np.arange(n)
        if subsample < 1.0:
            rows = np.sort(rng.choice(n, int(subsample * n), replace=False))
        mask = rng.random(d) < colsample
        mask[rng.integers(d)] = True
        oob = np.setdiff1d(np.arange(n), rows)
        passengers = np.concatenate((oob, np.arange(n, n + n_eval)))

        binned = mapper.transform(np.concatenate((X, X_val)), order="F")
        leaf = np.full(n + n_eval, -1, dtype=np.int64)
        tree = TreeGrower(binned, mapper, cfg).grow(
            grad, hess, rows, mask, leaf_out=leaf, passengers=passengers
        )
        plain_leaf = np.full(n, -1, dtype=np.int64)
        plain = TreeGrower(mapper.transform(X, order="F"), mapper, cfg).grow(
            grad, hess, rows, mask, leaf_out=plain_leaf
        )
        assert_trees_identical(tree, plain)
        assert np.array_equal(leaf[rows], plain_leaf[rows])
        assert (leaf >= 0).all()
        assert (tree.children_left[leaf] == LEAF).all()
        expected = tree.predict_binned(
            np.ascontiguousarray(binned[passengers]), mapper.missing_bin
        )
        assert np.array_equal(tree.value[leaf[passengers]], expected)
        X_all = np.concatenate((X, X_val))
        for i in passengers[:: max(1, len(passengers) // 25)]:
            assert leaf[i] == tree.decision_path(X_all[i])[-1]

    @pytest.mark.parametrize("cls", [GBRegressor, GBClassifier])
    def test_eval_history_matches_per_tree_prediction(self, cls):
        # The fit loop's eval scores come from passenger leaves; summing
        # each tree's predict_binned in round order must give the same
        # bits, round by round.
        X, y = make_data(31, n=400, missing=0.25)
        if cls is GBClassifier:
            y = (y > np.median(y)).astype(np.int64)
        X_val, y_val = X[300:], y[300:]
        model = cls(
            n_estimators=25,
            max_depth=4,
            subsample=0.7,
            colsample_bytree=0.8,
            early_stopping_rounds=0,
        ).fit(X[:300], y[:300], eval_set=(X_val, y_val))
        codes = model.bin(X_val)
        raw = np.full(len(y_val), model.ensemble_.base_score)
        for tree, recorded in zip(model.ensemble_.trees, model.eval_history_):
            raw += tree.predict_binned(codes, model.mapper_.missing_bin)
            assert model._loss.loss(raw, np.asarray(y_val, dtype=np.float64)) == recorded
        assert len(model.eval_history_) == 25


class TestHistogramCrossover:
    """Flat and per-feature accumulation agree bitwise on the features
    the scan reads, on both sides of ``FLAT_CELLS_MAX``."""

    @pytest.mark.parametrize("unit_hess", [True, False])
    def test_paths_agree_on_both_sides(self, unit_hess, monkeypatch):
        rng = np.random.default_rng(5)
        d = 64
        cap = FLAT_CELLS_MAX // d
        n = cap + 40
        X = rng.normal(size=(n, d))
        X[rng.random(X.shape) < 0.2] = np.nan
        mapper = BinMapper(max_bins=32).fit(X)
        binned = mapper.transform(X, order="F")
        grower = TreeGrower(binned, mapper, GBConfig())
        grower._n_channels = 2 if unit_hess else 3
        grad = rng.normal(size=n)
        hess = np.ones(n) if unit_hess else rng.uniform(0.05, 0.25, size=n)
        mask = rng.random(d) < 0.8
        active = np.flatnonzero(mask)
        for size in (cap, cap + 1):
            flat_side = size * d <= FLAT_CELLS_MAX
            rows = np.sort(rng.choice(n, size, replace=False))
            auto = grower._histograms(rows, grad, hess, active)
            # The flat path also fills masked-out features; the
            # per-feature path leaves them at zero.
            assert bool(auto[:, ~mask].any()) == flat_side
            monkeypatch.setattr(
                grower_mod, "FLAT_CELLS_MAX", 0 if flat_side else 1 << 40
            )
            other = grower._histograms(rows, grad, hess, active)
            monkeypatch.undo()
            assert np.array_equal(auto[:, active], other[:, active])


def padded_scores(grower, tasks, feature_mask, mask_all):
    """The split scan as it ran before the contiguous layout: the cast
    histograms are cumsummed over the full stride, including the missing
    bin, and the two missing-direction layers run one after the other on
    strided ``[..., :-1]`` views.  Kept as the oracle for
    :meth:`TreeGrower._candidate_scores`."""
    cfg = grower.config
    lam = cfg.reg_lambda
    mcw = cfg.min_child_weight
    k = len(tasks)
    nch = grower._n_channels
    stride = grower._stride
    d = grower.n_features
    n_bins = stride - 1
    dt = grower._scan_dtype
    hist = np.empty((k, nch, d, stride), dtype=dt)
    for i, t in enumerate(tasks):
        hist[i] = t.hist
    cum = np.cumsum(hist, axis=3)
    gl = cum[:, 0, :, :-1]
    hl = cum[:, 1, :, :-1]
    g_miss = hist[:, 0, :, -1:]
    h_miss = hist[:, 1, :, -1:]
    n_layers = 2 if bool((hist[:, -1, :, -1] > 0.0).any()) else 1
    score = np.empty((k, n_layers, d, n_bins), dtype=dt)
    g_tot = np.array([t.grad_sum for t in tasks], dtype=dt)[:, None, None]
    h_tot = np.array([t.hess_sum for t in tasks], dtype=dt)[:, None, None]
    need_occupancy = mcw < 1e-6
    if need_occupancy:
        cl = cum[:, -1, :, :-1]
        left_nonempty = cl > 0.0
        right_nonempty = cl < cl[:, :, -1:]
        has_miss = hist[:, -1, :, -1:] > 0.0
    lam_s = dt(lam)
    mcw_s = dt(mcw)
    for layer in range(n_layers):
        if layer == 0:
            gl_l, hl_l = gl, hl
        else:
            gl_l, hl_l = gl + g_miss, hl + h_miss
        s = score[:, layer]
        gr = g_tot - gl_l
        hl_lam = hl_l + lam_s
        hr_lam = (h_tot + lam_s) - hl_l
        if mcw > 0:
            valid = (hl_l >= mcw_s) & (hl_l <= h_tot - mcw_s)
        else:
            valid = np.ones(gl_l.shape, dtype=bool)
        if need_occupancy:
            if layer == 0:
                valid &= left_nonempty & (right_nonempty | has_miss)
            else:
                valid &= right_nonempty & (left_nonempty | has_miss)
        if not mask_all:
            valid &= feature_mask[None, :, None]
        if cfg.monotone_constraints is not None:
            cons = np.asarray(cfg.monotone_constraints, dtype=dt)[None, :, None]
            lower = np.array([t.lower for t in tasks], dtype=dt)[:, None, None]
            upper = np.array([t.upper for t in tasks], dtype=dt)[:, None, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                wl = np.clip(-gl_l / hl_lam, lower, upper)
                wr = np.clip(-gr / hr_lam, lower, upper)
            valid &= (cons == 0) | (cons * (wr - wl) >= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(gl_l, gl_l, out=s)
            s /= hl_lam
            gr = gr * gr
            gr /= hr_lam
            s += gr
        s[~valid] = -np.inf
    return score


class TestContiguousScan:
    """The contiguous split scan ranks every candidate with the same
    bits as the padded scan it replaced."""

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 4),
        missing=st.sampled_from([0.0, 0.1, 0.5]),
        min_child_weight=st.sampled_from([0.0, 1e-7, 0.5, 4.0]),
        reg_lambda=st.sampled_from([0.0, 1.0]),
        monotone=st.booleans(),
        unit_hess=st.booleans(),
        colsample=st.booleans(),
        huge=st.booleans(),
        derived=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_padded_oracle(
        self,
        seed,
        k,
        missing,
        min_child_weight,
        reg_lambda,
        monotone,
        unit_hess,
        colsample,
        huge,
        derived,
    ):
        rng = np.random.default_rng(seed)
        n, d = 160, 5
        X, _ = make_data(seed, n=n, d=d, missing=missing)
        cfg = GBConfig(
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            monotone_constraints=(1, 0, -1, 0, 1) if monotone else None,
        )
        mapper = BinMapper(max_bins=16).fit(X)
        grower = TreeGrower(mapper.transform(X, order="F"), mapper, cfg)
        grad = rng.normal(size=n) * (1e16 if huge else 1.0)
        hess = np.ones(n) if unit_hess else rng.uniform(0.01, 0.3, size=n)
        # As grow() sets them for the round.
        grower._n_channels = 2 if unit_hess else 3
        grower._scan_dtype = np.float64 if huge else np.float32
        mask = np.ones(d, dtype=bool)
        if colsample:
            mask[rng.choice(d, 2, replace=False)] = False
        active = np.flatnonzero(mask)

        tasks = []
        for i, rows in enumerate(np.array_split(rng.permutation(n), k)):
            rows = np.sort(rows)
            hist = grower._histograms(rows, grad, hess, active)
            if derived and rows.size > 4:
                # A sibling by subtraction, residue scrubbed as grow()
                # does it.
                child = grower._histograms(rows[::3], grad, hess, active)
                hist = hist - child
                empty = hist[-1] == 0.0
                for channel in hist[:-1]:
                    np.copyto(channel, 0.0, where=empty)
                rows = np.setdiff1d(rows, rows[::3])
            lo, hi = sorted(rng.normal(size=2)) if monotone else (-np.inf, np.inf)
            tasks.append(
                _NodeTask(
                    i, rows, rows.size, 0,
                    float(grad[rows].sum()), float(hess[rows].sum()),
                    lo, hi, hist,
                )
            )
        mask_all = bool(mask.all())
        got = grower._candidate_scores(tasks, mask, mask_all)
        want = padded_scores(grower, tasks, mask, mask_all)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
