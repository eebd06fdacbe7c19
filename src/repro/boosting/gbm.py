"""Gradient-boosting estimators: ``GBRegressor`` and ``GBClassifier``.

The fit loop is classic Newton boosting:

1. start from the loss's optimal constant ``base_score``;
2. each round, compute per-sample gradients/hessians at the current raw
   scores, subsample rows/columns, and grow one histogram tree
   (:class:`repro.boosting.grower.TreeGrower`);
3. add the tree (leaf values already shrunken by the learning rate);
4. optionally early-stop on a validation set.

Raw-score bookkeeping never touches the float feature matrix after
binning, and never traverses a tree: the eval set is binned once up
front, below the training rows of one matrix, and each round the
out-of-bag rows (row subsampling) and the eval rows ride through the
grower's partition as passengers.  The grower reports the leaf every
row landed in, so step 3 is one direct ``value[leaf]`` gather for the
training side and one for the eval side.  Only :meth:`predict` on fresh
data pays the raw-threshold path.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.binning import BinMapper
from repro.boosting.config import GBConfig
from repro.boosting.dag import CompactEnsemble
from repro.boosting.grower import TreeGrower
from repro.boosting.losses import LogisticLoss, Loss, SquaredErrorLoss
from repro.boosting.tree import TreeEnsemble

__all__ = ["GBRegressor", "GBClassifier"]


class _BaseGB:
    """Shared fit/predict machinery; subclasses pick the loss."""

    def __init__(self, config: GBConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either a GBConfig or keyword overrides, not both")
        if config is None:
            config = GBConfig(**overrides)
        self.config = config
        self.ensemble_: TreeEnsemble | None = None
        self.best_iteration_: int | None = None
        self.eval_history_: list[float] = []
        self._loss: Loss = self._make_loss()
        self.n_features_: int | None = None
        #: The fitted bin mapper; consumers such as the TreeSHAP
        #: explainer use it to route samples in bin-code space.
        self.mapper_: BinMapper | None = None
        #: Cached hash-consed DAG of the fitted ensemble (see
        #: :meth:`compact`); rebuilt lazily, invalidated by ``fit``.
        self.compact_: "CompactEnsemble | None" = None

    def _make_loss(self) -> Loss:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _validate_targets(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        # A non-finite target turns every gradient sum it touches into
        # NaN: predictions go NaN, and an eval loss that is NaN never
        # improves, so early stopping would silently keep its patience.
        if not np.isfinite(y).all():
            raise ValueError("targets must be finite (no NaN or inf)")
        return y

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "_BaseGB":
        """Fit the ensemble on ``X`` (raw floats, NaN = missing) and ``y``.

        Parameters
        ----------
        eval_set:
            Optional ``(X_val, y_val)``; enables early stopping when
            ``config.early_stopping_rounds > 0``.
        """
        cfg = self.config
        X = np.asarray(X, dtype=np.float64)
        y = self._validate_targets(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or len(y) != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has shape {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if (
            cfg.monotone_constraints is not None
            and len(cfg.monotone_constraints) != X.shape[1]
        ):
            raise ValueError(
                f"monotone_constraints has {len(cfg.monotone_constraints)} "
                f"entries but X has {X.shape[1]} features"
            )
        has_eval = eval_set is not None
        if has_eval:
            X_val = np.asarray(eval_set[0], dtype=np.float64)
            y_val = self._validate_targets(eval_set[1])
            if X_val.ndim != 2 or X_val.shape[1] != X.shape[1]:
                raise ValueError(
                    f"eval_set X must have shape (n, {X.shape[1]}), "
                    f"got {X_val.shape}"
                )
            if X_val.shape[0] == 0:
                raise ValueError("eval_set is empty")
            if y_val.ndim != 1 or len(y_val) != X_val.shape[0]:
                raise ValueError(
                    f"eval_set X has {X_val.shape[0]} rows but y has "
                    f"shape {y_val.shape}"
                )
        self.n_features_ = X.shape[1]

        mapper = BinMapper(max_bins=cfg.max_bins).fit(X)
        self.mapper_ = mapper
        # Binning is row-independent, so the eval rows share one matrix
        # with the training rows and follow them through every split.
        n = X.shape[0]
        binned = mapper.transform(
            np.concatenate((X, X_val)) if has_eval else X, order="F"
        )
        # sklearn-style layout split: the grower scans columns of the
        # F-ordered matrix.
        grower = TreeGrower(binned, mapper, cfg)
        rng = np.random.default_rng(cfg.random_state)

        base = self._loss.base_score(y)
        ensemble = TreeEnsemble(base_score=base, trees=[])
        raw = np.full(n, base, dtype=np.float64)
        if has_eval:
            raw_val = np.full(X_val.shape[0], base, dtype=np.float64)
        best_loss = np.inf
        best_iter = 0
        self.eval_history_ = []

        d = X.shape[1]
        eval_rows = np.arange(n, binned.shape[0])
        leaf_buf = np.empty(binned.shape[0], dtype=np.int64)
        for round_idx in range(cfg.n_estimators):
            grad, hess = self._loss.gradient_hessian(raw, y)
            if cfg.subsample < 1.0:
                take = max(1, int(round(cfg.subsample * n)))
                rows = rng.choice(n, size=take, replace=False)
                rows.sort()
                oob = np.ones(n, dtype=bool)
                oob[rows] = False
                passengers = np.concatenate((np.flatnonzero(oob), eval_rows))
            else:
                rows = np.arange(n)
                passengers = eval_rows
            if cfg.colsample_bytree < 1.0:
                take_f = max(1, int(round(cfg.colsample_bytree * d)))
                chosen = rng.choice(d, size=take_f, replace=False)
                feature_mask = np.zeros(d, dtype=bool)
                feature_mask[chosen] = True
            else:
                feature_mask = np.ones(d, dtype=bool)

            tree = grower.grow(
                grad,
                hess,
                rows,
                feature_mask,
                leaf_out=leaf_buf,
                passengers=passengers,
            )
            ensemble.trees.append(tree)
            # Every training row is either in-bag or a passenger, so
            # each raw score gains exactly its leaf's value.
            raw += tree.value[leaf_buf[:n]]

            if has_eval:
                raw_val += tree.value[leaf_buf[n:]]
                val_loss = self._loss.loss(raw_val, y_val)
                self.eval_history_.append(val_loss)
                if val_loss < best_loss - 1e-12:
                    best_loss = val_loss
                    best_iter = round_idx + 1
                elif (
                    cfg.early_stopping_rounds > 0
                    and round_idx + 1 - best_iter >= cfg.early_stopping_rounds
                ):
                    break

        if has_eval and cfg.early_stopping_rounds > 0 and best_iter > 0:
            ensemble.trees = ensemble.trees[:best_iter]
            self.eval_history_ = self.eval_history_[:best_iter]
            self.best_iteration_ = best_iter
        else:
            self.best_iteration_ = len(ensemble.trees)
        self.ensemble_ = ensemble
        self.compact_ = None
        return self

    # ------------------------------------------------------------------
    def compact(self) -> CompactEnsemble:
        """Hash-consed DAG view of the fitted ensemble (cached).

        Identical subtrees across all trees are interned into one
        shared node table (:class:`~repro.boosting.dag.CompactEnsemble`);
        its ``predict_raw_binned`` is bitwise identical to the per-tree
        path, which is why the serving layer scores through it.
        """
        if self.ensemble_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        if self.compact_ is None:
            self.compact_ = CompactEnsemble.from_ensemble(self.ensemble_)
        return self.compact_

    # ------------------------------------------------------------------
    def _raw(self, X: np.ndarray) -> np.ndarray:
        if self.ensemble_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected shape (n, {self.n_features_}), got {X.shape}"
            )
        return self.ensemble_.predict_raw(X)

    def _raw_binned(self, binned: np.ndarray) -> np.ndarray:
        if self.ensemble_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        if self.mapper_ is None:
            raise RuntimeError(
                "estimator has no fitted BinMapper (mapper_); models "
                "restored from format-v1 documents must use predict()"
            )
        # Predict walks rows, so hand the traversal a C-contiguous view
        # even when the caller passes the F-ordered training matrix
        # (sklearn's layout split: F for training, C for predict).
        binned = np.ascontiguousarray(binned)
        if binned.ndim != 2 or binned.shape[1] != self.n_features_:
            raise ValueError(
                f"expected shape (n, {self.n_features_}), got {binned.shape}"
            )
        return self.ensemble_.predict_raw_binned(binned, self.mapper_.missing_bin)

    def bin(self, X: np.ndarray, order: str = "C") -> np.ndarray:
        """Quantize raw rows with the fitted mapper (codes for ``*_binned``).

        The returned uint8 codes are the model's exact quantized view of
        ``X``: two rows with equal codes are indistinguishable to every
        tree, which is what makes them usable as cache keys in
        :mod:`repro.serve`.
        """
        if self.mapper_ is None:
            raise RuntimeError("estimator has no fitted BinMapper (mapper_)")
        return self.mapper_.transform(np.asarray(X, dtype=np.float64), order=order)

    def feature_importances(self) -> np.ndarray:
        """Cover-weighted split importance per feature (sums to 1)."""
        if self.ensemble_ is None or self.n_features_ is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        imp = self.ensemble_.total_cover_by_feature(self.n_features_)
        total = imp.sum()
        return imp / total if total > 0 else imp


class GBRegressor(_BaseGB):
    """Second-order gradient boosting for regression (squared error).

    Examples
    --------
    >>> import numpy as np
    >>> X = np.random.default_rng(0).normal(size=(200, 3))
    >>> y = 2.0 * X[:, 0] + X[:, 1]
    >>> model = GBRegressor(n_estimators=50, max_depth=3)
    >>> pred = model.fit(X, y).predict(X)
    >>> float(np.mean(np.abs(pred - y))) < 0.5
    True
    """

    def _make_loss(self) -> Loss:
        return SquaredErrorLoss()

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Point predictions."""
        return self._raw(X)

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Point predictions from pre-binned codes (see :meth:`bin`).

        Bitwise-identical to :meth:`predict` on the raw rows the codes
        were quantized from, but NaN-free and reusable across repeated
        requests — the serving hot path.
        """
        return self._raw_binned(binned)


class GBClassifier(_BaseGB):
    """Second-order gradient boosting for binary classification.

    Targets must be binary (bool or {0, 1}); predictions are class
    labels, probabilities come from :meth:`predict_proba`.  Set
    ``scale_pos_weight > 1`` in the config to trade precision for
    minority-class recall on imbalanced problems (cf. the Falls
    imbalance in the paper's Fig. 4).
    """

    def _make_loss(self) -> Loss:
        return LogisticLoss(pos_weight=self.config.scale_pos_weight)

    def _validate_targets(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.dtype == bool:
            y = y.astype(np.float64)
        y = np.asarray(y, dtype=np.float64)
        bad = ~np.isin(y, (0.0, 1.0))
        if bad.any():
            raise ValueError("classification targets must be binary {0, 1}")
        return y

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(class = 1) per row."""
        return self._loss.transform(self._raw(X))

    def predict_proba_binned(self, binned: np.ndarray) -> np.ndarray:
        """P(class = 1) from pre-binned codes (see :meth:`bin`)."""
        return self._loss.transform(self._raw_binned(binned))

    def proba_from_raw(self, raw: np.ndarray) -> np.ndarray:
        """Map raw scores (log-odds) to P(class = 1).

        Lets consumers that already hold raw scores — the serving layer
        caches them, TreeSHAP reconstructs them via the efficiency axiom
        — recover probabilities without another tree traversal.
        """
        return self._loss.transform(np.asarray(raw, dtype=np.float64))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Class labels (int64 in {0, 1}) at the given probability threshold."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    def predict_binned(
        self, binned: np.ndarray, threshold: float = 0.5
    ) -> np.ndarray:
        """Class labels from pre-binned codes (see :meth:`bin`)."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        return (self.predict_proba_binned(binned) >= threshold).astype(np.int64)
