"""Hyper-parameters of the gradient-boosting estimators."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GBConfig"]


@dataclass(frozen=True)
class GBConfig:
    """Hyper-parameters shared by :class:`GBRegressor`/:class:`GBClassifier`.

    Defaults are in the usual XGBoost ballpark for small tabular health
    datasets (the paper's training sets hold ~2 000 samples, ~60
    features).

    Attributes
    ----------
    n_estimators:
        Maximum number of boosting rounds.
    learning_rate:
        Shrinkage applied to every leaf value.
    max_depth:
        Maximum tree depth (root = depth 0).
    min_child_weight:
        Minimum sum of hessians in a child for a split to be valid.
    reg_lambda:
        L2 regularisation on leaf values.
    gamma:
        Minimum loss reduction (gain) required to split.
    subsample:
        Row subsampling rate per boosting round.
    colsample_bytree:
        Column subsampling rate per tree.
    max_bins:
        Number of histogram bins per feature (missing values get a
        dedicated extra bin).
    early_stopping_rounds:
        Stop when the validation loss has not improved for this many
        rounds; 0 disables early stopping (requires an eval set at fit
        time to take effect).
    random_state:
        Seed for row/column subsampling.
    scale_pos_weight:
        Positive-class loss multiplier for the classifier (ignored by
        the regressor); > 1 counteracts class imbalance.
    monotone_constraints:
        Optional per-feature constraints: +1 forces the model response
        to be non-decreasing in the feature, -1 non-increasing, 0 free.
        Clinically useful when domain knowledge fixes a direction (e.g.
        QoL cannot decrease as a mobility answer improves).
    """

    n_estimators: int = 300
    learning_rate: float = 0.08
    max_depth: int = 4
    min_child_weight: float = 2.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 0.9
    colsample_bytree: float = 0.9
    max_bins: int = 64
    early_stopping_rounds: int = 25
    random_state: int = 0
    scale_pos_weight: float = 1.0
    monotone_constraints: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight must be >= 0")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        if not 2 <= self.max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        if self.early_stopping_rounds < 0:
            raise ValueError("early_stopping_rounds must be >= 0")
        if self.scale_pos_weight <= 0:
            raise ValueError("scale_pos_weight must be positive")
        if self.monotone_constraints is not None:
            bad = [c for c in self.monotone_constraints if c not in (-1, 0, 1)]
            if bad:
                raise ValueError(
                    f"monotone_constraints entries must be -1/0/+1, got {bad}"
                )
