"""The evaluation protocol of Fig. 3.

For a given sample set the protocol:

1. splits 80/20 into CV-train and held-out test (stratified for the
   imbalanced Falls outcome);
2. runs K-fold CV on the training side, reporting per-fold metrics
   (model stability);
3. fits the final model on the training side — with an internal
   validation carve-out for early stopping — and scores it on the
   held-out 20 %.

The same protocol serves both arms: DD models see the raw 59/60-column
matrix, KD models see the 1/2-column ICI(+FI) matrix, so any performance
difference is attributable to the representation.

Execution model
---------------
All index splits are computed once up front into a
:class:`ProtocolPlan` — a pure function of the sample-set geometry, so
sample sets that share geometry (the DD and KD arms of one outcome)
can share one plan.  The K + 1 model fits of a run are then independent
*units* (each unit's seed lives in its model config, nothing flows
between fits), dispatched through
:func:`repro.parallel.parallel_map`: serial by default, across a
process pool under ``REPRO_JOBS``/``n_jobs``, with bitwise-identical
results either way.

Predictions inside the protocol (CV folds, held-out test,
:meth:`EvaluationResult.test_predictions`) route through the fitted
``mapper_``/``predict_binned`` fast path when the model exposes it —
exact per the PR 2/3 bin-space equivalence guarantees — and fall back
to ``predict`` for baseline models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from repro.boosting import GBClassifier, GBConfig, GBRegressor
from repro.learning.metrics import (
    ClassificationReport,
    RegressionReport,
    classification_report,
    regression_report,
)
from repro.learning.split import KFoldSplitter, train_test_split
from repro.parallel import parallel_map
from repro.pipeline.samples import SampleSet

__all__ = [
    "ModelFactory",
    "default_model_factory",
    "ProtocolPlan",
    "EvaluationResult",
    "run_protocol",
    "fast_predict",
]


class ModelFactory(Protocol):
    """Factory returning a fresh estimator for a sample set."""

    def __call__(self, samples: SampleSet) -> object: ...


def default_model_factory(samples: SampleSet):
    """The reproduction's default models.

    Gradient boosting for both arms (the paper trains the same learner
    on both representations).  KD inputs have 1-2 columns, so the trees
    are kept shallow there; the classifier also gets more conservative
    settings against the Falls imbalance.
    """
    is_classification = samples.outcome == "falls"
    shallow = samples.n_features <= 4
    config = GBConfig(
        n_estimators=400,
        learning_rate=0.06,
        max_depth=2 if shallow else 4,
        min_child_weight=3.0,
        reg_lambda=1.0,
        subsample=0.9,
        colsample_bytree=1.0 if shallow else 0.85,
        early_stopping_rounds=30,
        random_state=7,
    )
    return GBClassifier(config) if is_classification else GBRegressor(config)


def fast_predict(model, X: np.ndarray) -> np.ndarray:
    """Predict via the retained bin mapper when the model has one.

    ``predict_binned(bin(X))`` walks integer bin codes instead of
    NaN-checked float thresholds and is bitwise-equal to ``predict(X)``
    (the PR 2/3 equivalence guarantee); models without a fitted mapper
    (baselines, format-v1 restores) use plain ``predict``.
    """
    if getattr(model, "mapper_", None) is not None and hasattr(
        model, "predict_binned"
    ):
        return model.predict_binned(model.bin(X))
    return model.predict(X)


@dataclass(frozen=True)
class ProtocolPlan:
    """Every index split of one protocol run, computed once.

    A plan depends only on the sample-set *geometry* — ``(n_samples,
    labels used for stratification, n_folds, fractions, seed)`` — not on
    the feature matrix, so the DD/KD/±FI arms of one outcome share a
    single plan instead of re-deriving identical splits per fit
    (:class:`repro.experiments.ExperimentContext` caches them per
    outcome).

    Attributes
    ----------
    train_idx / test_idx:
        The 80/20 outer split (absolute sample indices).
    folds:
        K ``(fold_train, fold_val)`` pairs of positions *into
        train_idx*, as yielded by :class:`KFoldSplitter`.
    inner_train / inner_val:
        The final model's early-stopping carve-out, also positions into
        ``train_idx``.
    """

    n_samples: int
    n_folds: int
    seed: int
    stratified: bool
    test_fraction: float
    val_fraction: float
    train_idx: np.ndarray
    test_idx: np.ndarray
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]
    inner_train: np.ndarray
    inner_val: np.ndarray

    @classmethod
    def build(
        cls,
        n_samples: int,
        y: np.ndarray | None = None,
        stratified: bool = False,
        n_folds: int = 5,
        test_fraction: float = 0.2,
        val_fraction: float = 0.15,
        seed: int = 0,
    ) -> "ProtocolPlan":
        """Compute the splits (same derivation chain as the original
        inline code: outer split at ``seed``, folds at ``seed + 1``,
        carve-out at ``seed + 2``)."""
        if stratified and y is None:
            raise ValueError("stratified plans need labels")
        stratify = y if stratified else None
        train_idx, test_idx = train_test_split(
            n_samples,
            test_fraction=test_fraction,
            seed=seed,
            stratify=stratify,
        )
        y_train = y[train_idx] if y is not None else None
        splitter = KFoldSplitter(
            n_folds=n_folds, seed=seed + 1, stratified=stratified
        )
        folds = tuple(
            splitter.split(
                len(train_idx), labels=y_train if stratified else None
            )
        )
        inner_train, inner_val = train_test_split(
            len(train_idx),
            test_fraction=val_fraction,
            seed=seed + 2,
            stratify=y_train if stratified else None,
        )
        return cls(
            n_samples=n_samples,
            n_folds=n_folds,
            seed=seed,
            stratified=stratified,
            test_fraction=test_fraction,
            val_fraction=val_fraction,
            train_idx=train_idx,
            test_idx=test_idx,
            folds=folds,
            inner_train=inner_train,
            inner_val=inner_val,
        )


@dataclass
class EvaluationResult:
    """Everything the experiment runners need from one protocol run.

    Attributes
    ----------
    samples:
        The evaluated sample set (provenance included).
    model:
        The final fitted estimator.
    test_report:
        Held-out metrics (:class:`RegressionReport` or
        :class:`ClassificationReport` depending on the outcome).
    cv_reports:
        One report per CV fold (training-side stability).
    train_idx / test_idx:
        The 80/20 split indices (used by the SHAP figures to explain
        held-out patients only).
    """

    samples: SampleSet
    model: object
    test_report: RegressionReport | ClassificationReport
    cv_reports: list = field(default_factory=list)
    train_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None

    @property
    def headline(self) -> float:
        """The paper's headline number: 1-MAPE or accuracy."""
        if isinstance(self.test_report, RegressionReport):
            return self.test_report.one_minus_mape
        return self.test_report.accuracy

    def test_predictions(self) -> np.ndarray:
        """Model predictions on the held-out samples.

        Routed through the bin-space fast path (see
        :func:`fast_predict`) and cached — repeated calls from the
        experiment runners bin the test matrix once, not once per call.
        """
        cached = getattr(self, "_test_predictions", None)
        if cached is None:
            cached = fast_predict(self.model, self.samples.X[self.test_idx])
            self._test_predictions = cached
        return cached


@dataclass(frozen=True)
class _FitUnit:
    """One independent model fit: train on ``fit_idx`` with an eval set
    on ``val_idx``, then score on ``score_idx`` (absolute indices)."""

    factory: Callable[[SampleSet], object] | None
    fit_idx: np.ndarray
    val_idx: np.ndarray
    score_idx: np.ndarray
    keep_model: bool


def _run_fit_unit(unit: _FitUnit, samples: SampleSet) -> tuple:
    """Execute one fit unit (runs in a worker or inline)."""
    factory = unit.factory or default_model_factory
    X, y = samples.X, samples.y
    model = factory(samples)
    model.fit(
        X[unit.fit_idx],
        y[unit.fit_idx],
        eval_set=(X[unit.val_idx], y[unit.val_idx]),
    )
    pred = fast_predict(model, X[unit.score_idx])
    truth = y[unit.score_idx]
    if samples.outcome == "falls":
        report: RegressionReport | ClassificationReport = (
            classification_report(truth, pred)
        )
    else:
        report = regression_report(truth, pred)
    return report, (model if unit.keep_model else None)


def run_protocol(
    samples: SampleSet,
    model_factory: Callable[[SampleSet], object] | None = None,
    n_folds: int = 5,
    test_fraction: float = 0.2,
    seed: int = 0,
    val_fraction: float = 0.15,
    plan: ProtocolPlan | None = None,
    n_jobs: int | None = None,
) -> EvaluationResult:
    """Run the full Fig. 3 protocol on one sample set.

    Parameters
    ----------
    model_factory:
        Called once per fit; defaults to
        :func:`default_model_factory`.
    val_fraction:
        Fraction of the training side carved out as the early-stopping
        validation set for the final model.
    plan:
        Precomputed splits; derived from the arguments when omitted.
        Passing a plan makes ``n_folds``/``test_fraction``/
        ``val_fraction``/``seed`` irrelevant.
    n_jobs:
        Fan the K + 1 fits out across a process pool
        (:func:`repro.parallel.parallel_map`); results are
        bitwise-identical to the serial run.  ``None`` honours
        ``REPRO_JOBS``.
    """
    is_classification = samples.outcome == "falls"
    if plan is None:
        plan = ProtocolPlan.build(
            samples.n_samples,
            samples.y,
            stratified=is_classification,
            n_folds=n_folds,
            test_fraction=test_fraction,
            val_fraction=val_fraction,
            seed=seed,
        )
    elif plan.n_samples != samples.n_samples:
        raise ValueError(
            f"plan was built for {plan.n_samples} samples, "
            f"sample set has {samples.n_samples}"
        )

    train_idx = plan.train_idx
    units = [
        _FitUnit(
            factory=model_factory,
            fit_idx=train_idx[fold_train],
            val_idx=train_idx[fold_val],
            score_idx=train_idx[fold_val],
            keep_model=False,
        )
        for fold_train, fold_val in plan.folds
    ]
    units.append(
        _FitUnit(
            factory=model_factory,
            fit_idx=train_idx[plan.inner_train],
            val_idx=train_idx[plan.inner_val],
            score_idx=plan.test_idx,
            keep_model=True,
        )
    )
    outcomes = parallel_map(_run_fit_unit, units, n_jobs=n_jobs, state=samples)

    cv_reports = [report for report, _ in outcomes[:-1]]
    test_report, final_model = outcomes[-1]
    return EvaluationResult(
        samples=samples,
        model=final_model,
        test_report=test_report,
        cv_reports=cv_reports,
        train_idx=plan.train_idx,
        test_idx=plan.test_idx,
    )


def strip_samples(result: EvaluationResult) -> EvaluationResult:
    """Detach the sample set before shipping a result across processes.

    A worker's result carries the worker's own copy of the sample set;
    pickling it back to the parent would copy the whole matrix per
    unit.  The parent re-attaches its own :class:`SampleSet` on merge.
    """
    return replace(result, samples=None)