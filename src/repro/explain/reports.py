"""Attribution reports: local rankings (Fig. 6), global dependence (Fig. 7).

The paper's clinical use of SHAP:

* **Local** — for each patient, the clinician receives the prediction
  plus the features ranked by their Shapley contribution, split into
  positively (green) and negatively (red) contributing groups; two
  patients with the *same* prediction can have entirely different
  rankings (Fig. 6), which is the personalisation argument.
* **Global** — plotting one variable's SHAP value against its raw value
  across the population reveals data-driven thresholds (Fig. 7 shows a
  PRO item whose contribution flips sign at answer >= 3), mimicking the
  manually chosen KD cutoffs but learned from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalExplanation",
    "top_k_features",
    "local_reports",
    "GlobalDependence",
    "dependence_curve",
    "detect_threshold",
    "GlobalImportance",
    "global_importance",
]


@dataclass(frozen=True)
class LocalExplanation:
    """A per-sample attribution report.

    Attributes
    ----------
    prediction:
        The model output being explained (raw scale).
    expected_value:
        The population baseline (prediction with no feature knowledge).
    features:
        Feature names ranked by |SHAP|, descending, truncated to k.
    contributions:
        The corresponding signed SHAP values.
    values:
        The corresponding raw feature values of the sample.
    """

    prediction: float
    expected_value: float
    features: tuple[str, ...]
    contributions: tuple[float, ...]
    values: tuple[float, ...]

    def positive(self) -> list[tuple[str, float]]:
        """Features pushing the prediction up (paper's green bars)."""
        return [
            (f, c) for f, c in zip(self.features, self.contributions) if c > 0
        ]

    def negative(self) -> list[tuple[str, float]]:
        """Features pushing the prediction down (paper's red bars)."""
        return [
            (f, c) for f, c in zip(self.features, self.contributions) if c < 0
        ]

    def render(self) -> str:
        """Plain-text rendering of the report (for examples/CLI)."""
        lines = [
            f"prediction = {self.prediction:+.4f} "
            f"(baseline {self.expected_value:+.4f})"
        ]
        for name, contrib, value in zip(
            self.features, self.contributions, self.values
        ):
            # Exactly-zero contributions are neutral (consistent with
            # positive()/negative(), which exclude them).
            arrow = "+" if contrib > 0 else ("-" if contrib < 0 else "=")
            shown = "missing" if np.isnan(value) else f"{value:g}"
            lines.append(f"  [{arrow}] {name} = {shown}: {contrib:+.4f}")
        return "\n".join(lines)


def top_k_features(
    shap_row: np.ndarray,
    x_row: np.ndarray,
    feature_names: list[str],
    prediction: float | np.ndarray,
    expected_value: float,
    k: int = 5,
    *,
    return_order: bool = False,
):
    """Build the paper's top-k local reports for one sample or a batch.

    The paper reports "the 5 most relevant Shapley Values" per patient
    (Fig. 6); ``k`` defaults accordingly.

    With 1-D ``shap_row``/``x_row`` (length ``d``) and a scalar
    ``prediction`` the result is one :class:`LocalExplanation`.  With
    2-D ``(n, d)`` matrices and a length-``n`` vector of predictions it
    is a list of ``n`` reports, ranked by one row-wise ``argsort`` of
    ``-|phi|`` and filled by two gathers; every field equals the
    per-row report bit for bit (the sort kind is the same, so exact
    ties keep their order).

    With ``return_order=True`` the result is ``(reports, order)``:
    ``order`` holds the ranked column indices of each report (a list of
    ints for one sample, a list of such lists for a batch), so a caller
    can pick the same columns out of another row with equal SHAP
    values.
    """
    shap = np.asarray(shap_row, dtype=np.float64)
    x = np.asarray(x_row, dtype=np.float64)
    if shap.ndim == 1:
        reports, order = top_k_features(
            shap[None],
            x[None],
            feature_names,
            [float(prediction)],
            expected_value,
            k=k,
            return_order=True,
        )
        return (reports[0], order[0]) if return_order else reports[0]
    if shap.ndim != 2 or x.shape != shap.shape or shap.shape[1] != len(feature_names):
        raise ValueError("shap/x/feature_names lengths differ")
    if k < 1:
        raise ValueError("k must be >= 1")
    predictions = np.asarray(prediction, dtype=np.float64)
    if predictions.shape != (shap.shape[0],):
        raise ValueError(
            f"expected {shap.shape[0]} predictions, got shape "
            f"{predictions.shape}"
        )
    order = np.argsort(-np.abs(shap), axis=1)[:, :k]
    contributions = np.take_along_axis(shap, order, axis=1).tolist()
    values = np.take_along_axis(x, order, axis=1).tolist()
    names = list(feature_names)
    expected_value = float(expected_value)
    ranked = order.tolist()
    reports = [
        _local_explanation(
            p, expected_value, tuple([names[i] for i in idx]), tuple(c), tuple(v)
        )
        for p, idx, c, v in zip(predictions.tolist(), ranked, contributions, values)
    ]
    return (reports, ranked) if return_order else reports


def _local_explanation(
    prediction: float,
    expected_value: float,
    features: tuple[str, ...],
    contributions: tuple[float, ...],
    values: tuple[float, ...],
) -> LocalExplanation:
    """``LocalExplanation(...)`` without the frozen-dataclass ``__init__``.

    The frozen ``__init__`` sets each field through
    ``object.__setattr__``; filling the instance dict directly builds
    the same object (equal, same hash, repr and pickle) in about a
    third of the time, which matters when a batch builds one per row.
    Callers pass fields that are already of their declared types.
    """
    report = object.__new__(LocalExplanation)
    report.__dict__.update(
        prediction=prediction,
        expected_value=expected_value,
        features=features,
        contributions=contributions,
        values=values,
    )
    return report


def local_reports(
    shap_matrix: np.ndarray,
    X: np.ndarray,
    feature_names: list[str],
    expected_value: float,
    k: int = 5,
) -> list[LocalExplanation]:
    """Top-k local reports for a whole batch from one SHAP matrix.

    Companion of the batched
    :meth:`~repro.explain.treeshap.TreeShapExplainer.shap_values`: the
    per-sample predictions are recovered from the efficiency axiom
    (``expected_value + row.sum()``), so a cohort's reports need no
    second model pass, and all of them come from one batch call of
    :func:`top_k_features`.
    """
    shap_matrix = np.asarray(shap_matrix, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if shap_matrix.ndim != 2 or shap_matrix.shape != X.shape:
        raise ValueError(
            f"shap matrix shape {shap_matrix.shape} does not match "
            f"X shape {X.shape}"
        )
    predictions = expected_value + shap_matrix.sum(axis=1)
    return top_k_features(
        shap_matrix, X, feature_names, predictions, expected_value, k=k
    )


@dataclass(frozen=True)
class GlobalDependence:
    """SV-vs-value summary of one feature across a population.

    Attributes
    ----------
    feature:
        Feature name.
    values:
        Sorted distinct raw values observed (categorical PRO answers in
        the paper's Fig. 7).
    mean_shap:
        Mean SHAP value at each raw value.
    counts:
        Number of samples at each raw value.
    threshold:
        The detected sign-change threshold (see
        :func:`detect_threshold`), or None when the curve does not
        cross zero monotonically.
    """

    feature: str
    values: np.ndarray
    mean_shap: np.ndarray
    counts: np.ndarray
    threshold: float | None

    def flip_direction(self) -> str | None:
        """Orientation of the sign change at ``threshold``.

        ``"negative_to_positive"`` when the contribution turns positive
        at values >= threshold (the paper's Fig. 7 orientation),
        ``"positive_to_negative"`` for the opposite flip, None when no
        threshold was detected.
        """
        if self.threshold is None:
            return None
        signs = np.sign(self.mean_shap)
        after = np.flatnonzero((self.values >= self.threshold) & (signs != 0))
        if after.size == 0:  # defensive; cannot happen for detected thresholds
            return None
        return (
            "negative_to_positive" if signs[after[0]] > 0
            else "positive_to_negative"
        )

    def render(self) -> str:
        """Plain-text rendering of the dependence curve."""
        lines = [f"global dependence for {self.feature!r}"]
        for v, s, c in zip(self.values, self.mean_shap, self.counts):
            bar = "#" * min(40, int(abs(s) * 200))
            sign = "+" if s >= 0 else "-"
            lines.append(f"  value {v:g} (n={c}): {s:+.4f} {sign}{bar}")
        if self.threshold is not None:
            flip = (
                "flips - to +"
                if self.flip_direction() == "negative_to_positive"
                else "flips + to -"
            )
            lines.append(
                f"  detected threshold: >= {self.threshold:g} "
                f"(contribution {flip})"
            )
        return "\n".join(lines)


def dependence_curve(
    shap_column: np.ndarray,
    x_column: np.ndarray,
    feature: str,
    max_points: int = 25,
) -> GlobalDependence:
    """Aggregate one feature's SHAP values per raw value.

    Continuous features are quantile-bucketed to at most ``max_points``
    representative values; categorical (few distinct values) features
    keep exact categories, as in the paper's PRO example.
    """
    shap_column = np.asarray(shap_column, dtype=np.float64)
    x_column = np.asarray(x_column, dtype=np.float64)
    keep = ~np.isnan(x_column)
    xs, ss = x_column[keep], shap_column[keep]
    if xs.size == 0:
        raise ValueError(f"feature {feature!r} has no observed values")

    distinct = np.unique(xs)
    if len(distinct) > max_points:
        edges = np.quantile(xs, np.linspace(0, 1, max_points + 1))
        edges = np.unique(edges)
        codes = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, len(edges) - 2)
        distinct = np.array(
            [xs[codes == b].mean() for b in range(len(edges) - 1) if (codes == b).any()]
        )
        groups = [
            np.flatnonzero(codes == b)
            for b in range(len(edges) - 1)
            if (codes == b).any()
        ]
    else:
        groups = [np.flatnonzero(xs == v) for v in distinct]

    mean_shap = np.array([ss[g].mean() for g in groups])
    counts = np.array([len(g) for g in groups], dtype=np.int64)
    threshold = detect_threshold(distinct, mean_shap)
    return GlobalDependence(
        feature=feature,
        values=distinct,
        mean_shap=mean_shap,
        counts=counts,
        threshold=threshold,
    )


@dataclass(frozen=True)
class GlobalImportance:
    """Population-level feature ranking by mean |SHAP|.

    This is the SHAP "summary" view: for the whole study population,
    which variables drive the model, regardless of direction.  The
    paper uses it implicitly when it says SHAP ranks "the relative
    influence of each feature ... globally, i.e. when considering the
    model predictions for an entire population".
    """

    features: tuple[str, ...]
    mean_abs_shap: tuple[float, ...]
    mean_shap: tuple[float, ...]

    def render(self) -> str:
        """Plain-text ranking."""
        lines = ["global feature importance (mean |SHAP|)"]
        top = max(self.mean_abs_shap) if self.mean_abs_shap else 1.0
        for name, mag, signed in zip(
            self.features, self.mean_abs_shap, self.mean_shap
        ):
            bar = "#" * int(30 * mag / top) if top > 0 else ""
            lines.append(f"  {name:16s} {mag:.4f} (mean {signed:+.4f}) {bar}")
        return "\n".join(lines)


def global_importance(
    shap_matrix: np.ndarray,
    feature_names: list[str],
    k: int = 15,
) -> GlobalImportance:
    """Rank features by mean absolute SHAP value over a population.

    Parameters
    ----------
    shap_matrix:
        ``(n_samples, n_features)`` SHAP values.
    feature_names:
        Column names, length ``n_features``.
    k:
        Number of top features to keep.
    """
    shap_matrix = np.asarray(shap_matrix, dtype=np.float64)
    if shap_matrix.ndim != 2 or shap_matrix.shape[1] != len(feature_names):
        raise ValueError(
            f"shap matrix shape {shap_matrix.shape} does not match "
            f"{len(feature_names)} feature names"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    magnitude = np.abs(shap_matrix).mean(axis=0)
    order = np.argsort(-magnitude)[:k]
    signed = shap_matrix.mean(axis=0)
    return GlobalImportance(
        features=tuple(feature_names[i] for i in order),
        mean_abs_shap=tuple(float(magnitude[i]) for i in order),
        mean_shap=tuple(float(signed[i]) for i in order),
    )


def detect_threshold(values: np.ndarray, mean_shap: np.ndarray) -> float | None:
    """Find the cutoff where the mean SHAP contribution changes sign.

    This is the paper's observation that the DD model re-discovers the
    experts' manual cutoffs: in Fig. 7 the PRO item's contribution turns
    positive at answers >= 3.  The detector returns the smallest value
    whose side of the curve is (weakly) consistently opposite in sign to
    the other side; None when there is no single sign change.
    """
    values = np.asarray(values, dtype=np.float64)
    mean_shap = np.asarray(mean_shap, dtype=np.float64)
    if len(values) != len(mean_shap):
        raise ValueError("values and mean_shap lengths differ")
    if len(values) < 2:
        return None
    signs = np.sign(mean_shap)
    nz = np.flatnonzero(signs)
    if nz.size < 2 or len(set(signs[nz])) == 1:
        return None
    # A single sign change along the nonzero subsequence: k values of
    # one polarity followed only by the other polarity.  The threshold
    # is the first value carrying the new sign.
    nz_signs = signs[nz]
    changes = np.flatnonzero(np.diff(nz_signs) != 0)
    if len(changes) != 1:
        return None
    return float(values[nz[changes[0] + 1]])
