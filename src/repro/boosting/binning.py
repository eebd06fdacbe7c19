"""Quantile histogram binning of feature matrices.

Histogram-based boosting discretises every feature into at most
``max_bins`` bins once, before any tree is grown; split finding then
scans bin statistics instead of sorted raw values.  Missing values (NaN)
are mapped to a dedicated bin index (``missing_bin``) and routed by the
learned per-split default direction, exactly like XGBoost's sparsity-
aware splits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BinMapper"]


class BinMapper:
    """Fit per-feature quantile bin edges; transform matrices to bin codes.

    Attributes (after ``fit``)
    --------------------------
    bin_edges_:
        List of ``d`` arrays of *upper* bin boundaries (values ``<=``
        edge fall in the bin); length ``n_bins_[f] - 1``.
    n_bins_:
        Number of non-missing bins actually used per feature (features
        with few distinct values use fewer bins than ``max_bins``).
    missing_bin:
        The bin code reserved for NaN (same for all features).
    """

    def __init__(self, max_bins: int = 64):
        if not 2 <= max_bins <= 255:
            raise ValueError("max_bins must be in [2, 255]")
        self.max_bins = max_bins
        self.bin_edges_: list[np.ndarray] | None = None
        self.n_bins_: np.ndarray | None = None

    @property
    def missing_bin(self) -> int:
        """Bin code reserved for missing values."""
        return self.max_bins

    def fit(self, X: np.ndarray) -> "BinMapper":
        """Learn bin edges from the training matrix (NaN ignored)."""
        X = _check_matrix(X)
        edges: list[np.ndarray] = []
        n_bins = np.empty(X.shape[1], dtype=np.int64)
        for f in range(X.shape[1]):
            col = X[:, f]
            col = col[~np.isnan(col)]
            if col.size == 0:
                edges.append(np.array([], dtype=np.float64))
                n_bins[f] = 1
                continue
            distinct = np.unique(col)
            if len(distinct) <= self.max_bins:
                # One bin per distinct value; edges at midpoints.
                cut = (distinct[:-1] + distinct[1:]) / 2.0
            else:
                qs = np.linspace(0, 1, self.max_bins + 1)[1:-1]
                cut = np.unique(np.quantile(col, qs))
            edges.append(cut.astype(np.float64))
            n_bins[f] = len(cut) + 1
        self.bin_edges_ = edges
        self.n_bins_ = n_bins
        return self

    def transform(self, X: np.ndarray, order: str = "C") -> np.ndarray:
        """Map a raw matrix to bin codes (uint8; NaN -> ``missing_bin``).

        ``order`` selects the memory layout of the output: "C" (default)
        favours row-wise access (prediction), "F" favours the
        column-wise gathers of histogram building in the tree grower.

        Unlike ``fit``, +/-inf is accepted: it clamps to the extreme
        bins, which routes identically to raw-threshold evaluation.
        """
        if self.bin_edges_ is None:
            raise RuntimeError("BinMapper must be fitted before transform")
        if order not in ("C", "F"):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        X = _check_matrix(X, allow_inf=True)
        if X.shape[1] != len(self.bin_edges_):
            raise ValueError(
                f"matrix has {X.shape[1]} features, mapper was fitted on "
                f"{len(self.bin_edges_)}"
            )
        out = np.empty(X.shape, dtype=np.uint8, order=order)
        # NaN sorts past every edge, so its code is overwritten below
        # by one mask pass over the whole matrix.
        for f, cut in enumerate(self.bin_edges_):
            out[:, f] = cut.searchsorted(X[:, f])
        np.putmask(out, np.isnan(X), self.missing_bin)
        return out

    def fit_transform(self, X: np.ndarray, order: str = "C") -> np.ndarray:
        """``fit`` then ``transform`` on the same matrix.

        ``order`` is forwarded to :meth:`transform` ("F" for training,
        "C" for prediction — the sklearn hist-GBM layout split).
        """
        return self.fit(X).transform(X, order=order)

    def threshold_value(self, feature: int, bin_index: int) -> float:
        """Raw-value threshold equivalent to splitting after ``bin_index``.

        A binned split "bin <= bin_index goes left" equals the raw-value
        split "x <= bin_edges_[feature][bin_index]"; we return that edge
        so fitted trees can be evaluated on raw (un-binned) inputs and so
        explanations read in raw units.

        A ``bin_index`` at or past the last edge denotes the legitimate
        "all non-missing values left, missing right" split, whose raw
        threshold is +inf.
        """
        if self.bin_edges_ is None:
            raise RuntimeError("BinMapper must be fitted first")
        cut = self.bin_edges_[feature]
        if bin_index < 0:
            raise IndexError(f"negative bin_index {bin_index}")
        if bin_index >= len(cut):
            return float("inf")
        return float(cut[bin_index])


def _check_matrix(X: np.ndarray, allow_inf: bool = False) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if not allow_inf and np.isinf(X).any():
        raise ValueError("matrix contains +/-inf; only finite values and NaN allowed")
    return X
