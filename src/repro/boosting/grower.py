"""Histogram-based tree growing (one boosting round).

Given per-sample gradients/hessians and the pre-binned feature matrix,
the grower builds one depth-wise tree.  The hot loop is organised
around two classic histogram-boosting optimisations:

* **Per-feature histogram accumulation.**  Node histograms are built
  one feature at a time with ``np.bincount`` over that feature's bin
  codes, allocating O(bins) per feature instead of materialising
  O(rows x features) repeated-weight temporaries.
* **Histogram subtraction.**  After a split, only the smaller child's
  histogram is accumulated from its rows; the sibling's histogram is
  obtained as ``parent - child``.  Parent histograms are threaded
  through :class:`_NodeTask`, so each level of the tree costs roughly
  one pass over half the node's rows rather than one pass per child.

At every node the grower scans all candidate splits vectorised and
applies the XGBoost gain formula

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda)
                   - (GL+GR)^2/(HL+HR+lambda) ] - gamma

Missing values occupy a dedicated bin and are routed to whichever side
yields the larger gain (sparsity-aware default direction).  The scan
includes the "all non-missing left, missing right" candidate (raw
threshold ``+inf``, see :meth:`BinMapper.threshold_value`) so features
whose predictive signal lies in *being missing* still split cleanly.

Each split also records its bin-space threshold (``Tree.bin_threshold``)
and, on request, the leaf each row lands in.  Rows the fit loop needs
scored but not trained on (out-of-bag rows, the early-stopping eval
set) ride along as *passengers*: they are partitioned with the training
rows at every split but never enter a histogram or a count, so the fit
loop updates every raw score from leaf values directly instead of
traversing each new tree a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.boosting.binning import BinMapper
from repro.boosting.config import GBConfig
from repro.boosting.tree import LEAF, Tree

__all__ = ["FLAT_CELLS_MAX", "TreeGrower"]

#: Gain below which a split candidate is considered invalid.
_NEG_INF = -np.inf

#: Nodes with at most this many rows x features cells accumulate their
#: histograms with one flat offset-codes bincount instead of the
#: per-feature loop (see :meth:`TreeGrower._histograms`).
FLAT_CELLS_MAX = 1 << 18


def _clip(value: float, lower: float, upper: float) -> float:
    """Scalar clamp (bounds may be +/-inf)."""
    return min(max(value, lower), upper)


@dataclass
class _NodeTask:
    """A node awaiting processing during depth-wise growth.

    ``rows`` lists the node's training rows first (ascending) and its
    passenger rows after them; ``n_train`` counts the former, and only
    they enter histograms and the size tests that pick which nodes are
    scanned and which child is accumulated.
    ``lower``/``upper`` bound the (unshrunken) leaf values permitted in
    this subtree; they implement monotone-constraint propagation.
    ``hist`` holds the node's ``(n_channels, n_features, stride)``
    gradient/hessian[/count] histograms when the parent already derived
    them (directly for the smaller child, by subtraction for its
    sibling); ``None`` means the node accumulates its own histograms if
    and when it is scanned.  The last channel is always an exact
    occupancy count: a dedicated integer channel when hessians vary,
    or the hessian channel itself when all hessians are 1.
    """

    node_id: int
    rows: np.ndarray
    n_train: int
    depth: int
    grad_sum: float
    hess_sum: float
    lower: float = -np.inf
    upper: float = np.inf
    hist: np.ndarray | None = field(default=None, repr=False)


class TreeGrower:
    """Grow one tree on binned data.

    Parameters
    ----------
    binned:
        ``(n_samples, n_features)`` uint8 bin codes from
        :class:`BinMapper.transform`.
    mapper:
        The fitted mapper (provides bin -> raw threshold translation).
    config:
        Boosting hyper-parameters.
    use_subtraction:
        When True (default), sibling histograms are derived as
        ``parent - child``; when False every node accumulates its
        histograms from scratch.  The flag exists so equivalence tests
        can prove both paths grow identical trees.
    """

    def __init__(
        self,
        binned: np.ndarray,
        mapper: BinMapper,
        config: GBConfig,
        use_subtraction: bool = True,
    ):
        if binned.dtype != np.uint8:
            raise TypeError("binned matrix must be uint8")
        # Histogram building gathers one column at a time; keep a
        # Fortran-ordered view so those gathers stay cache-friendly.
        self.binned = binned if binned.flags.f_contiguous else np.asfortranarray(binned)
        self.mapper = mapper
        self.config = config
        self.use_subtraction = use_subtraction
        self.n_features = binned.shape[1]
        self._stride = mapper.missing_bin + 1
        self._col_offsets = (
            np.arange(self.n_features, dtype=np.int64) * self._stride
        )
        # Precomputing the feature-offset codes costs 8x the binned
        # matrix in resident memory, so cache them only for matrices
        # where that is cheap (<= 64 MB); larger fits rebuild the
        # (row-capped, few-hundred-KB) codes per flat-path call.
        self._offset_codes: np.ndarray | None = None
        self._cache_offset_codes = binned.size <= 8 << 20
        # Refreshed per grow() call from the round's gradients/hessians.
        self._n_channels = 3
        self._scan_dtype = np.float32
        # Scratch arrays for the batched split scan, keyed by (name,
        # shape); reuse avoids re-faulting ~0.5 MB of fresh pages per
        # level (large numpy allocations are mmap-backed).
        self._scratch: dict = {}

    def grow(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        feature_mask: np.ndarray,
        leaf_out: np.ndarray | None = None,
        passengers: np.ndarray | None = None,
    ) -> Tree:
        """Build one tree from the given round's gradients.

        Parameters
        ----------
        grad / hess:
            Per-sample arrays indexed by row (only ``rows`` are used).
        rows:
            Sorted row indices participating in this round (row
            subsampling).
        feature_mask:
            Boolean mask of features available to this tree (column
            subsampling).
        leaf_out:
            Optional int64 array of length ``n_samples``; entries for
            ``rows`` and ``passengers`` are filled with the leaf node id
            each row reaches, letting the caller update raw predictions
            without re-traversing the tree.
        passengers:
            Optional row indices, disjoint from ``rows``, that follow
            every split but never contribute to a histogram, a gradient
            sum or a size test: the tree grown is the same with or
            without them.  Their leaves equal
            :meth:`Tree.predict_binned` routing of the same codes.

        Returns
        -------
        Tree
            Leaf values are Newton steps scaled by the learning rate.
        """
        cfg = self.config
        children_left: list[int] = []
        children_right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        bin_threshold: list[int] = []
        missing_left: list[bool] = []
        value: list[float] = []
        cover: list[float] = []

        def new_node(cov: float) -> int:
            children_left.append(LEAF)
            children_right.append(LEAF)
            feature.append(LEAF)
            threshold.append(np.nan)
            bin_threshold.append(LEAF)
            missing_left.append(False)
            value.append(0.0)
            cover.append(cov)
            return len(children_left) - 1

        active_features = np.flatnonzero(feature_mask)
        mask_all = bool(feature_mask.all())
        # With unit hessians (squared error) the hessian histogram is
        # integer-valued and therefore already an exact occupancy
        # count; otherwise a dedicated count channel is accumulated.
        g_rows = grad[rows]
        h_rows = hess[rows]
        self._n_channels = 2 if bool((h_rows == 1.0).all()) else 3
        # The float32 candidate scan overflows to inf (silently
        # rejecting every split) once a squared gradient sum leaves
        # float32 range; bound |GL| by sum(|g|) and fall back to a
        # float64 scan for pathologically scaled targets.
        g_root = float(g_rows.sum())
        h_root = float(h_rows.sum())
        scale = float(np.abs(g_rows).sum()) + h_root
        self._scan_dtype = np.float32 if scale < 1e15 else np.float64
        root = new_node(h_root)
        n_train = rows.size
        if passengers is not None and passengers.size:
            rows = np.concatenate((rows, passengers))
        level = [_NodeTask(root, rows, n_train, 0, g_root, h_root)]

        constraints = cfg.monotone_constraints
        while level:
            # Level-synchronous growth: the candidate scan for every
            # node of the level runs as one batched set of array ops,
            # which amortises numpy dispatch overhead that would
            # otherwise dominate on small per-node histograms.
            scannable = []
            for task in level:
                if task.depth < cfg.max_depth and task.n_train >= 2:
                    if task.hist is None:
                        task.hist = self._histograms(
                            task.rows[: task.n_train], grad, hess, active_features
                        )
                    scannable.append(task)
            splits = (
                self._best_splits(scannable, feature_mask, mask_all)
                if scannable
                else []
            )
            split_of = {id(t): s for t, s in zip(scannable, splits)}

            next_level = []
            #: (parent task, smaller child, bigger child) triples whose
            #: child histograms derive from the parent after the level.
            derive: list[tuple[_NodeTask, _NodeTask, _NodeTask]] = []
            for task in level:
                split = split_of.get(id(task))
                if split is None:
                    value[task.node_id] = self._leaf_value(
                        task.grad_sum, task.hess_sum, task.lower, task.upper
                    )
                    if leaf_out is not None:
                        leaf_out[task.rows] = task.node_id
                    task.hist = None
                    continue

                f, b, miss_left, gain, gl, hl = split
                codes = self.binned[:, f][task.rows]
                left_sel = codes <= b
                if miss_left:
                    left_sel |= codes == self.mapper.missing_bin
                left_rows = task.rows[left_sel]
                right_rows = task.rows[~left_sel]
                # Boolean selection keeps order, so each child again
                # lists its training rows first.
                n_left = int(np.count_nonzero(left_sel[: task.n_train]))
                n_right = task.n_train - n_left

                left_id = new_node(hl)
                right_id = new_node(task.hess_sum - hl)
                children_left[task.node_id] = left_id
                children_right[task.node_id] = right_id
                feature[task.node_id] = f
                threshold[task.node_id] = self.mapper.threshold_value(f, b)
                bin_threshold[task.node_id] = b
                missing_left[task.node_id] = miss_left

                # Monotone-constraint bound propagation: a split on a
                # constrained feature caps one side's subtree at the
                # midpoint of the two (clipped) Newton child values.
                left_lower = right_lower = task.lower
                left_upper = right_upper = task.upper
                c = constraints[f] if constraints is not None else 0
                if c != 0:
                    lam = cfg.reg_lambda
                    wl = _clip(-gl / (hl + lam), task.lower, task.upper)
                    wr = _clip(
                        -(task.grad_sum - gl) / (task.hess_sum - hl + lam),
                        task.lower,
                        task.upper,
                    )
                    mid = (wl + wr) / 2.0
                    if c > 0:
                        left_upper = min(left_upper, mid)
                        right_lower = max(right_lower, mid)
                    else:
                        left_lower = max(left_lower, mid)
                        right_upper = min(right_upper, mid)

                left_task = _NodeTask(
                    left_id,
                    left_rows,
                    n_left,
                    task.depth + 1,
                    gl,
                    hl,
                    left_lower,
                    left_upper,
                )
                right_task = _NodeTask(
                    right_id,
                    right_rows,
                    n_right,
                    task.depth + 1,
                    task.grad_sum - gl,
                    task.hess_sum - hl,
                    right_lower,
                    right_upper,
                )
                if self.use_subtraction and task.depth + 1 < cfg.max_depth:
                    # Children will be scanned: accumulate only the
                    # smaller one (batched with its level siblings
                    # below), derive the bigger as parent - child.
                    small, big = (
                        (left_task, right_task)
                        if n_left <= n_right
                        else (right_task, left_task)
                    )
                    derive.append((task, small, big))
                else:
                    task.hist = None

                next_level.append(left_task)
                next_level.append(right_task)

            # Each split's smaller child accumulates its histograms; the
            # sibling is derived as parent - child (in place: the
            # parent's histograms are not needed any more).
            for task, small, big in derive:
                small.hist = self._histograms(
                    small.rows[: small.n_train], grad, hess, active_features
                )
                big_hist = np.subtract(task.hist, small.hist, out=task.hist)
                # Counts are integers stored in float64, so their
                # subtraction is exact; scrub the last-ulp residue the
                # float channels accumulate in bins that are empty at
                # this node but occupied higher up the tree.  This keeps
                # empty bins at exact zero at every depth, which the
                # split scan's occupancy logic and duplicate-candidate
                # tie-breaking rely on.
                np.copyto(big_hist[:-1], 0.0, where=big_hist[-1] == 0.0)
                big.hist = big_hist
                task.hist = None
            level = next_level

        return Tree(
            children_left=np.asarray(children_left, dtype=np.int64),
            children_right=np.asarray(children_right, dtype=np.int64),
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            missing_left=np.asarray(missing_left, dtype=bool),
            value=np.asarray(value, dtype=np.float64),
            cover=np.asarray(cover, dtype=np.float64),
            bin_threshold=np.asarray(bin_threshold, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _leaf_value(
        self,
        g: float,
        h: float,
        lower: float = -np.inf,
        upper: float = np.inf,
    ) -> float:
        cfg = self.config
        newton = _clip(-g / (h + cfg.reg_lambda), lower, upper)
        return cfg.learning_rate * newton

    def _histograms(
        self,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        active_features: np.ndarray,
    ) -> np.ndarray:
        """Per-(feature, bin) sums: ``(n_channels, d, stride)``.

        Channels are gradient, hessian and — when hessians vary — an
        occupancy count (exact small integers in float64), which lets
        the subtraction trick scrub float residue out of empty bins and
        gives the split scan exact occupancy tests at any depth.  With
        unit hessians the hessian channel doubles as the count.

        Large nodes accumulate one feature at a time (O(bins) scratch
        per feature; features excluded by the column mask keep all-zero
        rows).  Nodes of at most :data:`FLAT_CELLS_MAX` rows x features
        cells — where n_channels x n_features bincount dispatches
        dominate — use one flat bincount over precomputed feature-offset
        codes instead (per node it ran 2.1x as fast as the loop at
        1,043 x 60, 1.1x at 5,400 x 60 and 0.83x at 18,000 x 48); that
        path fills masked-out features too, which is harmless because every
        consumer is feature-mask-guarded and both paths accumulate each
        (feature, bin) cell in identical row order.
        """
        stride = self._stride
        d = self.n_features
        nch = self._n_channels
        # Two channels means hessians are all 1 (see grow), so the
        # hessian histogram equals the plain occupancy count — the
        # unweighted integer bincount path is markedly faster.
        unit_hess = nch == 2
        g_rows = grad[rows]
        if rows.size * d <= FLAT_CELLS_MAX:
            if self._cache_offset_codes:
                if self._offset_codes is None:
                    self._offset_codes = np.ascontiguousarray(
                        self.binned.astype(np.int64) + self._col_offsets
                    )
                flat = self._offset_codes[rows].ravel()
            else:
                flat = (
                    self.binned[rows].astype(np.int64) + self._col_offsets
                ).ravel()
            size = d * stride
            hist = np.empty((nch, d, stride), dtype=np.float64)
            # The repeated per-row weights reuse one scratch buffer
            # (broadcast-assign + ravel view) instead of a fresh
            # O(rows x d) np.repeat allocation per call; the weight
            # values are identical, so the bincounts are too.
            rep = self._scratch_buf("flat_rep", (rows.size, d))
            rep[:] = g_rows[:, None]
            hist[0] = np.bincount(
                flat, weights=rep.ravel(), minlength=size
            ).reshape(d, stride)
            if unit_hess:
                hist[1] = np.bincount(flat, minlength=size).reshape(d, stride)
            else:
                rep[:] = hess[rows][:, None]
                hist[1] = np.bincount(
                    flat, weights=rep.ravel(), minlength=size
                ).reshape(d, stride)
                hist[2] = np.bincount(flat, minlength=size).reshape(d, stride)
            return hist
        hist = np.zeros((nch, d, stride), dtype=np.float64)
        h_rows = None if unit_hess else hess[rows]
        binned = self.binned
        for f in active_features:
            codes = binned[:, f][rows]
            hist[0, f] = np.bincount(codes, weights=g_rows, minlength=stride)
            if unit_hess:
                hist[1, f] = np.bincount(codes, minlength=stride)
            else:
                hist[1, f] = np.bincount(codes, weights=h_rows, minlength=stride)
                hist[2, f] = np.bincount(codes, minlength=stride)
        return hist

    def _scratch_buf(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Reusable scratch array of the requested shape.

        The leading dimension (nodes per level) is data-dependent, so
        buffers are kept at the largest capacity seen per (name, dtype,
        trailing dims) and sliced down — O(1) buffers per name instead
        of one per distinct level width.
        """
        key = (name, shape[1:], dtype)
        buf = self._scratch.get(key)
        if buf is None or buf.shape[0] < shape[0]:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf if buf.shape[0] == shape[0] else buf[: shape[0]]

    def _candidate_scores(
        self,
        tasks: list[_NodeTask],
        feature_mask: np.ndarray,
        mask_all: bool,
    ) -> np.ndarray:
        """Rank every (feature, bin, missing-direction) candidate of a
        whole level of nodes in one batched pass.

        Candidate ``b`` sends non-missing bins ``<= b`` left; ``b`` runs
        over *every* non-missing bin, so the last bin paired with
        "missing right" expresses the all-non-missing-left split.
        Structural validity (each side must actually receive samples) is
        normally subsumed by the min-child-weight bound — float residue
        from histogram subtraction is orders of magnitude below any real
        ``min_child_weight`` — and is checked explicitly on the exact
        count channel only when that bound is (near) zero.

        Returns the ``(k, n_layers, d, n_bins)`` scores
        ``GL^2/(HL+lambda) + GR^2/(HR+lambda)`` in the scan dtype, with
        ``-inf`` for invalid candidates; ``n_layers`` is 1 when no node
        of the level has a missing value.
        """
        cfg = self.config
        lam = cfg.reg_lambda
        mcw = cfg.min_child_weight
        k = len(tasks)
        nch = self._n_channels
        d = self.n_features
        n_bins = self._stride - 1

        # The scan normally runs in float32, the documented exception to
        # the float64 sum-channel contract: gain ranking tolerates ~1e-7
        # relative noise with no effect on model quality, and halving
        # the memory traffic of the candidate sweep is a first-order
        # win.  Exact float64 child sums for the winning candidate are
        # re-derived from the node's float64 histogram afterwards.
        # grow() switches the dtype to float64 when the gradient scale
        # would overflow squared float32.
        dt = self._scan_dtype
        # With a (near) zero min-child-weight bound, child occupancy
        # must be decided on the exact count channel; otherwise the scan
        # reads only the gradient and hessian channels.
        need_occupancy = mcw < 1e-6
        n_scan = nch if need_occupancy else 2
        # The missing bins of every channel, kept aside.  Layer 0 sends
        # missing values right, layer 1 left; within each node
        # candidates flatten layer-major, preserving the tie-break order
        # (missing-right first).  Without missing values anywhere in the
        # level the layers coincide, so scan only one.
        miss = self._scratch_buf("miss", (k, nch, d), dtype=dt)
        for i, t in enumerate(tasks):
            miss[i] = t.hist[:, :, -1]
        n_layers = 2 if bool((miss[:, -1] > 0.0).any()) else 1
        # Cumulative sums over the non-missing bins, contiguous per
        # (node, layer): candidate b sends non-missing bins <= b left.
        # Each per-feature sum runs along its bins in the same order as
        # over the full stride, so the sums do not depend on the layout;
        # the cast to the scan dtype is fused into the cumsum.
        cum = self._scratch_buf("cum", (k, n_layers, n_scan, d, n_bins), dtype=dt)
        for i, t in enumerate(tasks):
            # repro: allow[REP004] -- ranking-only float32 scan; exact child sums re-derived in float64
            np.cumsum(t.hist[:n_scan, :, :-1], axis=2, dtype=dt, out=cum[i, 0])
        if n_layers == 2:
            np.add(cum[:, 0], miss[:, :n_scan, :, None], out=cum[:, 1])
        # Both layers run through every array op at once.
        gl = cum[:, :, 0]
        hl = cum[:, :, 1]
        shape = (k, n_layers, d, n_bins)

        g_tot = np.array([t.grad_sum for t in tasks], dtype=dt)[:, None, None, None]
        h_tot = np.array([t.hess_sum for t in tasks], dtype=dt)[:, None, None, None]
        lam_s = dt(lam)
        mcw_s = dt(mcw)

        # Child sums shifted by lambda for the gain denominators; the
        # right side is derived from the node totals.
        gr = np.subtract(g_tot, gl, out=self._scratch_buf("gr", shape, dtype=dt))
        hl_lam = np.add(hl, lam_s, out=self._scratch_buf("hl_lam", shape, dtype=dt))
        hr_lam = np.subtract(
            h_tot + lam_s, hl, out=self._scratch_buf("hr_lam", shape, dtype=dt)
        )

        valid = self._scratch_buf("valid", shape, dtype=bool)
        if mcw > 0:
            np.greater_equal(hl, mcw_s, out=valid)
            valid &= np.less_equal(
                hl, h_tot - mcw_s, out=self._scratch_buf("vtmp", shape, dtype=bool)
            )
        else:
            valid[:] = True
        if need_occupancy:
            cl = cum[:, 0, -1]
            left_nonempty = cl > 0.0
            right_nonempty = cl < cl[:, :, -1:]
            has_miss = miss[:, -1, :, None] > 0.0
            valid[:, 0] &= left_nonempty
            valid[:, 0] &= right_nonempty | has_miss
            if n_layers == 2:
                valid[:, 1] &= right_nonempty
                valid[:, 1] &= left_nonempty | has_miss
        if not mask_all:
            valid &= feature_mask[:, None]

        if cfg.monotone_constraints is not None:
            cons = np.asarray(cfg.monotone_constraints, dtype=dt)[:, None]
            lower = np.array([t.lower for t in tasks], dtype=dt)[:, None, None, None]
            upper = np.array([t.upper for t in tasks], dtype=dt)[:, None, None, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                wl = np.clip(-gl / hl_lam, lower, upper)
                wr = np.clip(-gr / hr_lam, lower, upper)
            valid &= (cons == 0) | (cons * (wr - wl) >= 0)

        # score = GL^2/(HL+lam) + GR^2/(HR+lam); the per-node affine map
        # 0.5 * (score - parent_score) is order-preserving and is applied
        # only to each node's winning scalar.
        score = self._scratch_buf("score", shape, dtype=dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(gl, gl, out=score)
            score /= hl_lam
            np.multiply(gr, gr, out=gr)
            gr /= hr_lam
            score += gr
        np.logical_not(valid, out=valid)
        np.copyto(score, _NEG_INF, where=valid)
        return score

    def _best_splits(
        self,
        tasks: list[_NodeTask],
        feature_mask: np.ndarray,
        mask_all: bool,
    ) -> list[tuple | None]:
        """The winning candidate of each node of a level.

        Returns, per task, ``(feature, bin, missing_left, gain,
        grad_left, hess_left)`` or None when no candidate beats the
        gamma/min-child-weight constraints.
        """
        cfg = self.config
        lam = cfg.reg_lambda
        k = len(tasks)
        d = self.n_features
        n_bins = self._stride - 1
        score = self._candidate_scores(tasks, feature_mask, mask_all)
        flat = score.reshape(k, -1)
        best_idx = np.argmax(flat, axis=1)
        best_score = flat[np.arange(k), best_idx]

        min_gain = max(cfg.gamma, 1e-12)
        results: list[tuple | None] = []
        for i, task in enumerate(tasks):
            if not np.isfinite(float(best_score[i])):
                results.append(None)
                continue
            m, rest = divmod(int(best_idx[i]), d * n_bins)
            f, b = divmod(rest, n_bins)
            # The scan dtype only *ranks* candidates; the winner's
            # child sums and its gain — including the gamma/min-gain
            # accept decision — are re-derived in float64 from the
            # node's own histogram so near-threshold splits are not
            # decided by scan rounding noise.
            node_hist = task.hist
            grad_left = float(node_hist[0, f, : b + 1].sum())
            hess_left = float(node_hist[1, f, : b + 1].sum())
            if m:
                grad_left += float(node_hist[0, f, -1])
                hess_left += float(node_hist[1, f, -1])
            g_tot_i = task.grad_sum
            h_tot_i = task.hess_sum
            grad_right = g_tot_i - grad_left
            hess_right = h_tot_i - hess_left
            best_gain = 0.5 * (
                grad_left * grad_left / (hess_left + lam)
                + grad_right * grad_right / (hess_right + lam)
                - g_tot_i * g_tot_i / (h_tot_i + lam)
            )
            if not best_gain > min_gain or not np.isfinite(best_gain):
                results.append(None)
                continue
            results.append(
                (int(f), int(b), bool(m), best_gain, grad_left, hess_left)
            )
        return results
