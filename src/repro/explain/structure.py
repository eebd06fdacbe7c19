"""Preprocessed tree geometry for the batched TreeSHAP engine.

Exact path-dependent TreeSHAP only needs, per leaf, the root-to-leaf
path summarised as one entry per *distinct* split feature: the product
of cover fractions along the path branch (the "zero fraction") and, per
explained sample, whether the sample agrees with the path branch at
every node splitting on that feature (the "one fraction", always 0 or
1).  :class:`TreeStructure` computes that summary once per tree —
parent/depth bookkeeping, duplicate-feature merging, cover fractions,
and the scatter tables that map path entries back to feature columns —
so that :class:`repro.explain.treeshap.TreeShapExplainer` can answer
whole-matrix queries with array operations instead of re-deriving the
structure per (sample, tree) pass.

Paths are padded to a common per-tree length with *null entries*
(``zero = one = 1``).  A null entry is a null player of the per-leaf
Shapley game (its presence changes no other player's marginal
contribution and its own attribution factor ``one - zero`` is exactly
0), so padding is mathematically exact — it is the same trick as the
dummy root entry of Lundberg et al.'s Algorithm 2.

Row determinism
---------------
Every reduction a structure participates in (``hot_fractions``'s
``logical_and.reduceat``, :meth:`TreeStructure.fold`'s
``add.reduceat``) runs in a fixed element order along a fixed-length
axis, independently per sample row.  Combined with the elementwise
EXTEND/UNWIND recurrences in :mod:`repro.explain.treeshap`, a row's
SHAP values are therefore **bitwise identical no matter which batch the
row arrives in** — the property that lets the scoring service
(:mod:`repro.serve.service`) split a batch's rows across processes and
the parallel sweeps (:func:`repro.experiments.shap_sweep.parallel_shap`)
shard rows across the executor without changing a single output bit.
(``tests/explain/test_row_determinism.py`` asserts it.)

The module also hosts the sample-routing primitives
(:func:`node_decisions`, :func:`node_decisions_binned`) which replicate
:meth:`repro.boosting.tree.Tree.predict` / ``predict_binned`` routing —
NaN follows the learned default direction; pre-binned uint8 codes are
compared against ``bin_threshold`` — but evaluate the decision at
*every* internal node for every sample at once (TreeSHAP needs the
hot/cold direction off-path too, not just along the sample's own
descent).

:func:`tree_expected_value` is the topologically-correct replacement
for the old reverse-index expected-value pass, which silently assumed
the grower's children-after-parent node ordering and returned garbage
on deserialized trees with arbitrary layouts.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.tree import LEAF, Tree

__all__ = [
    "TreeStructure",
    "node_decisions",
    "node_decisions_binned",
    "tree_expected_value",
]


def _bfs_order(tree: Tree) -> list[int]:
    """Nodes reachable from the root, parents before children."""
    order = [0]
    left, right = tree.children_left, tree.children_right
    i = 0
    while i < len(order):
        node = order[i]
        i += 1
        if left[node] != LEAF:
            order.append(int(left[node]))
            order.append(int(right[node]))
    return order


def tree_expected_value(tree: Tree) -> float:
    """Cover-weighted mean leaf value (the tree's baseline prediction).

    Processes nodes in reverse topological (BFS) order, so the result is
    correct for any node layout — including deserialized or hand-built
    trees where a child may be stored at a lower index than its parent.
    """
    expected = np.array(tree.value, dtype=np.float64, copy=True)
    left, right, cover = tree.children_left, tree.children_right, tree.cover
    for node in reversed(_bfs_order(tree)):
        lc, rc = left[node], right[node]
        if lc != LEAF:
            expected[node] = (
                cover[lc] * expected[lc] + cover[rc] * expected[rc]
            ) / cover[node]
    return float(expected[0])


def node_decisions(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Per-sample go-left decision at every internal node.

    Returns a ``(n_samples, n_nodes)`` boolean matrix; columns of leaf
    nodes carry no meaning.  Routing matches :meth:`Tree.predict`:
    ``x <= threshold`` goes left, NaN follows ``missing_left``.
    """
    internal = tree.children_left != LEAF
    feats = np.where(internal, tree.feature, 0)
    thr = np.where(internal, tree.threshold, np.inf)
    xv = X[:, feats]
    with np.errstate(invalid="ignore"):
        go_left = xv <= thr
    return np.where(np.isnan(xv), tree.missing_left, go_left)


def node_decisions_binned(
    tree: Tree, binned: np.ndarray, missing_bin: int
) -> np.ndarray:
    """Like :func:`node_decisions`, from pre-binned uint8 codes.

    Routing matches :meth:`Tree.predict_binned`: ``code <=
    bin_threshold`` goes left, ``missing_bin`` follows ``missing_left``.
    Requires the tree to carry ``bin_threshold``.
    """
    internal = tree.children_left != LEAF
    feats = np.where(internal, tree.feature, 0)
    bthr = np.where(internal, tree.bin_threshold, 0)
    codes = binned[:, feats].astype(np.int64)
    return np.where(codes == missing_bin, tree.missing_left, codes <= bthr)


class TreeStructure:
    """One tree's leaf-path summary, computed once and queried many times.

    Attributes
    ----------
    n_entries:
        Padded per-leaf path length ``m`` (max distinct split features
        on any root-to-leaf path; 0 for a single-node tree).
    n_leaves:
        Number of leaves ``L`` with a non-empty path.
    leaf_values:
        ``(L,)`` leaf predictions.
    zeros:
        ``(L, m)`` per-entry zero fractions (cover-fraction products
        along the path, duplicate features merged; null padding = 1).
    used:
        Sorted distinct feature ids split on by the tree.
    expected_value:
        Cover-weighted mean leaf value.
    min_features:
        Smallest feature-count an input matrix must have.
    """

    __slots__ = (
        "tree",
        "expected_value",
        "min_features",
        "n_entries",
        "n_leaves",
        "leaf_values",
        "zeros",
        "used",
        "feat_compact",
        "seg_nodes",
        "seg_dirs",
        "seg_starts",
        "real_cols",
        "fold_perm",
        "fold_starts",
        "fold_codes",
        "_pair_scatter",
    )

    def __init__(self, tree: Tree):
        self.tree = tree
        self.expected_value = tree_expected_value(tree)
        self._pair_scatter = None

        left, right, cover = tree.children_left, tree.children_right, tree.cover
        # Depth-first walk collecting each leaf's (node, went_left) trail.
        leaves: list[float] = []
        merged: list[tuple[list[int], list[float], list[list[tuple[int, bool]]]]] = []
        stack: list[tuple[int, list[tuple[int, bool]]]] = [(0, [])]
        while stack:
            node, trail = stack.pop()
            if left[node] == LEAF:
                feats: list[int] = []
                zs: list[float] = []
                segs: list[list[tuple[int, bool]]] = []
                entry_of: dict[int, int] = {}
                for split_node, went_left in trail:
                    f = int(tree.feature[split_node])
                    child = left[split_node] if went_left else right[split_node]
                    frac = float(cover[child] / cover[split_node])
                    if f in entry_of:
                        j = entry_of[f]
                        zs[j] *= frac
                        segs[j].append((split_node, went_left))
                    else:
                        entry_of[f] = len(feats)
                        feats.append(f)
                        zs.append(frac)
                        segs.append([(split_node, went_left)])
                leaves.append(float(tree.value[node]))
                merged.append((feats, zs, segs))
                continue
            stack.append((int(left[node]), trail + [(node, True)]))
            stack.append((int(right[node]), trail + [(node, False)]))

        m = max((len(feats) for feats, _, _ in merged), default=0)
        self.n_entries = m
        self.min_features = (
            1 + max((max(feats) for feats, _, _ in merged if feats), default=-1)
        )
        if m == 0:
            # Single-node tree: only the expected value matters.
            self.n_leaves = 0
            self.leaf_values = np.empty(0, dtype=np.float64)
            self.zeros = np.empty((0, 0), dtype=np.float64)
            self.used = np.empty(0, dtype=np.int64)
            self.feat_compact = np.empty((0, 0), dtype=np.int64)
            self.seg_nodes = np.empty(0, dtype=np.int64)
            self.seg_dirs = np.empty(0, dtype=bool)
            self.seg_starts = np.empty(0, dtype=np.int64)
            self.real_cols = np.empty(0, dtype=np.int64)
            self.fold_perm = np.empty(0, dtype=np.int64)
            self.fold_starts = np.empty(0, dtype=np.int64)
            self.fold_codes = np.empty(0, dtype=np.int64)
            return

        L = len(merged)
        self.n_leaves = L
        self.leaf_values = np.asarray(leaves, dtype=np.float64)
        used = sorted({f for feats, _, _ in merged for f in feats})
        self.used = np.asarray(used, dtype=np.int64)
        compact = {f: u for u, f in enumerate(used)}
        U = len(used)

        zeros = np.ones((L, m), dtype=np.float64)
        feat_compact = np.full((L, m), U, dtype=np.int64)  # U = null padding
        seg_nodes: list[int] = []
        seg_dirs: list[bool] = []
        seg_starts: list[int] = []
        real_cols: list[int] = []
        for leaf, (feats, zs, segs) in enumerate(merged):
            for j, f in enumerate(feats):
                zeros[leaf, j] = zs[j]
                feat_compact[leaf, j] = compact[f]
                seg_starts.append(len(seg_nodes))
                real_cols.append(leaf * m + j)
                for split_node, went_left in segs[j]:
                    seg_nodes.append(split_node)
                    seg_dirs.append(went_left)
        self.zeros = zeros
        self.feat_compact = feat_compact
        self.seg_nodes = np.asarray(seg_nodes, dtype=np.int64)
        self.seg_dirs = np.asarray(seg_dirs, dtype=bool)
        self.seg_starts = np.asarray(seg_starts, dtype=np.int64)
        self.real_cols = np.asarray(real_cols, dtype=np.int64)

        # Sorted-group fold tables mapping flattened (L, m) entry deltas
        # onto used-feature columns: positions are grouped by compact
        # feature code so one np.add.reduceat accumulates every entry of
        # a feature in a fixed order — unlike a (L*m, U) matmul, whose
        # accumulation order can vary with the batch shape, this keeps
        # per-row results bitwise independent of batch composition.
        # The null-padding group (code U, deltas exactly 0) sorts last
        # and is dropped by fold()'s code < U mask.
        flat = feat_compact.reshape(-1)
        perm = np.argsort(flat, kind="stable")
        sorted_codes = flat[perm]
        starts = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        self.fold_perm = perm
        self.fold_starts = starts
        self.fold_codes = sorted_codes[starts]

    def hot_fractions(self, decisions: np.ndarray) -> np.ndarray:
        """Per-(sample, leaf, entry) one fractions from a decision matrix.

        ``decisions`` is the ``(n_samples, n_nodes)`` go-left matrix of
        :func:`node_decisions`; the result is ``(n, L, m)`` float64 with
        entries in {0, 1}: 1 iff the sample agrees with the leaf's path
        branch at every node splitting on the entry's feature (null
        padding is always 1).
        """
        n = decisions.shape[0]
        match = decisions[:, self.seg_nodes] == self.seg_dirs
        o = np.ones((n, self.n_leaves * self.n_entries), dtype=np.float64)
        if self.seg_starts.size:
            o[:, self.real_cols] = np.logical_and.reduceat(
                match, self.seg_starts, axis=1
            )
        return o.reshape(n, self.n_leaves, self.n_entries)

    def fold(self, delta_flat: np.ndarray) -> np.ndarray:
        """Fold flattened per-entry deltas onto used-feature columns.

        ``delta_flat`` is ``(n, L * m)`` (the per-(leaf, entry) deltas of
        one tree, flattened); the result is ``(n, U)`` — each used
        feature's summed delta.  The sum runs via ``np.add.reduceat``
        over positions grouped by feature, in a fixed order per group,
        so every row's result is bitwise independent of ``n``.
        """
        sums = np.add.reduceat(
            delta_flat[:, self.fold_perm], self.fold_starts, axis=1
        )
        U = len(self.used)
        out = np.zeros((delta_flat.shape[0], U), dtype=np.float64)
        real = self.fold_codes < U
        out[:, self.fold_codes[real]] = sums[:, real]
        return out

    def pair_scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted-group tables folding (entry, entry) pair deltas.

        Returns ``(perm, starts, group_codes)`` over the flattened
        ``(L, m, m)`` pair-delta layout, grouping positions by their
        ``(feature_a, feature_b)`` compact pair code so one
        ``np.add.reduceat`` accumulates every duplicate pair at once.
        Built lazily (only the interaction explainer needs it).
        """
        if self._pair_scatter is None:
            U = len(self.used)
            fc = self.feat_compact
            codes = (fc[:, :, None] * (U + 1) + fc[:, None, :]).reshape(-1)
            perm = np.argsort(codes, kind="stable")
            sorted_codes = codes[perm]
            starts = np.flatnonzero(
                np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
            )
            self._pair_scatter = (perm, starts, sorted_codes[starts])
        return self._pair_scatter
