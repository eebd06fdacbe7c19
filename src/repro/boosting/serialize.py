"""JSON (de)serialisation of fitted boosting models.

Clinical deployments need to train once and score later (the paper's
vision of model-assisted visits), so fitted estimators round-trip
through a explicit, versioned JSON document: hyper-parameters, the flat
node arrays of every tree, and the estimator kind.  No pickle — the
format is portable and diffable.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.boosting.binning import BinMapper
from repro.boosting.config import GBConfig
from repro.boosting.dag import CompactEnsemble, canonical_order
from repro.boosting.gbm import GBClassifier, GBRegressor
from repro.boosting.tree import Tree, TreeEnsemble

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "mapper_to_dict",
    "mapper_from_dict",
]

#: Format version written into every document.  Version 2 added the
#: fitted ``BinMapper`` (``mapper_``); version 3 stores the ensemble as
#: a hash-consed DAG (one shared node table + per-tree roots, leaf
#: values and node statistics — see :mod:`repro.boosting.dag`).  v1/v2
#: documents are still readable; models whose trees carry no bin-space
#: thresholds (e.g. v1 restores) cannot be compacted and are written as
#: v2.
FORMAT_VERSION = 3
_DENSE_VERSION = 2

_READABLE_VERSIONS = frozenset({1, _DENSE_VERSION, FORMAT_VERSION})

_KINDS = {"regressor": GBRegressor, "classifier": GBClassifier}


def _tree_to_dict(tree: Tree) -> dict:
    doc = {
        "children_left": tree.children_left.tolist(),
        "children_right": tree.children_right.tolist(),
        "feature": tree.feature.tolist(),
        # NaN/inf are not valid JSON scalars; encode via strings.
        "threshold": [_encode_float(v) for v in tree.threshold],
        "missing_left": tree.missing_left.tolist(),
        "value": tree.value.tolist(),
        "cover": tree.cover.tolist(),
    }
    if tree.bin_threshold is not None:
        doc["bin_threshold"] = tree.bin_threshold.tolist()
    return doc


def _tree_from_dict(doc: dict) -> Tree:
    bin_threshold = doc.get("bin_threshold")
    return Tree(
        children_left=np.asarray(doc["children_left"], dtype=np.int64),
        children_right=np.asarray(doc["children_right"], dtype=np.int64),
        feature=np.asarray(doc["feature"], dtype=np.int64),
        threshold=np.asarray(
            [_decode_float(v) for v in doc["threshold"]], dtype=np.float64
        ),
        missing_left=np.asarray(doc["missing_left"], dtype=bool),
        value=np.asarray(doc["value"], dtype=np.float64),
        cover=np.asarray(doc["cover"], dtype=np.float64),
        bin_threshold=(
            None
            if bin_threshold is None
            else np.asarray(bin_threshold, dtype=np.int64)
        ),
    )


def _encode_float(v: float) -> float | str:
    v = float(v)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _decode_float(v) -> float:
    if isinstance(v, str):
        return float(v)
    return float(v)


def mapper_to_dict(mapper: BinMapper) -> dict:
    """Serialise a fitted :class:`BinMapper` to a dict.

    Bin edges are finite floats by construction (``fit`` rejects inf and
    ignores NaN), so plain JSON numbers round-trip them bitwise via
    Python's shortest-repr float encoding.
    """
    if mapper.bin_edges_ is None or mapper.n_bins_ is None:
        raise ValueError("mapper is not fitted; nothing to serialise")
    return {
        "max_bins": mapper.max_bins,
        "bin_edges": [edges.tolist() for edges in mapper.bin_edges_],
        "n_bins": mapper.n_bins_.tolist(),
    }


def mapper_from_dict(doc: dict) -> BinMapper:
    """Rebuild a fitted :class:`BinMapper` from :func:`mapper_to_dict`."""
    mapper = BinMapper(max_bins=int(doc["max_bins"]))
    mapper.bin_edges_ = [
        np.asarray(edges, dtype=np.float64) for edges in doc["bin_edges"]
    ]
    mapper.n_bins_ = np.asarray(doc["n_bins"], dtype=np.int64)
    return mapper


def _model_kind(model) -> str:
    if isinstance(model, GBRegressor):
        return "regressor"
    if isinstance(model, GBClassifier):
        return "classifier"
    raise TypeError(f"cannot serialise {type(model).__name__}")


def _ensure_compact(model) -> CompactEnsemble:
    """The model's cached DAG, building (and caching) it if needed."""
    builder = getattr(model, "compact", None)
    if callable(builder):
        return builder()
    return CompactEnsemble.from_ensemble(model.ensemble_)


#: Shared-table columns of a v3 ``dag`` section, in document order.
_DAG_COLUMNS = (
    "children_left",
    "children_right",
    "feature",
    "bin_threshold",
    "missing_left",
    "leaves_left",
)


def model_to_dict(model) -> dict:
    """Serialise a fitted ``GBRegressor``/``GBClassifier`` to a dict.

    Writes format v3: the shared hash-consed node table under ``dag``
    plus one entry per tree holding its root row, leaf values (in leaf
    ordinal order) and canonical-order ``cover``/``threshold`` node
    statistics.  Models whose trees carry no bin thresholds (restored
    v1 documents) cannot be compacted and fall back to a v2 document.
    """
    kind = _model_kind(model)
    if model.ensemble_ is None:
        raise ValueError("model is not fitted; nothing to serialise")
    trees = model.ensemble_.trees
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": dataclasses.asdict(model.config),
        "n_features": model.n_features_,
        "best_iteration": model.best_iteration_,
        "base_score": model.ensemble_.base_score,
        # The fitted BinMapper completes the round trip: without it a
        # reloaded model silently loses the binned predict/explain fast
        # paths (predict_binned, bin-space TreeSHAP routing).
        "mapper": (
            None if model.mapper_ is None else mapper_to_dict(model.mapper_)
        ),
    }
    if any(t.bin_threshold is None for t in trees):
        doc["format_version"] = _DENSE_VERSION
        doc["trees"] = [_tree_to_dict(t) for t in trees]
        return doc
    compact = _ensure_compact(model)
    doc["dag"] = {
        name: getattr(compact, name).tolist() for name in _DAG_COLUMNS
    }
    tree_docs = []
    for t, tree in enumerate(trees):
        perm = canonical_order(tree)
        lo = int(compact.leaf_offset[t])
        hi = lo + tree.n_leaves
        tree_docs.append(
            {
                "root": int(compact.roots[t]),
                "value": compact.leaf_values[lo:hi].tolist(),
                "cover": tree.cover[perm].tolist(),
                "threshold": [_encode_float(v) for v in tree.threshold[perm]],
            }
        )
    doc["trees"] = tree_docs
    return doc


def _compact_from_doc(doc: dict) -> CompactEnsemble:
    """Rebuild the shared table + per-tree arrays of a v3 document."""
    dag = doc["dag"]
    leaf_values: list[float] = []
    leaf_offset: list[int] = []
    for tree_doc in doc["trees"]:
        leaf_offset.append(len(leaf_values))
        leaf_values.extend(float(v) for v in tree_doc["value"])
    return CompactEnsemble(
        base_score=float(doc["base_score"]),
        children_left=np.asarray(dag["children_left"], dtype=np.int64),
        children_right=np.asarray(dag["children_right"], dtype=np.int64),
        feature=np.asarray(dag["feature"], dtype=np.int64),
        bin_threshold=np.asarray(dag["bin_threshold"], dtype=np.int64),
        missing_left=np.asarray(dag["missing_left"], dtype=bool),
        leaves_left=np.asarray(dag["leaves_left"], dtype=np.int64),
        roots=np.asarray(
            [int(t["root"]) for t in doc["trees"]], dtype=np.int64
        ),
        leaf_offset=np.asarray(leaf_offset, dtype=np.int64),
        leaf_values=np.asarray(leaf_values, dtype=np.float64),
        n_source_nodes=sum(len(t["cover"]) for t in doc["trees"]),
    )


def _new_model(doc: dict):
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    config_doc = dict(doc["config"])
    # Documents written while GBConfig still had an n_jobs field (or
    # hand-edited ones) stay loadable; the key never was model identity.
    config_doc.pop("n_jobs", None)
    if config_doc.get("monotone_constraints") is not None:
        config_doc["monotone_constraints"] = tuple(
            config_doc["monotone_constraints"]
        )
    model = _KINDS[kind](GBConfig(**config_doc))
    model.n_features_ = int(doc["n_features"])
    model.best_iteration_ = (
        None if doc["best_iteration"] is None else int(doc["best_iteration"])
    )
    return model


def model_from_dict(doc: dict):
    """Rebuild a fitted estimator from :func:`model_to_dict` output.

    All readable versions load: v1 (no mapper, raw-threshold prediction
    only), v2 (dense per-tree node arrays) and v3 (shared DAG table).
    A v3 restore re-expands canonically numbered trees from the table
    and keeps the :class:`CompactEnsemble` attached as ``compact_``, so
    the serving fast path never re-cons the ensemble.
    """
    version = doc.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(expected one of {sorted(_READABLE_VERSIONS)})"
        )
    model = _new_model(doc)
    mapper_doc = doc.get("mapper")
    model.mapper_ = None if mapper_doc is None else mapper_from_dict(mapper_doc)
    if version == FORMAT_VERSION:
        compact = _compact_from_doc(doc)
        trees = compact.expand(
            covers=[
                np.asarray(t["cover"], dtype=np.float64) for t in doc["trees"]
            ],
            thresholds=[
                np.asarray(
                    [_decode_float(v) for v in t["threshold"]],
                    dtype=np.float64,
                )
                for t in doc["trees"]
            ],
        )
        model.ensemble_ = TreeEnsemble(
            base_score=float(doc["base_score"]), trees=trees
        )
        model.compact_ = compact
        return model
    model.ensemble_ = TreeEnsemble(
        base_score=float(doc["base_score"]),
        trees=[_tree_from_dict(t) for t in doc["trees"]],
    )
    return model


def save_model(model, path: str | Path) -> None:
    """Write a fitted estimator to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path: str | Path):
    """Read a fitted estimator back from :func:`save_model` output."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(doc)
