"""Shared-memory model plane: pack a model once, map it everywhere.

A published model's working set — the flat tree node arrays and
bin-space thresholds, the fitted :class:`~repro.boosting.binning
.BinMapper` bin edges, and the preprocessed TreeSHAP per-leaf path
structures of :mod:`repro.explain.structure` — is identical for every
process that serves the version.  :class:`ModelPlane` packs all of it
into a handful of flat arrays exactly once per version tag; the arrays
ride to scoring workers through the executor's POSIX shared-memory
handoff (:mod:`repro.parallel.shared`), and each worker *maps* the
plane back into a live model + explainer with zero-copy views
(:func:`repro.boosting.serialize.model_from_arrays`,
:meth:`~repro.explain.structure.TreeStructure.from_flat`) instead of
unpickling a private copy and re-deriving the structures.

This is the same pay-the-structural-cost-once discipline the decision-
diagram literature applies to shared subgraphs: build the mapped
representation once, answer many queries off it.

The module also hosts :func:`parallel_shap` — the row-sharded batched
TreeSHAP sweep used by the Fig. 6/7 runners.  Because the batched
engine is row-deterministic (see :mod:`repro.explain.structure`),
sharding rows across workers is bitwise-identical to the serial pass.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.serialize import (
    model_from_arrays,
    model_to_arrays,
    model_to_dict,
)
from repro.explain.structure import TreeStructure
from repro.explain.treeshap import TreeShapExplainer
from repro.parallel import parallel_map, resolve_jobs
from repro.serve.registry import model_fingerprint

__all__ = ["ModelPlane", "parallel_shap"]


class ModelPlane:
    """Flat-array representation of one model version, built once.

    Attributes
    ----------
    manifest:
        Small picklable dict (scalars, shapes, version tag) shipped to
        workers through the pool initializer.
    arrays:
        Name -> flat ``np.ndarray`` mapping; large arrays travel via
        shared memory, reconstruction slices them into zero-copy views.
    version:
        The version tag (defaults to the model's content fingerprint),
        namespacing every downstream result cache.
    """

    def __init__(self, manifest: dict, arrays: dict[str, np.ndarray]):
        self.manifest = manifest
        self.arrays = arrays
        #: Parent-side structures (reused so the packing process never
        #: rebuilds what it just exported); workers get views instead.
        self._structures: list[TreeStructure] | None = None

    @property
    def version(self) -> str:
        return self.manifest["version"]

    @property
    def nbytes(self) -> int:
        """Total bytes of the packed arrays (what every worker maps)."""
        return sum(array.nbytes for array in self.arrays.values())

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, model, *, version: str | None = None) -> "ModelPlane":
        """Pack a fitted model (with mapper + bin thresholds) for serving.

        Raises ``ValueError`` for models the scoring plane cannot serve:
        unfitted, no fitted ``mapper_``, or trees without bin-space
        thresholds (the binned fast path is the serving contract).
        """
        if getattr(model, "ensemble_", None) is None:
            raise ValueError("model is not fitted")
        if getattr(model, "mapper_", None) is None:
            raise ValueError(
                "model carries no fitted BinMapper (mapper_); reload it "
                "through the registry (format v2) or refit"
            )
        # Checked on the trees themselves: model_to_arrays reuses a
        # cached node table (``compact_``) without rebuilding it.
        if any(t.bin_threshold is None for t in model.ensemble_.trees):
            raise ValueError(
                "model trees carry no bin thresholds; the scoring plane "
                "requires the binned fast path"
            )
        manifest, arrays = model_to_arrays(model)
        if version is None:
            version = model_fingerprint(model_to_dict(model))
        manifest["version"] = version

        # The packed plane re-expands trees in canonical node order, so
        # the packed TreeSHAP structures must be built from the same
        # canonical trees the workers will map — structure output is
        # topology-driven, hence bitwise identical to the originals,
        # but its node indices must match the worker-side trees.
        canonical = model_from_arrays(manifest, arrays)
        structures = [TreeStructure(t) for t in canonical.ensemble_.trees]
        shapes: list[dict] = []
        scalars: list[dict] = []
        per_field: dict[str, list[np.ndarray]] = {
            name: [] for name in TreeStructure._FLAT_FIELDS
        }
        for struct in structures:
            fields, struct_scalars = struct.to_flat()
            scalars.append(struct_scalars)
            shapes.append({name: len(fields[name]) for name in per_field})
            for name, flat in fields.items():
                per_field[name].append(flat)
        for name, flats in per_field.items():
            arrays[f"shap:{name}"] = np.concatenate(flats)
        manifest["shap"] = {"scalars": scalars, "lengths": shapes}

        plane = cls(manifest, arrays)
        plane._structures = structures
        return plane

    # ------------------------------------------------------------------
    @staticmethod
    def materialize(
        manifest: dict, arrays: dict[str, np.ndarray]
    ) -> tuple[object, TreeShapExplainer]:
        """Rebuild ``(model, explainer)`` from a packed plane, zero-copy.

        Called once per worker over the attached shared arrays; every
        numeric field of the result is a read-only view into the plane.
        """
        model = model_from_arrays(manifest, arrays)
        structures = []
        offsets = {name: 0 for name in TreeStructure._FLAT_FIELDS}
        shap_info = manifest["shap"]
        for tree, scalars, lengths in zip(
            model.ensemble_.trees, shap_info["scalars"], shap_info["lengths"]
        ):
            fields = {}
            for name in TreeStructure._FLAT_FIELDS:
                lo = offsets[name]
                hi = lo + lengths[name]
                fields[name] = arrays[f"shap:{name}"][lo:hi]
                offsets[name] = hi
            structures.append(TreeStructure.from_flat(tree, fields, scalars))
        return model, TreeShapExplainer(model, structures=structures)

# ----------------------------------------------------------------------
# Row-sharded SHAP sweeps (Fig. 6 / Fig. 7).


def _sweep_setup(arrays: dict[str, np.ndarray], manifest: dict):
    _, explainer = ModelPlane.materialize(manifest, arrays)
    return explainer, arrays["sweep:X"]


def _sweep_chunk(bounds: tuple[int, int], state) -> np.ndarray:
    explainer, X = state
    lo, hi = bounds
    return explainer.shap_values(X[lo:hi])


def parallel_shap(
    model, X: np.ndarray, *, n_jobs: int | None = None
) -> tuple[np.ndarray, float]:
    """Batched TreeSHAP over ``X``, row-sharded across the executor.

    Returns ``(phi, expected_value)``.  The model plane is packed once
    and mapped by every worker; rows are split into one contiguous chunk
    per worker.  The batched engine is row-deterministic, so the result
    is **bitwise identical** to the serial pass for any worker count
    (asserted in ``tests/experiments/test_parallel_sweeps.py``).
    """
    X = np.asarray(X, dtype=np.float64)
    jobs = min(resolve_jobs(n_jobs), max(int(X.shape[0]), 1))
    if jobs <= 1:
        explainer = TreeShapExplainer(model)
        return explainer.shap_values(X), explainer.expected_value

    try:
        plane = ModelPlane.pack(model, version="sweep")
    except ValueError:
        # Models the plane cannot serve (no fitted mapper / bin
        # thresholds, e.g. reloaded format-v1 documents) still explain
        # fine through the raw-threshold path — serially, so the result
        # stays independent of the worker count.
        explainer = TreeShapExplainer(model)
        return explainer.shap_values(X), explainer.expected_value


    shared = dict(plane.arrays)
    shared["sweep:X"] = X
    bounds = np.linspace(0, X.shape[0], jobs + 1).astype(np.int64)
    chunks = parallel_map(
        _sweep_chunk,
        [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])],
        n_jobs=jobs,
        shared=shared,
        setup=_sweep_setup,
        setup_args=(plane.manifest,),
    )
    explainer = TreeShapExplainer(model, structures=plane._structures)
    return np.vstack(chunks), explainer.expected_value
