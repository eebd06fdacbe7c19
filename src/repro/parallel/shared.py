"""Shared-memory handoff of design matrices to worker processes.

The experiment grid's parallel units all read the same large arrays (a
sample set's ``X`` above all).  Shipping them inside every task would
pickle megabytes per submission; instead the executor exports the shared
arrays once into POSIX shared memory before the pool starts, workers map
the segments read-only in their initializer, and tasks carry only tiny
picklable specs.

Arrays that cannot live in shared memory (``object`` dtype — patient id
strings) or are too small to be worth a segment are embedded in the spec
and pickled once per *worker*, still never per task.  If shared-memory
segments cannot be created at all (no ``/dev/shm``), every array falls
back to the embedded form — slower, never wrong.

:func:`pack_samples` / :func:`unpack_samples` apply the same split to a
:class:`~repro.pipeline.samples.SampleSet`: the float matrices ride in
shared memory, the provenance fields ride in the handle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.pipeline.samples import SampleSet

__all__ = [
    "export_shared",
    "attach_shared",
    "release_shared",
    "pack_samples",
    "unpack_samples",
    "scan_orphan_segments",
    "unlink_segments",
]

#: Arrays smaller than this are embedded in the spec instead of getting
#: their own shared-memory segment (segment setup costs more than the
#: copy).
_MIN_SEGMENT_BYTES = 4096


@dataclass(frozen=True)
class _ArraySpec:
    """Picklable description of one exported array."""

    shm_name: str | None
    shape: tuple[int, ...]
    dtype: str
    inline: np.ndarray | None = None


def export_shared(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[str, _ArraySpec], list[shared_memory.SharedMemory]]:
    """Copy ``arrays`` into shared memory; return specs + owned segments.

    The caller must :func:`release_shared` the returned segments after
    the worker pool has shut down.
    """
    specs: dict[str, _ArraySpec] = {}
    segments: list[shared_memory.SharedMemory] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype == object or array.nbytes < _MIN_SEGMENT_BYTES:
            specs[name] = _ArraySpec(None, array.shape, str(array.dtype), array)
            continue
        try:
            # Every segment is returned to the caller, whose contract is
            # to release_shared() them in a finally (parallel_map does;
            # ShardedPool.close() runs even after worker crashes).
            # repro: allow[REP003] -- ownership transfers to the caller, which must release_shared() in a finally
            segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        except OSError:
            specs[name] = _ArraySpec(None, array.shape, str(array.dtype), array)
            continue
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[:] = array
        segments.append(segment)
        specs[name] = _ArraySpec(segment.name, array.shape, str(array.dtype))
    return specs, segments


def attach_shared(specs: dict[str, _ArraySpec]) -> dict[str, np.ndarray]:
    """Map exported specs back to read-only arrays inside a worker.

    The attached segments are kept referenced for the life of the
    worker process; the parent owns unlinking.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        if spec.shm_name is None:
            array = spec.inline
        else:
            segment = shared_memory.SharedMemory(name=spec.shm_name)
            _ATTACHED.append(segment)
            array = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
            )
        array = array.view()
        array.setflags(write=False)
        arrays[name] = array
    return arrays


def release_shared(segments: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink segments created by :func:`export_shared`."""
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


#: Segments attached by this process's workers (kept alive until exit).
_ATTACHED: list[shared_memory.SharedMemory] = []


#: Where POSIX shared memory lives, and the prefix Python's
#: multiprocessing.shared_memory gives anonymous segments.
_SHM_DIR = Path("/dev/shm")
_SEGMENT_PREFIX = "psm_"


def _mapped_segment_names() -> set[str]:
    """``psm_`` segment names mapped by any live process (via /proc)."""
    mapped: set[str] = set()
    proc = Path("/proc")
    if not proc.is_dir():  # pragma: no cover - non-procfs platform
        return mapped
    for entry in sorted(proc.iterdir()):
        if not entry.name.isdigit():
            continue
        try:
            maps = (entry / "maps").read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # process exited, or not ours to inspect
        needle = f"{_SHM_DIR}/{_SEGMENT_PREFIX}"
        for line in maps.splitlines():
            start = line.find(needle)
            if start < 0:
                continue
            name = line[start:].split("/")[-1]
            # An unlinked-but-mapped segment shows as "... (deleted)";
            # its /dev/shm entry is already gone, nothing to sweep.
            mapped.add(name.removesuffix(" (deleted)"))
    return mapped


def scan_orphan_segments() -> list[str]:
    """Names of shared-memory segments no live process has mapped.

    POSIX shared memory outlives any owner that dies without
    unlinking — exactly what a SIGKILLed fit or serve process leaves
    in ``/dev/shm``.  A segment is an *orphan* when its ``psm_`` entry
    is mapped by no process in ``/proc``; live pools always keep their
    segments mapped (the exporter maps them at creation, workers at
    attach).  Returns sorted names; empty where ``/dev/shm`` does not
    exist.  ``repro serve gc-shm`` is the CLI over this.
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux platform
        return []
    present = sorted(
        entry.name
        for entry in _SHM_DIR.iterdir()
        if entry.name.startswith(_SEGMENT_PREFIX) and entry.is_file()
    )
    if not present:
        return []
    mapped = _mapped_segment_names()
    return [name for name in present if name not in mapped]


def unlink_segments(names: list[str]) -> list[str]:
    """Unlink ``/dev/shm`` segments by name; return the ones removed.

    Names must be bare ``psm_*`` basenames (what
    :func:`scan_orphan_segments` returns) — anything else raises
    ``ValueError`` rather than touching an arbitrary path.  A name
    already gone (the owner raced us and cleaned up) is skipped, not
    an error.
    """
    removed: list[str] = []
    for name in sorted(names):
        if not name.startswith(_SEGMENT_PREFIX) or "/" in name:
            raise ValueError(
                f"refusing to unlink {name!r}: not a {_SEGMENT_PREFIX}* "
                "segment name"
            )
        try:
            os.unlink(_SHM_DIR / name)
        except FileNotFoundError:
            continue
        removed.append(name)
    return removed


#: SampleSet array fields routed through the shared channel.
_SAMPLE_ARRAYS = ("X", "y", "patient_ids", "clinics", "windows", "months")


@dataclass(frozen=True)
class SampleHandle:
    """Picklable stand-in for a :class:`SampleSet`.

    Every array field rides in the executor's shared-array dict under
    ``<prefix>:<field>`` — float matrices in shared memory, the object
    provenance arrays embedded in the worker-initializer payload — so a
    handle inside a task item carries only the scalars below and
    nothing is re-pickled per task.
    """

    prefix: str
    outcome: str
    kind: str
    with_fi: bool
    feature_names: tuple[str, ...]


def pack_samples(
    samples: SampleSet, arrays: dict[str, np.ndarray], prefix: str
) -> SampleHandle:
    """Register a sample set's arrays under ``arrays``; return a handle."""
    for name in _SAMPLE_ARRAYS:
        arrays[f"{prefix}:{name}"] = getattr(samples, name)
    return SampleHandle(
        prefix=prefix,
        outcome=samples.outcome,
        kind=samples.kind,
        with_fi=samples.with_fi,
        feature_names=samples.feature_names,
    )


def unpack_samples(
    handle: SampleHandle, arrays: dict[str, np.ndarray]
) -> SampleSet:
    """Materialise the sample set from the shared arrays (read-only)."""
    fields = {
        name: arrays[f"{handle.prefix}:{name}"] for name in _SAMPLE_ARRAYS
    }
    return SampleSet(
        outcome=handle.outcome,
        kind=handle.kind,
        with_fi=handle.with_fi,
        feature_names=handle.feature_names,
        **fields,
    )
