"""A small LRU cache for exact scoring results.

The scoring service keys entries on ``(model version tag, row bin
codes)``.  Bin codes are the model's quantized view of a row: every tree
routes on codes alone, so two raw rows with equal codes produce
identical predictions and SHAP values.  An entry holds the row's raw
score and, once the row has been explained, its ranked top-k (column
indices, feature names and SHAP contributions) rather than a SHAP row;
the report's raw values are picked out of the requesting row.  A hit
therefore returns the *exact* answer — this is a correctness-preserving
cache, not an approximation, and it needs no TTL (entries are
invalidated by the version tag changing, never by time).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

__all__ = ["CacheStats", "LRUCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters observed on an :class:`LRUCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    ``capacity=0`` disables caching entirely (every ``get`` misses,
    ``put`` is a no-op), which keeps the service code branch-free.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Pure inspection: no recency update, no stats change.
        return key in self._data

    def get(self, key: Hashable, default=None):
        """Return the cached value (marking it most recent) or ``default``."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._data.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry, evicting the LRU one when full."""
        if self.capacity == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._data.clear()

    @property
    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._data),
            capacity=self.capacity,
        )
