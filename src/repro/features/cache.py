"""Bounded LRU memo with hit/miss/eviction accounting.

Backs the feature extractor's profile-feature and text-statistics
memos.  Deliberately dependency-free (no obs imports): callers that
want registry counters mirror :attr:`hits`/:attr:`misses` themselves,
so constructing a cache never registers a metric.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator


class LRUCache:
    """Least-recently-used mapping with a hard entry cap.

    A ``get`` hit refreshes the entry's recency; inserting beyond
    ``capacity`` evicts the least recently used entry.  ``hits + misses
    == lookups`` always holds (``__contains__`` and iteration are
    accounting-neutral), which the cache tests assert against the
    registry mirrors.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable, default: object = None) -> object:
        """The cached value (refreshing recency), or ``default``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, evicting the LRU one at cap."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1]; 0.0 before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first (accounting-neutral)."""
        return iter(self._data)


__all__ = ["LRUCache"]
