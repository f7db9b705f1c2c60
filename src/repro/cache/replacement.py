"""Replacement policies (Table 2: LRU)."""

from __future__ import annotations

from typing import Hashable, Iterable, List


class LRUPolicy:
    """Least-recently-used ordering over an arbitrary key set.

    One instance serves one cache set; keys are whatever the cache uses to
    identify resident lines (tags or full line addresses).
    """

    def __init__(self) -> None:
        self._order: List[Hashable] = []  # index 0 = LRU, -1 = MRU

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most recently used (inserting it if new)."""
        try:
            self._order.remove(key)
        except ValueError:
            pass
        self._order.append(key)

    def remove(self, key: Hashable) -> None:
        try:
            self._order.remove(key)
        except ValueError:
            pass

    def victims(self) -> Iterable[Hashable]:
        """Keys in eviction order (LRU first)."""
        return list(self._order)

    def lru(self) -> Hashable:
        if not self._order:
            raise LookupError("empty LRU set")
        return self._order[0]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order
