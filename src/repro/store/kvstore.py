"""Embedded key-value store."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.network.packet import estimate_size


class KeyValueStore:
    """A simple ordered key-value store with usage accounting.

    The store tracks an approximate on-disk/in-memory footprint so the
    resource model can report storage growth, and counts operations so
    benchmarks can reason about access patterns.  An overwrite or delete
    gives back what the key was charged at its put: the store keeps the
    caller's object, which the caller may mutate afterwards.
    """

    def __init__(self, name: str = "kvstore") -> None:
        self.name = name
        self._data: Dict[Any, Any] = {}
        self._charged: Dict[Any, int] = {}
        self.bytes_stored = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0

    def put(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        size = estimate_size(value)
        self.bytes_stored += size - self._charged.get(key, 0)
        self._charged[key] = size
        self._data[key] = value
        self.puts += 1

    def get(self, key: Any, default: Any = None) -> Any:
        self.gets += 1
        return self._data.get(key, default)

    def delete(self, key: Any) -> bool:
        self.deletes += 1
        if key in self._data:
            self.bytes_stored -= self._charged.pop(key)
            del self._data[key]
            return True
        return False

    def contains(self, key: Any) -> bool:
        return key in self._data

    def increment(self, key: Any, amount: float = 1) -> float:
        """Atomic-style numeric increment (handy for counters)."""
        value = self._data.get(key, 0) + amount
        self.put(key, value)
        return value

    def scan(self, prefix: Optional[str] = None) -> List[Tuple[Any, Any]]:
        """Return (key, value) pairs, optionally filtered by string prefix."""
        items = sorted(self._data.items(), key=lambda kv: str(kv[0]))
        if prefix is None:
            return items
        return [(k, v) for k, v in items if str(k).startswith(prefix)]

    def keys(self) -> List[Any]:
        return list(self._data.keys())

    def clear(self) -> None:
        self._data.clear()
        self._charged.clear()
        self.bytes_stored = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)
