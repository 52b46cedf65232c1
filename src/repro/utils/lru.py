"""A small thread-safe bounded LRU map for process-wide memo caches.

Operators, port modes and normalization runs depend only on a device's
feeding waveguide, not on its design, so the FDFD and FDTD stacks memoize
them process-wide.  Every such cache is one :class:`BoundedLru`.

One lock guards every method.  Callers build values *outside* the lock (the
same policy as :class:`repro.fdfd.engine.FactorizationCache`): two threads
racing one cold key may both build it, and the last :meth:`BoundedLru.put`
wins.  Values must never be ``None``, which :meth:`BoundedLru.get` returns
on a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable


class BoundedLru:
    """Least-recently-used map holding at most ``max(1, maxsize)`` entries.

    ``maxsize`` is a plain attribute, read on every :meth:`put`, so a caller
    may resize the cache between puts.  ``hits`` and ``misses`` count
    :meth:`get` calls.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        """The value stored under ``key`` (refreshing it), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > max(1, self.maxsize):
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def keys(self) -> list:
        """Snapshot of the keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
