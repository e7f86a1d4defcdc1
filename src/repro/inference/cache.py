"""Evidence-keyed LRU cache for query results.

Serving workloads repeat queries: the same findings arrive again (dashboard
refreshes, retried requests) or a client asks for many marginals under one
evidence set.  The :class:`QueryCache` memoizes per-variable marginals and
the evidence likelihood under a *canonical evidence signature*
(:meth:`repro.inference.evidence.Evidence.signature`), so a repeated query
costs a dictionary lookup instead of a propagation.

Because entries are addressed by the full evidence signature, no
invalidation protocol is needed: changing the findings changes the key,
and stale entries simply age out of the LRU.  Entries are exact posteriors
— the cache never approximates — so a hit is always safe to serve.

The cache is thread-safe: serving workloads (:mod:`repro.serve`) share
one cache across many sessions and client threads, and the LRU
reordering plus the hit/miss counters mutate shared structures on every
lookup, so every public method takes an internal lock.  Stored arrays
are immutable (write-protected copies), so a value handed out under the
lock stays safe to read after it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

LIKELIHOOD = "__likelihood__"


class QueryCache:
    """LRU cache of ``{evidence signature -> {variable: marginal}}``.

    ``capacity`` bounds the number of distinct evidence signatures (not
    individual marginals; all marginals under one signature share its
    entry).  ``hits`` / ``misses`` count lookups; :meth:`hit_rate`
    summarizes them for benchmarks and the CLI.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------ #

    def _entry(self, signature: Tuple, create: bool) -> Optional[Dict]:
        # Caller must hold self._lock: LRU reordering and eviction both
        # mutate the OrderedDict.
        entry = self._entries.get(signature)
        if entry is not None:
            self._entries.move_to_end(signature)
            return entry
        if not create:
            return None
        entry = {}
        self._entries[signature] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def get_marginal(
        self, signature: Tuple, variable: int
    ) -> Optional[np.ndarray]:
        with self._lock:
            entry = self._entry(signature, create=False)
            values = None if entry is None else entry.get(variable)
            if values is None:
                self.misses += 1
                return None
            self.hits += 1
            return values

    def put_marginal(
        self, signature: Tuple, variable: int, values: np.ndarray
    ) -> None:
        stored = np.array(values, dtype=np.float64, copy=True)
        stored.setflags(write=False)
        with self._lock:
            self._entry(signature, create=True)[variable] = stored

    def get_likelihood(self, signature: Tuple) -> Optional[float]:
        with self._lock:
            entry = self._entry(signature, create=False)
            value = None if entry is None else entry.get(LIKELIHOOD)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put_likelihood(self, signature: Tuple, value: float) -> None:
        with self._lock:
            self._entry(signature, create=True)[LIKELIHOOD] = float(value)

    def __repr__(self) -> str:
        return (
            f"QueryCache(signatures={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
