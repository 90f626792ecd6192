"""The server-side result-set cache.

Identical read requests are endemic in serving workloads (dashboards,
retries, fan-out of one hot query), so the server memoizes *encoded
result payloads* — the exact JSON body a response carries — keyed by
what names the question:

    (tenant, engine, sql text, canonical parameter binding)

An entry depends on the relations its statement reads, not on the whole
catalog.  Beside the payload it keeps the statement's *read set* (every
base relation of the bound query, subquery blocks included) and the
*read stamp* the server took before the statement ran
(:meth:`repro.api.Database.read_stamp`: schema version, out-of-band
change counter, and each read relation's mutation and row-slot counts).
A lookup is a hit only when the tenant's stamp for that read set still
equals the stored one, which costs O(read set); an entry whose stamp
moved counts as ``stale``, is dropped and answered by re-execution.  A
write through the server also drops, eagerly, the tenant's entries that
read the written relation (:meth:`ResultCache.invalidate_relation`), so a
write to ORDERS leaves a CUSTOMER-only entry serving.  Changes the server
never sees (an in-process write, ``Database.note_data_change``) move the
stamp all the same, so their entries turn stale at the next lookup.

Entries store the payload produced by
:func:`repro.core.wire.encode_result_payload`; a hit returns that stored
dict itself (callers must not mutate it), never a re-execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..core.wire import canonical_params_key

CacheKey = Tuple[str, str, str, str]


class _Entry(NamedTuple):
    payload: Dict[str, Any]
    tables: Tuple[str, ...]
    stamp: Any


class ResultCacheStats:
    """Counters surfaced by the server's ``stats`` endpoint.

    ``misses`` counts every lookup not served, ``stale`` ones included
    (those found an entry whose read stamp had moved), so ``hit_rate``
    is hits over all lookups.  ``invalidations`` counts entries a write
    dropped because they read the written relation.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    def as_dict(self) -> Dict[str, Any]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }


class ResultCache:
    """A bounded LRU of encoded result payloads, safe across threads.

    The server touches it from worker threads (stores, invalidations) and
    the event loop (lookups), so all bookkeeping is lock-protected like
    the plan cache's.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = ResultCacheStats()

    @staticmethod
    def make_key(tenant: str, engine: str, sql: str, params: Any) -> CacheKey:
        return (tenant, engine, sql, canonical_params_key(params))

    def lookup(
        self, key: CacheKey, stamp_now: Callable[[Tuple[str, ...]], Any]
    ) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key`` if ``stamp_now(read set)`` still
        equals the stamp it was stored with, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and stamp_now(entry.tables) != entry.stamp:
                # a stamp never comes back once it moved: drop the entry
                del self._entries[key]
                self.stats.stale += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.payload

    def store(
        self, key: CacheKey, payload: Dict[str, Any], tables: Tuple[str, ...], stamp: Any
    ) -> None:
        with self._lock:
            self._entries[key] = _Entry(payload, tables, stamp)
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate_relation(self, tenant: str, relation: str) -> int:
        """Eagerly drop the tenant's entries that read ``relation`` (after a
        write to it); returns how many were dropped."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if key[0] == tenant and relation in entry.tables
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
