"""Compiled-fragment cache keyed by normalized query fingerprints.

Compiling a :class:`~repro.algebra.logical.QuerySpec` into a
:class:`~repro.core.compiler.CompiledFragment` (hypergraph, GYO, join
tree, TAG plan, schedule, filter packaging) is a pure function of the
query, the catalog contents and the compilation flags — so repeated
queries can skip it entirely.  The cache key is a SHA-256 over:

* a *normalized* rendering of the spec: tables, canonicalized join
  conditions, per-alias filters (literals included — differing constants
  must miss), residuals, grouping, aggregates, outputs and DISTINCT —
  but **not** the query's display name;
* the compilation flags (root preference, aggregation/collection modes);
* the catalog's *schema* identity: name and
  :attr:`~repro.relational.catalog.Catalog.schema_version` — but **not**
  its data version.  Compiling a fragment consults only schemas (alias
  resolution, column slots, join columns), never row contents, so a
  compiled plan stays valid across data-only writes; this is what lets
  :meth:`repro.api.Database.load_rows` retain every cached plan on the
  delta-ingest path.  Schema changes (add/drop relation) move the schema
  version and naturally invalidate stale entries.

Fragments whose filters embed opaque subquery closures
(:class:`~repro.core.operations.CallablePredicate`) are *not cacheable*:
their captured result sets cannot be fingerprinted, so the executor
bypasses the cache for them rather than risk stale reuse.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..algebra.expressions import Expression
from ..algebra.logical import QuerySpec
from ..relational.catalog import Catalog


@dataclass
class PlanCacheStats:
    """Hit/miss accounting surfaced by the bench harness."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    bypasses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bypasses": self.bypasses,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """A bounded LRU mapping fragment fingerprints to compiled fragments.

    One instance may be shared by every executor of a
    :class:`repro.api.Database` and hit concurrently from several sessions,
    so all bookkeeping (the LRU order *and* the counters) happens under a
    lock.  Compiled fragments are immutable once stored, except for the
    verdict memo of their alias filters, which only ever grows and is
    replaced, never cleared (:mod:`repro.exec.program`).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PlanCacheStats()

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def store(self, key: str, fragment: Any) -> None:
        with self._lock:
            self._entries[key] = fragment
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_bypass(self) -> None:
        """Count an uncacheable fragment (kept under the lock like every
        other counter, so concurrent executions cannot lose updates)."""
        with self._lock:
            self.stats.bypasses += 1

    def clear(self) -> int:
        """Drop every entry (explicit invalidation); returns the count dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def is_cacheable(
    spec: QuerySpec,
    extra_filters: Optional[Dict[str, List[Expression]]] = None,
    extra_residuals: Optional[Sequence[Expression]] = None,
) -> bool:
    """Whether a fragment's inputs can be fingerprinted deterministically."""
    # local import: repro.core.operations pulls in the whole core package,
    # which itself imports repro.planner (the executor's lazy wiring)
    from ..core.operations import CallablePredicate

    predicates: List[Expression] = []
    for alias_filters in spec.filters.values():
        predicates.extend(alias_filters)
    if extra_filters:
        for alias_filters in extra_filters.values():
            predicates.extend(alias_filters)
    predicates.extend(spec.residual_predicates)
    if extra_residuals:
        predicates.extend(extra_residuals)
    return not any(isinstance(predicate, CallablePredicate) for predicate in predicates)


def _render_filters(filters: Dict[str, List[Expression]]) -> List[str]:
    rendered = []
    for alias in sorted(filters):
        for predicate in filters[alias]:
            rendered.append(f"{alias}:{predicate!r}")
    return rendered


def fragment_cache_key(
    spec: QuerySpec,
    catalog: Catalog,
    extra_filters: Optional[Dict[str, List[Expression]]] = None,
    extra_residuals: Optional[Sequence[Expression]] = None,
    preferred_root: Optional[str] = None,
    **flags: Any,
) -> str:
    """Normalized fingerprint of one compilation request.

    The query name is deliberately excluded: identical SQL parsed under
    different labels must share one cache entry.
    """
    parts: List[str] = []
    parts.append("tables:" + ",".join(f"{t.table} {t.alias}" for t in spec.tables))
    joins = sorted(
        "=".join(
            sorted(
                (
                    f"{condition.left_alias}.{condition.left_column}",
                    f"{condition.right_alias}.{condition.right_column}",
                )
            )
        )
        for condition in spec.join_conditions
    )
    parts.append("joins:" + ";".join(joins))
    parts.append("filters:" + ";".join(_render_filters(spec.filters)))
    if extra_filters:
        parts.append("extra_filters:" + ";".join(_render_filters(extra_filters)))
    parts.append("residuals:" + ";".join(repr(p) for p in spec.residual_predicates))
    if extra_residuals:
        parts.append("extra_residuals:" + ";".join(repr(p) for p in extra_residuals))
    parts.append("group_by:" + ",".join(g.qualified for g in spec.group_by))
    parts.append(
        "aggregates:"
        + ";".join(
            f"{a.function.value}({a.argument!r}) as {a.alias}" for a in spec.aggregates
        )
    )
    parts.append("output:" + ";".join(f"{c.expression!r} as {c.alias}" for c in spec.output))
    parts.append(f"distinct:{spec.distinct}")
    parts.append(f"root:{preferred_root}")
    for name in sorted(flags):
        parts.append(f"{name}:{flags[name]}")
    parts.append(f"catalog:{catalog.name}@schema{catalog.schema_version}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest
