"""Incremental TAG maintenance: deltas instead of scorched-earth rebuilds.

Historically any write (``Database.load_rows`` / ``Catalog.note_data_change``)
threw away the TAG encoding, the statistics, every compiled plan, and every
executor — a serving system taking writes recompiled the world per insert.
This package replaces that with delta maintenance end to end:

* :mod:`~repro.incremental.delta` — the one write type, a
  :class:`~repro.incremental.delta.Delta` of tombstoned and appended rows
  that inserts, deletes and updates all become, and its in-place patch of
  the :class:`~repro.tag.encoder.TagGraph` (the paper's Section 3
  observation that attribute vertices are cheaper to maintain than RDBMS
  indexes: writes are local edge changes);
* :mod:`~repro.incremental.views` — materialized views maintained by one
  signed seminaïve delta over only the written tuple vertices (iterated
  supersteps on the BSP engine), after *Modular Materialisation of
  Datalog Programs*;
* :mod:`~repro.incremental.locks` — the reader/writer lock serializing
  delta application against in-flight reads;
* :mod:`~repro.incremental.maintenance` — the counters surfaced through
  ``Database.cache_stats()["maintenance"]`` and the server ``stats`` op.

Statistics need no module and no write step here:
:class:`~repro.tag.statistics.CatalogStatistics` is a view that reads
row counts, NULL counts and the NDV of every column straight from the
catalog, and the relation's column store keeps each of them exact on
every tombstone and append by refcounting live values
(:mod:`repro.storage.columns`).

Attribute access is lazy (PEP 562): :mod:`repro.api.database` imports
:mod:`repro.incremental.locks` while :mod:`repro.incremental.views`
imports :mod:`repro.core` — eager re-exports here would drag the whole
executor in behind a lock import.
"""

from __future__ import annotations

_EXPORTS = {
    "ReadWriteLock": "locks",
    "MaintenanceCounters": "maintenance",
    "Delta": "delta",
    "patch_graph": "delta",
    "MaterializedView": "views",
    "ViewError": "views",
    "view_refresh_mode": "views",
    "refresh_view": "views",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
