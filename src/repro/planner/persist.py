"""Persisted plan-cache manifests: warm starts without recompilation.

Compiled fragments themselves cannot be serialized — the slotted and
vectorized paths are closures compiled against the live catalog — so what
persists is the *recipe*: for every statement whose plan entered the
cache, the SQL text, the engine it compiled under, and the normalized
fragment fingerprint it produced (see
:func:`~repro.planner.cache.fragment_cache_key`).  At startup
:meth:`repro.api.Database.warm_plan_cache` replays each recipe —
parse, bind, compile, store — *before* the server admits traffic, so the
serving window records zero plan compilations for known query shapes.

A manifest is only replayed against a catalog whose *schema* matches the
one it was recorded from: the catalog name and content-hashed schema
fingerprint (:meth:`~repro.relational.catalog.Catalog.schema_fingerprint`)
must agree, otherwise the whole manifest is ignored.  Data-only drift —
different row counts after writes — deliberately does **not** invalidate
a manifest.  A compiled fragment does depend on the statistics it was
compiled under (the planner's root and each multi-key edge's routing key
come from row counts and exact NDVs), but it is correct for any data:
every join condition is either routed on or checked at a collection
merge, whichever way the statistics fell.  So a server that took writes,
restarted, and reloaded different data still warm-starts with zero
recompilations, at worst on a plan the new statistics would not choose.
A stale manifest can never poison a cache: at worst a changed schema
costs one cold compile per shape, exactly the behaviour without
persistence.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..relational.catalog import Catalog

#: manifest schema version; readers reject anything else (v2 keys the
#: catalog match on the schema fingerprint instead of version+row count)
MANIFEST_VERSION = 2


@dataclass(frozen=True)
class PlanManifestEntry:
    """One warmable statement: where it ran and what it fingerprinted to."""

    engine: str
    sql: str
    fingerprint: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"engine": self.engine, "sql": self.sql, "fingerprint": self.fingerprint}


@dataclass
class PlanManifest:
    """The on-disk image of a database's warmable plan-cache contents."""

    catalog_name: str
    schema_fingerprint: str
    entries: List[PlanManifestEntry] = field(default_factory=list)

    def matches_catalog(self, catalog: Catalog) -> bool:
        """Whether ``catalog``'s schemas match what this manifest was
        recorded against (data-only drift does not count)."""
        return (
            self.catalog_name == catalog.name
            and self.schema_fingerprint == catalog.schema_fingerprint()
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "manifest_version": MANIFEST_VERSION,
            "catalog": {
                "name": self.catalog_name,
                "schema_fingerprint": self.schema_fingerprint,
            },
            "entries": [entry.as_dict() for entry in self.entries],
        }

    @classmethod
    def for_catalog(
        cls, catalog: Catalog, entries: Optional[List[PlanManifestEntry]] = None
    ) -> "PlanManifest":
        return cls(
            catalog_name=catalog.name,
            schema_fingerprint=catalog.schema_fingerprint(),
            entries=list(entries or []),
        )


def save_manifest(path: str, manifest: PlanManifest) -> str:
    """Write ``manifest`` to ``path`` atomically (write-temp-then-rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: str) -> Optional[PlanManifest]:
    """Read a manifest back; ``None`` for missing, corrupt or foreign files.

    Warm starts are best-effort: an unreadable manifest degrades to a cold
    start instead of failing server boot.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("manifest_version") != MANIFEST_VERSION:
        return None
    catalog = payload.get("catalog")
    raw_entries = payload.get("entries")
    if not isinstance(catalog, dict) or not isinstance(raw_entries, list):
        return None
    fingerprint = catalog.get("schema_fingerprint")
    if not isinstance(catalog.get("name"), str) or not isinstance(fingerprint, str):
        return None
    manifest = PlanManifest(
        catalog_name=catalog["name"],
        schema_fingerprint=fingerprint,
    )
    for raw in raw_entries:
        if not isinstance(raw, dict):
            return None
        engine = raw.get("engine")
        sql = raw.get("sql")
        if not isinstance(engine, str) or not isinstance(sql, str):
            return None
        fingerprint = raw.get("fingerprint")
        if fingerprint is not None and not isinstance(fingerprint, str):
            return None
        manifest.entries.append(PlanManifestEntry(engine, sql, fingerprint))
    return manifest
