"""The catalog: a named collection of relations (a database instance)."""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..storage.encoding import CatalogEncoding
from .relation import Relation
from .schema import Schema


class CatalogError(KeyError):
    """Raised when a relation is missing from (or duplicated in) the catalog."""


class Catalog:
    """A relational database instance: relation name -> :class:`Relation`.

    The catalog is the unit loaded into every engine in the reproduction:
    the iterator engine builds indexes over it, the distributed engine
    partitions it, and the TAG encoder turns it into a graph.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._relations: Dict[str, Relation] = {}
        self._version = 0
        self._schema_version = 0
        self._data_version = 0
        # catalog-global dictionary + codecs: one encoding shared by every
        # relation so code equality coincides with value equality across
        # the whole catalog (TAG attribute vertices are shared likewise)
        self.encoding = CatalogEncoding()

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add(self, relation: Relation, replace: bool = False) -> None:
        if relation.name in self._relations and not replace:
            raise CatalogError(f"relation {relation.name!r} already in catalog")
        relation.bind_encoding(self.encoding)
        self._relations[relation.name] = relation
        self._version += 1
        self._schema_version += 1

    def create(self, schema: Schema) -> Relation:
        """Create and register an empty relation with the given schema."""
        relation = Relation(schema)
        self.add(relation)
        return relation

    def drop(self, relation_name: str) -> None:
        if relation_name not in self._relations:
            raise CatalogError(f"relation {relation_name!r} not in catalog")
        del self._relations[relation_name]
        self._version += 1
        self._schema_version += 1

    # ------------------------------------------------------------------
    # change tracking (consumed by plan caches and the TAG encoding)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by *any* change, schema or data.

        The combined counter: it moves whenever :attr:`schema_version` or
        :attr:`data_version` moves, so state keyed on ``version`` (result
        caches, the lazily re-encoded TAG graph) invalidates on every kind
        of change.  State that only depends on the set of schemas — above
        all compiled plan fragments — keys on :attr:`schema_version`
        instead and survives data-only writes.

        Direct mutation of a relation's rows does not pass through the
        catalog; callers doing bulk loads into registered relations should
        call :meth:`note_data_change` so dependent caches invalidate.
        """
        return self._version

    @property
    def schema_version(self) -> int:
        """Counter bumped only when the set of relations/schemas changes."""
        return self._schema_version

    @property
    def data_version(self) -> int:
        """Counter bumped only by data mutations (loads, deletes)."""
        return self._data_version

    def note_data_change(self) -> None:
        """Record an out-of-band data mutation (bulk insert/delete)."""
        self._version += 1
        self._data_version += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def relation(self, relation_name: str) -> Relation:
        try:
            return self._relations[relation_name]
        except KeyError:
            raise CatalogError(f"relation {relation_name!r} not in catalog") from None

    def schema(self, relation_name: str) -> Schema:
        return self.relation(relation_name).schema

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> List[str]:
        return list(self._relations)

    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    def schema_fingerprint(self) -> str:
        """Content hash of every schema: names, columns, types, keys.

        Unlike :attr:`schema_version` (a process-local counter), the
        fingerprint is stable across processes for identical schemas, so
        persisted plan manifests can match a restarted catalog even when
        its data (and therefore its row counts) changed in between.
        Memoized per schema version — data writes never recompute it.
        """
        import hashlib

        cached = getattr(self, "_schema_fingerprint_cache", None)
        if cached is not None and cached[0] == self._schema_version:
            return cached[1]
        parts = []
        for name in sorted(self._relations):
            schema = self._relations[name].schema
            columns = ";".join(
                f"{column.name}:{column.dtype.value}:{int(column.nullable)}"
                for column in schema.columns
            )
            keys = ",".join(schema.primary_key)
            fks = ";".join(
                f"{','.join(fk.columns)}->{fk.referenced_table}({','.join(fk.referenced_columns)})"
                for fk in schema.foreign_keys
            )
            parts.append(f"{name}|{columns}|pk:{keys}|fk:{fks}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        self._schema_fingerprint_cache = (self._schema_version, digest)
        return digest

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def total_rows(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def total_data_size_bytes(self) -> int:
        return sum(relation.data_size_bytes() for relation in self._relations.values())

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-relation cardinality and byte-size summary."""
        return {
            name: {
                "rows": relation.cardinality(),
                "bytes": relation.data_size_bytes(),
                "columns": relation.schema.arity,
            }
            for name, relation in self._relations.items()
        }

    def validate_foreign_keys(self) -> List[str]:
        """Check referential integrity; return a list of violation messages.

        The workload generators are required to produce zero violations; the
        tests assert this.
        """
        violations: List[str] = []
        for relation in self._relations.values():
            for fk in relation.schema.foreign_keys:
                if fk.referenced_table not in self._relations:
                    violations.append(
                        f"{relation.name}: missing referenced table {fk.referenced_table}"
                    )
                    continue
                referenced = self._relations[fk.referenced_table]
                referenced_keys = {
                    tuple(row[referenced.schema.position(c)] for c in fk.referenced_columns)
                    for row in referenced
                }
                positions = [relation.schema.position(c) for c in fk.columns]
                for row in relation:
                    key = tuple(row[p] for p in positions)
                    if any(part is None for part in key):
                        continue
                    if key not in referenced_keys:
                        violations.append(
                            f"{relation.name}.{fk.columns} -> "
                            f"{fk.referenced_table}.{fk.referenced_columns}: "
                            f"dangling key {key}"
                        )
                        break
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog({self.name}, {len(self._relations)} relations, {self.total_rows()} rows)"
