"""Index structures for the RDBMS-style baseline engine.

The paper's comparison systems maintain B-tree primary/foreign key indexes
whose build time and size are part of the loading experiments (Tables 1/2
and Figure 14).  We provide a hash index (used by the hash-join and
index-nested-loop operators) and a sorted index standing in for a B-tree
(binary-search lookups, range scans), plus a builder that creates them for
every primary key and foreign key column of a catalog, as the TPC
benchmark protocol prescribes.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.types import NULL, value_size_bytes


class HashIndex:
    """Equality index: value -> list of row positions.

    Positions are *physical* (``relation[position]`` resolves them), so
    they stay valid across tombstone deletes — a delete removes its
    entries instead of shifting everyone else's.
    """

    def __init__(self, relation: Relation, column: str) -> None:
        self.relation_name = relation.name
        self.column = column
        self._buckets: Dict[Any, List[int]] = {}
        position = relation.schema.position(column)
        for row_index, row in relation.live_items():
            value = row[position]
            if value is NULL:
                continue
            self._buckets.setdefault(value, []).append(row_index)

    def add_row(self, value: Any, row_position: int) -> None:
        """Index one appended row (delta maintenance; NULLs are skipped)."""
        if value is NULL:
            return
        self._buckets.setdefault(value, []).append(row_position)

    def remove_row(self, value: Any, row_position: int) -> None:
        """Drop one deleted row's entry (delta maintenance)."""
        if value is NULL:
            return
        positions = self._buckets.get(value)
        if positions is None:
            return
        try:
            positions.remove(row_position)
        except ValueError:
            return
        if not positions:
            del self._buckets[value]

    def lookup(self, value: Any) -> List[int]:
        return self._buckets.get(value, [])

    def __contains__(self, value: Any) -> bool:
        return value in self._buckets

    def distinct_values(self) -> int:
        return len(self._buckets)

    def size_bytes(self) -> int:
        total = 0
        for value, positions in self._buckets.items():
            total += value_size_bytes(value) + 8 * len(positions)
        return total


class SortedIndex:
    """A B-tree stand-in: sorted (value, row position) pairs with binary search."""

    def __init__(self, relation: Relation, column: str) -> None:
        self.relation_name = relation.name
        self.column = column
        position = relation.schema.position(column)
        entries = [
            (row[position], row_index)
            for row_index, row in relation.live_items()
            if row[position] is not NULL
        ]
        entries.sort(key=lambda entry: (str(type(entry[0])), entry[0]))
        self._keys = [entry[0] for entry in entries]
        self._positions = [entry[1] for entry in entries]

    def add_row(self, value: Any, row_position: int) -> None:
        """Insert one appended row at its sorted slot (the B-tree insert)."""
        if value is NULL:
            return
        # must match the build-time sort order: (type name, value); insert
        # *after* equal keys — the build's stable sort keeps row order, and
        # appended rows carry the highest positions
        slot = bisect.bisect_right(
            self._keys,
            (str(type(value)), value),
            key=lambda key: (str(type(key)), key),
        )
        self._keys.insert(slot, value)
        self._positions.insert(slot, row_position)

    def remove_row(self, value: Any, row_position: int) -> None:
        """Drop one deleted row's entry (the B-tree delete)."""
        if value is NULL:
            return
        sort_key = (str(type(value)), value)
        left = bisect.bisect_left(
            self._keys, sort_key, key=lambda key: (str(type(key)), key)
        )
        right = bisect.bisect_right(
            self._keys, sort_key, key=lambda key: (str(type(key)), key)
        )
        for slot in range(left, right):
            if self._positions[slot] == row_position:
                del self._keys[slot]
                del self._positions[slot]
                return

    def lookup(self, value: Any) -> List[int]:
        left = bisect.bisect_left(self._keys, value)
        right = bisect.bisect_right(self._keys, value)
        return self._positions[left:right]

    def range(self, low: Any, high: Any) -> List[int]:
        """Row positions with ``low <= value <= high``."""
        left = bisect.bisect_left(self._keys, low)
        right = bisect.bisect_right(self._keys, high)
        return self._positions[left:right]

    def size_bytes(self) -> int:
        return sum(value_size_bytes(key) + 8 for key in self._keys)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class IndexCatalog:
    """All indexes built for a catalog, with build statistics."""

    hash_indexes: Dict[Tuple[str, str], HashIndex] = field(default_factory=dict)
    sorted_indexes: Dict[Tuple[str, str], SortedIndex] = field(default_factory=dict)
    build_seconds: float = 0.0

    def hash_index(self, relation_name: str, column: str) -> Optional[HashIndex]:
        return self.hash_indexes.get((relation_name, column))

    def sorted_index(self, relation_name: str, column: str) -> Optional[SortedIndex]:
        return self.sorted_indexes.get((relation_name, column))

    def add_rows(
        self, relation: Relation, rows: List[Any], start_position: int
    ) -> int:
        """Index ``rows`` appended to ``relation`` starting at ``start_position``.

        Touches only this relation's indexes; returns how many index
        structures were patched.  Row positions continue the relation's
        0-based numbering, matching what the full build would assign.
        """
        schema = relation.schema
        patched = 0
        for (relation_name, column), index in self.hash_indexes.items():
            if relation_name != relation.name:
                continue
            position = schema.position(column)
            for offset, row in enumerate(rows):
                index.add_row(row[position], start_position + offset)
            patched += 1
        for (relation_name, column), index in self.sorted_indexes.items():
            if relation_name != relation.name:
                continue
            position = schema.position(column)
            for offset, row in enumerate(rows):
                index.add_row(row[position], start_position + offset)
            patched += 1
        return patched

    def remove_rows(
        self, relation: Relation, rows: List[Any], positions: List[int]
    ) -> int:
        """Drop index entries for ``rows`` deleted at physical ``positions``.

        The deletion mirror of :meth:`add_rows`: touches only this
        relation's indexes, removes exactly the (value, position) pairs
        the deleted rows contributed — surviving positions never move,
        so nothing else needs rewriting.  Returns structures patched.
        """
        schema = relation.schema
        patched = 0
        for index_map in (self.hash_indexes, self.sorted_indexes):
            for (relation_name, column), index in index_map.items():
                if relation_name != relation.name:
                    continue
                column_position = schema.position(column)
                for row, row_position in zip(rows, positions):
                    index.remove_row(row[column_position], row_position)
                patched += 1
        return patched

    def size_bytes(self) -> int:
        total = sum(index.size_bytes() for index in self.hash_indexes.values())
        total += sum(index.size_bytes() for index in self.sorted_indexes.values())
        return total

    def index_count(self) -> int:
        return len(self.hash_indexes) + len(self.sorted_indexes)


def indexed_columns(catalog: Catalog) -> List[Tuple[str, str]]:
    """The (relation, column) pairs the TPC protocol indexes: PKs and FKs."""
    columns: List[Tuple[str, str]] = []
    for relation in catalog:
        schema = relation.schema
        for key_column in schema.primary_key:
            columns.append((schema.name, key_column))
        for fk in schema.foreign_keys:
            for fk_column in fk.columns:
                pair = (schema.name, fk_column)
                if pair not in columns:
                    columns.append(pair)
    return columns


def build_indexes(catalog: Catalog, kind: str = "both") -> IndexCatalog:
    """Build PK/FK indexes for every relation of ``catalog``.

    Args:
        catalog: the database to index.
        kind: "hash", "sorted" or "both" (both mirrors an RDBMS keeping a
            B-tree for constraints plus hash structures for joins).
    """
    indexes = IndexCatalog()
    started = time.perf_counter()
    for relation_name, column in indexed_columns(catalog):
        relation = catalog.relation(relation_name)
        if kind in ("hash", "both"):
            indexes.hash_indexes[(relation_name, column)] = HashIndex(relation, column)
        if kind in ("sorted", "both"):
            indexes.sorted_indexes[(relation_name, column)] = SortedIndex(relation, column)
    indexes.build_seconds = time.perf_counter() - started
    return indexes
