"""In-memory relations (bags of tuples).

Relations are stored row-oriented as tuples of Python values, with the
schema describing names/types.  Duplicates are allowed (bag semantics) —
the TAG encoding gives each duplicate occurrence its own tuple vertex
(paper Section 3, step 1).
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..storage.columns import RelationEncodedStore
from .schema import Column, Schema, SchemaError
from .types import NULL, DataType, coerce, infer_type, value_size_bytes

Row = Tuple[Any, ...]

#: process-wide source of :attr:`Relation.layout_epoch` values
_LAYOUT_EPOCHS = itertools.count(1)


class Relation:
    """A named bag of tuples conforming to a :class:`Schema`.

    The row list stays the *decoded* public surface (the rdbms/spark
    engines, CSV round-trips and FK validation all read plain values);
    once the relation joins a catalog it additionally maintains a
    columnar encoded store (:class:`~repro.storage.columns.RelationEncodedStore`)
    kept in lockstep by every mutation here, which supplies int32 code
    columns, exact NDV on every column and encoded byte accounting.
    """

    def __init__(self, schema: Schema, rows: Optional[Iterable[Sequence[Any]]] = None) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        # tombstoned physical positions: a delete marks, it never shifts.
        # Physical positions are the coordinate system shared with the TAG
        # graph (tuple vertex index = position + 1) and the RDBMS indexes,
        # so they must stay stable across deletes.
        self._deleted: set = set()
        # memoized per-column statistics (distinct sets, value frequencies);
        # every mutation clears the cache, so repeated planner passes over an
        # unchanged catalog stop rescanning the row store
        self._stats_cache: Dict[Tuple[str, str], Any] = {}
        self._mutations = 0
        # bound by Catalog.add: the encoded columnar backing
        self._encoded: Optional[RelationEncodedStore] = None
        # row value -> ascending live physical positions; built by the first
        # match_positions call and patched by every mutation after it, so a
        # relation nobody deletes from by value never pays for it
        self._match_index: Optional[Dict[Row, List[int]]] = None
        # what a physical position holds never changes except where this
        # is redrawn (see layout_epoch)
        self._layout_epoch = next(_LAYOUT_EPOCHS)
        if rows is not None:
            for row in rows:
                self.insert(row)

    def bind_encoding(self, encoding: Any) -> None:
        """Attach (or re-attach) the catalog's encoded column store.

        Called by :meth:`repro.relational.catalog.Catalog.add`; backfills
        codes for any rows inserted before the relation joined the catalog.
        """
        codec = encoding.codec_for(self.schema)
        store = RelationEncodedStore(self.schema, codec)
        store.rebuild(self._rows)
        for position in self._deleted:
            store.delete_row(position, self._rows[position])
        self._encoded = store
        self._layout_epoch = next(_LAYOUT_EPOCHS)

    @property
    def encoded_store(self) -> Optional[RelationEncodedStore]:
        """The columnar encoded backing, once bound to a catalog."""
        return self._encoded

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls, name: str, records: Sequence[Dict[str, Any]], schema: Optional[Schema] = None
    ) -> "Relation":
        """Build a relation from a list of dicts, inferring the schema if needed."""
        if schema is None:
            if not records:
                raise SchemaError("cannot infer schema from an empty record list")
            first = records[0]
            columns = []
            for column_name, value in first.items():
                dtype = infer_type(value) if value is not NULL else DataType.STRING
                columns.append(Column(column_name, dtype))
            schema = Schema(name, columns)
        relation = cls(schema)
        for record in records:
            relation.insert([record.get(column.name, NULL) for column in schema.columns])
        return relation

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def validate_row(self, row: Sequence[Any]) -> Row:
        """Coerce one tuple to the schema's domains without inserting it.

        Raises :class:`~repro.relational.schema.SchemaError` exactly where
        :meth:`insert` would.  The durable write path validates *before*
        logging to the write-ahead log, so a logged delta can never fail
        to replay during recovery.
        """
        if len(row) != self.schema.arity:
            raise SchemaError(
                f"row arity {len(row)} does not match schema "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        coerced = tuple(
            coerce(value, column.dtype)
            for value, column in zip(row, self.schema.columns)
        )
        for value, column in zip(coerced, self.schema.columns):
            if value is NULL and not column.nullable:
                raise SchemaError(
                    f"NULL in non-nullable column {self.schema.name}.{column.name}"
                )
        return coerced

    def validate_rows(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        """Coerce every tuple (all-or-nothing); returns the coerced rows."""
        return [self.validate_row(row) for row in rows]

    def insert(self, row: Sequence[Any]) -> None:
        """Insert one tuple, coercing values to the schema's domains."""
        self._append(self.validate_row(row))
        self._note_mutation()

    def _append(self, coerced: Row) -> None:
        if self._match_index is not None:
            self._match_index.setdefault(coerced, []).append(len(self._rows))
        self._rows.append(coerced)
        if self._encoded is not None:
            self._encoded.append_row(coerced)

    def extend(self, rows: Iterable[Sequence[Any]], validated: bool = False) -> None:
        """Insert many tuples; ``validated=True`` skips re-coercion.

        The durable write path validates rows *before* logging them to the
        WAL (a logged delta must never fail to replay), so re-validating on
        apply would double the coercion cost of every ingest batch.  Only
        pass ``validated=True`` for rows that came out of
        :meth:`validate_rows` unmodified.
        """
        if not validated:
            for row in rows:
                self.insert(row)
            return
        for coerced in rows:
            self._append(coerced)
        self._note_mutation()

    def truncate(self, count: int) -> int:
        """Drop every row past *physical* position ``count``; return the
        number of physical rows removed.

        This is the write path's rollback primitive: a load that fails
        mid-apply restores the relation to its pre-write physical length so
        a retry of the same logical write cannot double-append.  Appends
        always land past every tombstone, so truncating to a pre-write
        physical count never touches the tombstone set.
        """
        removed = len(self._rows) - count
        if removed <= 0:
            return 0
        del self._rows[count:]
        self._deleted = {p for p in self._deleted if p < count}
        self._match_index = None
        # the dropped positions will be appended to again, with other rows
        self._layout_epoch = next(_LAYOUT_EPOCHS)
        if self._encoded is not None:
            self._rebuild_encoded()
        self._note_mutation()
        return removed

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete all live rows satisfying ``predicate``; return the number removed.

        This is the scorched-earth deletion path: it compacts the physical
        row list (dropping tombstones along the way), so physical positions
        shift and every position-keyed derived structure must be rebuilt.
        Callers follow up with ``catalog.note_data_change()``.  The delta
        path is :meth:`delete_positions`.
        """
        before = len(self)
        had_tombstones = bool(self._deleted)
        self._rows = [row for _pos, row in self.live_items() if not predicate(row)]
        self._deleted = set()
        self._match_index = None
        self._layout_epoch = next(_LAYOUT_EPOCHS)
        removed = before - len(self._rows)
        if self._encoded is not None and (removed or had_tombstones):
            self._encoded.rebuild(self._rows)
        self._note_mutation()
        return removed

    # ------------------------------------------------------------------
    # tombstone deletes (the delta path: positions stay stable)
    # ------------------------------------------------------------------
    def delete_positions(self, positions: Sequence[int]) -> List[Row]:
        """Tombstone the given live physical positions; returns their rows.

        Physical positions never shift — the row slots stay in ``_rows``
        and are merely excluded from iteration/length/statistics — so the
        TAG graph's tuple vertex indexes and the RDBMS indexes' stored
        positions remain valid for every surviving row.
        """
        deleted: List[Row] = []
        for position in positions:
            if not (0 <= position < len(self._rows)):
                raise IndexError(
                    f"{self.schema.name}: physical position {position} out of range"
                )
            if position in self._deleted:
                raise ValueError(
                    f"{self.schema.name}: position {position} is already deleted"
                )
        index = self._match_index
        for position in positions:
            row = self._rows[position]
            self._deleted.add(position)
            if self._encoded is not None:
                self._encoded.delete_row(position, row)
            if index is not None:
                held = index[row]
                held.remove(position)
                if not held:
                    del index[row]
            deleted.append(row)
        self._note_mutation()
        return deleted

    def restore_positions(self, positions: Sequence[int]) -> int:
        """Undo :meth:`delete_positions` (the delete path's rollback)."""
        restored = 0
        for position in positions:
            if position in self._deleted:
                self._deleted.discard(position)
                row = self._rows[position]
                if self._encoded is not None:
                    self._encoded.restore_row(position, row)
                if self._match_index is not None:
                    insort(self._match_index.setdefault(row, []), position)
                restored += 1
        self._note_mutation()
        return restored

    def is_live(self, position: int) -> bool:
        return 0 <= position < len(self._rows) and position not in self._deleted

    @property
    def physical_count(self) -> int:
        """Number of physical row slots (live rows + tombstones)."""
        return len(self._rows)

    @property
    def layout_epoch(self) -> int:
        """A process-unique token for what the physical positions hold.

        Appends, tombstone deletes and their restores leave the row at
        every existing position as it was, and keep the epoch.  It is
        redrawn where a position may come to hold another row or other
        codes: :meth:`truncate` (its positions are appended to again),
        :meth:`delete_where` (compaction) and :meth:`bind_encoding`.  The
        kernel keys its filter-verdict memo on it.
        """
        return self._layout_epoch

    @property
    def mutation_count(self) -> int:
        """Mutations through this API so far; with :attr:`physical_count`,
        the stamp checkpoints compare to tell a relation changed."""
        return self._mutations

    def live_items(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(physical_position, row)`` for every live row, in order."""
        deleted = self._deleted
        if not deleted:
            return iter(enumerate(self._rows))
        return (
            (position, row)
            for position, row in enumerate(self._rows)
            if position not in deleted
        )

    def find_positions(self, predicate: Callable[[Row], bool]) -> List[int]:
        """Physical positions of every live row satisfying ``predicate``."""
        return [position for position, row in self.live_items() if predicate(row)]

    def match_positions(self, rows: Iterable[Sequence[Any]]) -> List[int]:
        """First-match physical positions for the given row values (bag
        semantics: each requested occurrence consumes one live row).

        Used by delete-by-value resolution and WAL ``delete`` replay — the
        log records row *values* (positions don't survive snapshot
        compaction), and replay must remove exactly one live occurrence
        per logged row.  Raises :class:`KeyError` when a row has no
        remaining live match.  Resolution reads the ``row -> live
        positions`` index, so a match costs O(rows asked for), not a scan.
        """
        index = self._match_index
        if index is None:
            index = self._match_index = {}
            for position, row in self.live_items():
                index.setdefault(row, []).append(position)
        matched: List[int] = []
        taken: Dict[Row, int] = {}  # occurrences this call already consumed
        for raw in rows:
            key = self.validate_row(raw)
            held = index.get(key, ())
            nth = taken.get(key, 0)
            if nth >= len(held):
                raise KeyError(
                    f"{self.schema.name}: no live row matches {tuple(raw)!r}"
                )
            matched.append(held[nth])
            taken[key] = nth + 1
        return matched

    def _note_mutation(self) -> None:
        self._mutations += 1
        if self._stats_cache:
            self._stats_cache.clear()

    def _rebuild_encoded(self) -> None:
        assert self._encoded is not None
        self._encoded.rebuild(self._rows)
        for position in self._deleted:
            self._encoded.delete_row(position, self._rows[position])

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> List[Row]:
        """The live row list.  Mutate through :meth:`insert` /
        :meth:`extend` / :meth:`delete_where`, which keep the memoized
        statistics fresh.  Direct count-changing edits (append/pop) are
        caught by a row-count guard, but same-count in-place replacement
        through this list bypasses both schema coercion and statistics
        invalidation — don't.  Once the relation carries tombstones the
        property returns a fresh live-only list (positions in it are
        *live ordinals*, not physical positions — use :meth:`live_items`
        or :meth:`__getitem__` for physical addressing)."""
        if not self._deleted:
            return self._rows
        return [row for _pos, row in self.live_items()]

    def __len__(self) -> int:
        return len(self._rows) - len(self._deleted)

    def __iter__(self) -> Iterator[Row]:
        if not self._deleted:
            return iter(self._rows)
        return (row for _pos, row in self.live_items())

    def __getitem__(self, index: int) -> Row:
        """Physical addressing: tombstoned slots remain reachable here (the
        RDBMS index scan resolves positions it stored before any delete)."""
        return self._rows[index]

    def encoded_reader(self, columns: Sequence[str]) -> Callable[[int], Row]:
        """``physical position -> the values of columns there``, strings and
        dates as their int32 codes and every other value as stored.

        Reads the row list and the store's code arrays as they are at the
        call: :meth:`truncate` and :meth:`delete_where` swap in fresh code
        arrays, so take a reader per use and never keep one.  Tombstoned
        positions still read their row.
        """
        rows = self._rows
        encoded = self._encoded.columns if self._encoded is not None else {}
        arrays = [encoded[column].codes for column in columns if column in encoded]
        # gather from the row extended by the codes (slots arity, arity + 1, ...)
        picks, extra = [], self.schema.arity
        for column in columns:
            if column in encoded:
                picks.append(extra)
                extra += 1
            else:
                picks.append(self.schema.position(column))
        if len(picks) > 1:
            pick = itemgetter(*picks)
        else:  # a slice keeps a gather of one column (or of none) a tuple
            pick = itemgetter(slice(picks[0], picks[0] + 1) if picks else slice(0))
        if not arrays:
            return lambda position: pick(rows[position])
        if len(arrays) == 1:
            codes = arrays[0]
            return lambda position: pick(rows[position] + (codes[position],))

        def read(position: int) -> Row:
            return pick(rows[position] + tuple([codes[position] for codes in arrays]))

        return read

    def column_values(self, column_name: str) -> List[Any]:
        position = self.schema.position(column_name)
        return [row[position] for row in self]

    def distinct_values(self, column_name: str) -> set:
        return set(self._distinct_frozen(column_name))

    def _cached_stat(self, key: Tuple[str, str], compute: Callable[[], Any]) -> Any:
        """Memoize one statistic, guarded against out-of-band row mutation.

        Mutations are expected to go through :meth:`insert` / :meth:`extend`
        / :meth:`delete_where` (which clear the cache eagerly), but the
        :attr:`rows` property hands out the live row list; entries therefore
        remember the mutation counter and physical row count they were
        computed at and self-invalidate when either no longer matches.
        The count guard catches count-changing edits (append/pop) through
        the property; the mutation counter additionally catches a delete
        followed by an equal-sized insert.  Same-count in-place row
        replacement is outside the guard and outside the API contract.
        """
        stamp = (self._mutations, len(self._rows))
        cached = self._stats_cache.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        value = compute()
        self._stats_cache[key] = (stamp, value)
        return value

    def _distinct_frozen(self, column_name: str) -> frozenset:
        """Memoized distinct non-NULL values (immutable master copy)."""
        position = self.schema.position(column_name)
        return self._cached_stat(
            ("distinct", column_name),
            lambda: frozenset(
                row[position] for row in self if row[position] is not NULL
            ),
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self]

    def sample(self, k: int, seed: int = 0) -> "Relation":
        rng = random.Random(seed)
        live = self.rows
        k = min(k, len(live))
        sampled = Relation(self.schema)
        sampled._rows = rng.sample(live, k)
        return sampled

    # ------------------------------------------------------------------
    # statistics (used by the planner and the Fig. 14 size accounting)
    # ------------------------------------------------------------------
    def cardinality(self) -> int:
        return len(self)

    def distinct_count(self, column_name: str) -> int:
        if self._encoded is not None:
            # exact and O(1): the store refcounts live values per column
            return self._encoded.ndv(column_name)
        return len(self._distinct_frozen(column_name))

    def data_size_bytes(self) -> int:
        """Base-table footprint in bytes (no indexes).

        Catalog-bound relations report *encoded* sizes — 4 bytes per
        string/date slot plus the amortised dictionary growth — so the
        planner's cost inputs match the representation the hot path
        actually scans.  Unbound relations keep the legacy object-size
        estimate.
        """
        if self._encoded is not None:
            return self._encoded.total_bytes
        total = 0
        for row in self:
            for value, column in zip(row, self.schema.columns):
                total += value_size_bytes(value, column.dtype)
        return total

    def value_frequencies(self, column_name: str) -> Dict[Any, int]:
        def compute() -> Dict[Any, int]:
            position = self.schema.position(column_name)
            frequencies: Dict[Any, int] = {}
            for row in self:
                value = row[position]
                if value is NULL:
                    continue
                frequencies[value] = frequencies.get(value, 0) + 1
            return frequencies

        # hand out a copy: callers historically received a fresh dict they
        # may mutate, and the memoized master must stay pristine
        return dict(self._cached_stat(("frequencies", column_name), compute))

    # ------------------------------------------------------------------
    # equality helpers for tests
    # ------------------------------------------------------------------
    def as_multiset(self) -> Dict[Row, int]:
        """Bag of rows -> multiplicity; used to compare results order-insensitively."""
        bag: Dict[Row, int] = {}
        for row in self:
            bag[row] = bag.get(row, 0) + 1
        return bag

    def same_bag(self, other: "Relation") -> bool:
        return self.as_multiset() == other.as_multiset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.name}, {len(self)} rows)"


def rows_to_multiset(rows: Iterable[Sequence[Any]]) -> Dict[Tuple[Any, ...], int]:
    """Order-insensitive bag view of an arbitrary row iterable (test helper)."""
    bag: Dict[Tuple[Any, ...], int] = {}
    for row in rows:
        key = tuple(row)
        bag[key] = bag.get(key, 0) + 1
    return bag
