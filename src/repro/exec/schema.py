"""Slotted row schemas: the compile-time column -> slot-index mapping.

The TAG-join hot path historically shipped every intermediate result row
as a ``Dict[str, Any]`` keyed by qualified column names, paying a dict
allocation plus per-column f-string formatting and hashing for every row
of every superstep.  A :class:`RowSchema` moves all of that name/shape
resolution to plan-compile time: it fixes the column order of one row
*shape* once, so at run time a row is a plain Python tuple and every
access is slot arithmetic (``row[3]`` instead of ``row["l.L_QTY"]``).

Schemas compose the same way the dict rows did:

* a relation node's *own row* schema is its alias-qualified projection
  plus the hidden provenance column;
* a collection step appends the own row's columns to the incoming
  schema, or finds them all there already (an Euler re-ascent), so the
  slotted path produces byte-identical logical rows to the dict path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

SlottedRow = Tuple[Any, ...]


class SlotError(KeyError):
    """Raised when a column cannot be resolved to a slot at compile time."""


class RowSchema:
    """An immutable, ordered mapping ``qualified column name -> slot index``."""

    __slots__ = ("columns", "_slots")

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self._slots: Dict[str, int] = {name: i for i, name in enumerate(self.columns)}
        if len(self._slots) != len(self.columns):
            raise SlotError(f"duplicate column names in schema: {self.columns}")

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowSchema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowSchema({', '.join(self.columns)})"

    # ------------------------------------------------------------------
    # slot resolution
    # ------------------------------------------------------------------
    def slot(self, name: str) -> int:
        """The slot of an exactly-named column; raises :class:`SlotError`."""
        try:
            return self._slots[name]
        except KeyError:
            raise SlotError(f"unknown column {name!r} (schema: {self.columns})") from None

    def slot_or_none(self, name: str) -> Optional[int]:
        return self._slots.get(name)

    def resolve(self, column: str, table: Optional[str] = None) -> int:
        """Resolve a (possibly unqualified) column reference to a slot.

        Mirrors ``ColumnRef.evaluate`` against a dict row context exactly:
        the qualified name wins, an unqualified name falls back to a
        *unique* ``alias.column`` suffix match, and ambiguity is an error
        — resolved once here instead of once per row at execution time.
        """
        qualified = f"{table}.{column}" if table else column
        slot = self._slots.get(qualified)
        if slot is not None:
            return slot
        if table is None:
            suffix = f".{column}"
            matches = [i for name, i in self._slots.items() if name.endswith(suffix)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise SlotError(f"ambiguous column {column!r} in schema {self.columns}")
        raise SlotError(f"unresolved column {qualified!r} (schema: {self.columns})")

    def getter(self, name: str) -> Callable[[SlottedRow], Any]:
        """A slot accessor for one exactly-named column."""
        return itemgetter(self.slot(name))

    # ------------------------------------------------------------------
    # boundary conversion
    # ------------------------------------------------------------------
    def to_dict(self, row: SlottedRow) -> Dict[str, Any]:
        """Dict view of one slotted row (boundary / debugging use only)."""
        return dict(zip(self.columns, row))

    def context_builder(self) -> Callable[[SlottedRow], Dict[str, Any]]:
        """A converter producing the dict row context of a slotted row.

        Used as the escape hatch for expressions the slot compiler cannot
        specialise (opaque callables, third-party Expression subclasses):
        they still evaluate correctly, just at dict-path speed.
        """
        columns = self.columns
        return lambda row: dict(zip(columns, row))

