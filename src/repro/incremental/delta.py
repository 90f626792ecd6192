"""The write delta and its in-place TAG graph patch.

Every write — an insert, a delete, an update — is one :class:`Delta`: the
rows it tombstones (by physical position, with their values) and the rows
it appends.  An insert is a delta with an empty minus half, a delete one
with an empty plus half, an update one with both; the bag-delta view
maintenance of *Modular Materialisation of Datalog Programs* consumes the
same two halves.

The paper's Section 3 argues attribute vertices are cheaper to maintain
than RDBMS indexes: inserting a tuple is one new tuple vertex plus local
edge changes (attribute vertices are created only for genuinely new
values), and deleting one frees shared attribute vertices by refcount.
:func:`patch_graph` is that argument made executable — it applies a
delta to an existing :class:`TagGraph`, keeping the graph consistent with
what a from-scratch :class:`~repro.tag.encoder.TagEncoder` re-encode of
the changed catalog would have produced (the differential harness's
interleaved-write suite holds it to that), while also keeping the graph's
:class:`~repro.tag.encoder.LoadReport` accounting truthful.

Appended rows go through :meth:`TagGraph.append_tuple`, the same ingest
path the bulk encoder uses; the relation already holds them (strings
interned into the catalog-global dictionary, which is append-only —
existing codes never move, so a delta can only *extend* the dictionary,
never invalidate compiled literals), and each new tuple vertex names its
row by position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Union

from ..relational.schema import Schema
from ..tag.encoder import TagGraph

__all__ = ["Delta", "patch_graph", "resolve_delta"]

Row = Sequence[Any]


@dataclass
class Delta:
    """One write to one relation: a minus half and a plus half.

    ``deleted_positions`` are live physical positions resolved before the
    write and ``deleted_rows`` their values (what the WAL logs: positions
    do not survive snapshot compaction).  ``inserted_rows`` are already
    schema-validated, so applying or replaying the delta cannot fail on
    a bad value.
    """

    relation: str
    deleted_positions: List[int] = field(default_factory=list)
    deleted_rows: List[Row] = field(default_factory=list)
    inserted_rows: List[Row] = field(default_factory=list)

    @property
    def rows_changed(self) -> int:
        return len(self.deleted_rows) + len(self.inserted_rows)

    @property
    def kind(self) -> str:
        """The WAL record type: ``load``, ``delete`` or ``update``."""
        if not self.deleted_rows:
            return "load"
        return "update" if self.inserted_rows else "delete"


def resolve_delta(
    relation: Any,
    victims: Optional[Union[Callable[[Row], Any], Iterable[Row]]],
    inserts: Union[Callable[[Row], Any], Mapping[str, Any], Iterable[Row]],
) -> Delta:
    """Resolve a write's two halves against ``relation``'s live rows.

    ``victims`` selects the minus half: ``None`` (nothing), a predicate
    called with each live row (a value tuple), or an iterable of row
    values deleted with bag semantics — each given row removes exactly
    one live occurrence, and a row with no live match raises
    ``KeyError``.  ``inserts`` produces the plus half: an iterable of rows
    taken as given, or (an update's shape) a callable mapping each victim
    row to its replacement — a full row or a ``column -> value`` mapping
    merged over the old values — or a bare mapping, the same merge for
    every victim (SQL ``UPDATE ... SET``).  The plus half is validated
    all-or-nothing; nothing here mutates the relation.
    """
    if victims is None:
        positions: List[int] = []
    elif callable(victims):
        positions = relation.find_positions(victims)
    else:
        positions = relation.match_positions(victims)
    deleted_rows = [relation[position] for position in positions]
    if isinstance(inserts, Mapping):
        # without this branch a mapping would fall through to list(dict) == keys
        updates = inserts
        inserts = lambda row: updates  # noqa: E731
    if callable(inserts):
        replacements = []
        for row in deleted_rows:
            produced = inserts(row)
            if isinstance(produced, Mapping):
                merged = list(row)
                for column, value in produced.items():
                    merged[relation.schema.position(column)] = value
                produced = merged
            replacements.append(produced)
    else:
        replacements = list(inserts)
    return Delta(relation.name, positions, deleted_rows, relation.validate_rows(replacements))


def patch_graph(graph: TagGraph, schema: Schema, delta: Delta) -> None:
    """Apply ``delta`` to relation ``schema.name`` of ``graph`` in place.

    The minus half first: each deleted position's vertex (index
    ``position + 1`` by the append-time invariant) leaves through
    :meth:`TagGraph.delete_relation_tuples`, which refcounts shared
    attribute vertices.  Then the plus half appends row by row through
    :meth:`TagGraph.append_tuple`, so materialisation policy, encoding and
    LoadReport accounting are exactly the bulk encoder's.  The relation
    already holds the delta: its appended rows are its last physical rows.
    """
    started = time.perf_counter()
    if delta.deleted_positions:
        graph.delete_relation_tuples(schema, delta.deleted_positions)
    end = graph.catalog.relation(schema.name).physical_count
    for index in range(end - len(delta.inserted_rows) + 1, end + 1):
        graph.append_tuple(schema, index)
    graph.load_report.seconds += time.perf_counter() - started
