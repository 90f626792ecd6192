"""In-place TAG graph delta application.

The paper's Section 3 argues attribute vertices are cheaper to maintain
than RDBMS indexes: inserting a tuple is one new tuple vertex plus local
edge changes (attribute vertices are created only for genuinely new
values).  This module is that argument made executable — it appends a
batch of already-coerced rows to an existing :class:`TagGraph`, keeping
the graph byte-for-byte consistent with what a from-scratch
:class:`~repro.tag.encoder.TagEncoder` re-encode of the grown catalog
would have produced (the differential harness's interleaved-write suite
holds it to that), while also keeping the graph's
:class:`~repro.tag.encoder.LoadReport` accounting truthful.

Each appended row goes through :meth:`TagGraph.append_tuple`, the same
ingest path the bulk encoder uses: strings are interned into the
catalog-global dictionary (append-only — existing codes never move, so a
delta can only *extend* the dictionary, never invalidate compiled
literals) and tuple payloads are stored encoded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Sequence

from ..relational.schema import Schema
from ..tag.encoder import TagGraph

__all__ = ["DeltaReport", "DeleteReport", "apply_graph_delta", "apply_graph_delete"]


@dataclass
class DeltaReport:
    """What one delta application did to the graph."""

    relation: str
    rows_applied: int
    start_index: int  # 1-based index of the first appended tuple vertex
    new_attribute_vertices: int
    new_edges: int
    seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "rows_applied": self.rows_applied,
            "start_index": self.start_index,
            "new_attribute_vertices": self.new_attribute_vertices,
            "new_edges": self.new_edges,
            "seconds": round(self.seconds, 6),
        }


def apply_graph_delta(
    graph: TagGraph, schema: Schema, rows: Sequence[Sequence[Any]]
) -> DeltaReport:
    """Append ``rows`` of relation ``schema.name`` to ``graph`` in place.

    ``rows`` must already be schema-coerced (i.e. taken from the
    :class:`~repro.relational.relation.Relation` after insertion).
    Delegates row-by-row to :meth:`TagGraph.append_tuple`, so
    materialisation policy, encoding and LoadReport accounting are exactly
    the bulk encoder's — storage numbers stay comparable across the delta
    and rebuild paths by construction.
    """
    started = time.perf_counter()
    edges_before = graph.edge_count
    attributes_before = len(graph._attribute_ids)
    start_index = graph._tuple_counters.get(schema.name, 0) + 1

    column_names = schema.column_names
    applied = 0
    for row in rows:
        graph.append_tuple(schema, dict(zip(column_names, row)))
        applied += 1

    elapsed = time.perf_counter() - started
    graph.load_report.seconds += elapsed

    return DeltaReport(
        relation=schema.name,
        rows_applied=applied,
        start_index=start_index,
        new_attribute_vertices=len(graph._attribute_ids) - attributes_before,
        new_edges=graph.edge_count - edges_before,
        seconds=elapsed,
    )


@dataclass
class DeleteReport:
    """What one tombstone-delete application did to the graph."""

    relation: str
    rows_deleted: int
    freed_attribute_vertices: int
    removed_edges: int
    seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "relation": self.relation,
            "rows_deleted": self.rows_deleted,
            "freed_attribute_vertices": self.freed_attribute_vertices,
            "removed_edges": self.removed_edges,
            "seconds": round(self.seconds, 6),
        }


def apply_graph_delete(
    graph: TagGraph, schema: Schema, positions: Sequence[int]
) -> DeleteReport:
    """Drop the tuple vertices at the given physical row positions in place.

    The delete-shaped mirror of :func:`apply_graph_delta`: each position's
    vertex (index ``position + 1`` by the append-time invariant) goes
    through :meth:`TagGraph.delete_tuple`, which refcounts shared
    attribute vertices — freed exactly when their last referencing tuple
    dies — and folds the LoadReport accounting, so the patched graph stays
    equivalent to a from-scratch re-encode of the shrunk catalog.
    """
    started = time.perf_counter()
    edges_before = graph.edge_count
    attributes_before = len(graph._attribute_ids)

    graph.delete_relation_tuples(schema, positions)

    elapsed = time.perf_counter() - started
    graph.load_report.seconds += elapsed

    return DeleteReport(
        relation=schema.name,
        rows_deleted=len(positions),
        freed_attribute_vertices=attributes_before - len(graph._attribute_ids),
        removed_edges=edges_before - graph.edge_count,
        seconds=elapsed,
    )

