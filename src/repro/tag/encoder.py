"""TAG encoding: map a relational database into a Tuple-Attribute Graph.

The encoding follows paper Section 3 exactly:

1. every tuple ``t`` of relation ``R`` becomes a *tuple vertex* labelled
   ``R`` (duplicates get fresh vertices) that stores ``t`` by reference:
   its 1-based index, ``R[index - 1]`` being ``t``;
2. every distinct attribute value in the active domain becomes a single
   *attribute vertex* labelled with its domain/type, shared across all
   relations and attribute names that use the value;
3. every occurrence of value ``a`` in attribute ``A`` of an ``R``-tuple
   becomes an edge labelled ``R.A`` between the tuple vertex and the
   attribute vertex (undirected, i.e. materialised as two directed edges).

Floats and long text are not materialised as attribute vertices (they are
kept only inside the tuple), matching the loading policy of Section 8.2.
The resulting graph is bipartite and query independent.

The catalog is the only home of a row: the relation's row list holds its
decoded values and its :class:`~repro.storage.columns.RelationEncodedStore`
the int32 codes of its strings and dates, and a tuple vertex reads both by
position (:meth:`TagGraph.encoded_row`; the TAG-join kernel binds
per-alias readers over them at run start).  Attribute vertices for encoded
domains are keyed by the code/epoch day (``attr:str:{code}``,
``attr:date:{days}``) — because the dictionary is catalog-global, code
equality coincides with value equality across relations, so the paper's
value-sharing property is preserved.  The decoded value of each attribute
vertex is kept in the graph's attribute map for the result boundary.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bsp.graph import Graph, Vertex, VertexId
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.types import NULL, value_size_bytes
from ..storage.encoding import CODE, ColumnCodec, date_to_epoch_day

#: Label prefix of attribute vertices, completed with the value's domain.
ATTRIBUTE_LABEL_PREFIX = "attr"


def edge_label(relation_name: str, column_name: str) -> str:
    """The ``R.A`` label carried by TAG edges (paper Section 3, step 3)."""
    return f"{relation_name}.{column_name}"


def tuple_vertex_id(relation_name: str, index: int) -> VertexId:
    return f"{relation_name}_{index}"


def attribute_vertex_id(value: Any) -> VertexId:
    """One vertex per distinct value of the active domain.

    The id embeds the value's type so that, e.g., integer ``1`` and string
    ``"1"`` remain distinct vertices (they belong to different domains and
    never equi-join in SQL without an explicit cast).  Used for raw
    (unencoded) domains; encoded domains key their vertices by code
    (``attr:str:{code}``) or epoch day (``attr:date:{days}``) instead.
    """
    if hasattr(value, "isoformat"):
        return f"attr:date:{value.isoformat()}"
    return f"attr:{type(value).__name__}:{value!r}"


def attribute_label(value: Any) -> str:
    if isinstance(value, bool):
        return f"{ATTRIBUTE_LABEL_PREFIX}:bool"
    if isinstance(value, int):
        return f"{ATTRIBUTE_LABEL_PREFIX}:int"
    if isinstance(value, float):
        return f"{ATTRIBUTE_LABEL_PREFIX}:float"
    if hasattr(value, "isoformat"):
        return f"{ATTRIBUTE_LABEL_PREFIX}:date"
    return f"{ATTRIBUTE_LABEL_PREFIX}:string"


@dataclass
class LoadReport:
    """Loading statistics — the quantities behind Tables 1/2 and Figure 14.

    ``tuple_bytes`` counts *encoded* slot sizes: 4 bytes per string/date
    slot and the value's width otherwise.  The dictionary's own bytes are
    the catalog's (its relations interned every string before the graph
    sees a row), not charged per tuple.  Attribute vertices keep the
    decoded value, so ``attribute_bytes`` keeps the per-value accounting.
    """

    seconds: float = 0.0
    tuple_vertices: int = 0
    attribute_vertices: int = 0
    edges: int = 0
    tuple_bytes: int = 0
    attribute_bytes: int = 0
    edge_bytes: int = 0
    per_relation: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.tuple_bytes + self.attribute_bytes + self.edge_bytes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seconds": self.seconds,
            "tuple_vertices": self.tuple_vertices,
            "attribute_vertices": self.attribute_vertices,
            "edges": self.edges,
            "total_bytes": self.total_bytes,
        }


class TagGraph(Graph):
    """A TAG graph over a :class:`Catalog`, with relational-aware lookups.

    All tuple appends — bulk encode and batched deltas — funnel through
    :meth:`append_tuple`, so encoding and :class:`LoadReport` accounting
    cannot diverge between the paths.
    """

    def __init__(self, catalog: Catalog, name: str = "tag") -> None:
        super().__init__(name)
        #: the rows' one home: tuple vertices name them by position
        self.catalog = catalog
        # attribute vertex id -> its decoded value
        self._attribute_ids: Dict[VertexId, Any] = {}
        self.load_report = LoadReport()
        # relation name -> per-column (name, dtype, materialise, codec) plan
        self._column_plans: Dict[str, Tuple[Tuple[str, Any, bool, ColumnCodec], ...]] = {}
        # attribute vertex -> number of incident tuple edges.  An attribute
        # vertex is shared by every tuple carrying its value; the refcount
        # is what lets a delete free the vertex exactly when the *last*
        # referencing tuple dies — never before (a premature free would
        # break the surviving tuples' joins), never after (an orphan leaks)
        self._attribute_refcounts: Dict[VertexId, int] = {}
        # per-attribute byte accounting so deletes can fold LoadReport
        # exactly (a tuple's bytes are read back off its row)
        self._attribute_sizes: Dict[VertexId, int] = {}

    # ------------------------------------------------------------------
    # schema registration (encoding + materialisation policy per relation)
    # ------------------------------------------------------------------
    def register_schema(
        self, schema: Schema, materialise_flags: Optional[Sequence[bool]] = None
    ) -> None:
        """Fix the ingest plan for ``schema.name``: which columns become
        attribute vertices and how each column is encoded.  Idempotent
        unless new flags are passed; called implicitly with the default
        per-column policy on first append."""
        if materialise_flags is None:
            if schema.name in self._column_plans:
                return
            flags: Sequence[bool] = [column.materialise_as_vertex for column in schema.columns]
        else:
            flags = list(materialise_flags)
        codec = self.catalog.encoding.codec_for(schema)
        self._column_plans[schema.name] = tuple(
            (column.name, column.dtype, flag, column_codec)
            for column, flag, column_codec in zip(schema.columns, flags, codec.codecs)
        )

    # ------------------------------------------------------------------
    # lookups used by the TAG-join vertex programs
    # ------------------------------------------------------------------
    def tuple_vertices_of(self, relation_name: str) -> List[VertexId]:
        return self.vertices_with_label(relation_name)

    def _attribute_id_for(self, value: Any) -> Optional[VertexId]:
        """The vertex id a (decoded) value would live under, or None when
        the value provably has no vertex (string absent from the
        dictionary)."""
        if isinstance(value, str):
            code = self.catalog.encoding.dictionary.code_of(value)
            if code < 0:
                return None
            return f"attr:str:{code}"
        if hasattr(value, "isoformat"):
            if isinstance(value, _dt.datetime):
                value = value.date()
            return f"attr:date:{date_to_epoch_day(value)}"
        return attribute_vertex_id(value)

    def attribute_vertex_for(self, value: Any) -> Optional[VertexId]:
        vertex_id = self._attribute_id_for(value)
        if vertex_id is None:
            return None
        return vertex_id if self.has_vertex(vertex_id) else None

    def has_attribute_vertices(self, relation_name: str, column_name: str) -> bool:
        """Whether ``relation_name.column_name`` values become attribute
        vertices (linked under the ``R.A`` label) in this graph."""
        plan = self._column_plans.get(relation_name)
        if plan is None:
            return self.catalog.schema(relation_name).column(column_name).materialise_as_vertex
        return any(name == column_name and materialise for name, _, materialise, _ in plan)

    def is_tuple_vertex(self, vertex: Vertex) -> bool:
        return vertex.index > 0

    def encoded_row(self, vertex: Vertex) -> Dict[str, Any]:
        """A tuple vertex's row ``relation[index - 1]`` as ``column -> value``,
        strings and dates as their codes (the form filters are compiled to).

        Tombstoned positions still read their row: a view's delete terms
        run against the graph before the delete is patched in.
        """
        relation = self.catalog.relation(vertex.label)
        columns = relation.schema.column_names
        return dict(zip(columns, relation.encoded_reader(columns)(vertex.index - 1)))

    def attribute_value(self, vertex: Vertex) -> Any:
        return self._attribute_ids[vertex.vertex_id]

    def attribute_adjacency(self, label: str) -> Dict[VertexId, Sequence[VertexId]]:
        """``attribute vertex id -> [tuple vertex ids]`` of the ``label``-edges.

        The label index also lists each edge's tuple side (a tuple links
        to its value under the same ``R.A`` label); this keeps the
        attribute vertices only — those with at least one such edge.
        """
        attributes = self._attribute_ids
        return {
            source: targets
            for source, targets in self.adjacency(label).items()
            if source in attributes
        }

    def attribute_vertex_ids(self) -> List[VertexId]:
        return list(self._attribute_ids)

    # ------------------------------------------------------------------
    # ingest (bulk encode and deltas both land here; paper Section 3:
    # attribute vertices are cheaper to maintain than RDBMS indexes —
    # only local edge changes)
    # ------------------------------------------------------------------
    def append_tuple(self, schema: Schema, index: int) -> VertexId:
        """Add the tuple vertex of the catalog row ``relation[index - 1]``:
        create/connect its attribute vertices and do all LoadReport
        accounting.

        ``index`` is the row's physical position + 1, so vertex indexes
        stay aligned with the relation's physical row positions even when
        the relation carries tombstones (deleted positions simply have no
        vertex).
        """
        plan = self._column_plans.get(schema.name)
        if plan is None:
            self.register_schema(schema)
            plan = self._column_plans[schema.name]
        row = self.catalog.relation(schema.name)[index - 1]
        report = self.load_report
        vertex_id = tuple_vertex_id(schema.name, index)
        edges_before = self.edge_count

        self.add_vertex(vertex_id, schema.name, index)
        report.tuple_vertices += 1
        for (column_name, dtype, materialise, codec), value in zip(plan, row):
            report.tuple_bytes += codec.slot_bytes(value)
            if value is NULL or not materialise:
                continue
            if codec.is_encoded:
                prefix = "str" if codec.kind == CODE else "date"
                attr_id: VertexId = f"attr:{prefix}:{codec.encode(value)}"
            else:
                attr_id = attribute_vertex_id(value)
            if not self.has_vertex(attr_id):
                attr_bytes = value_size_bytes(value, dtype)
                self.add_vertex(attr_id, attribute_label(value))
                self._attribute_ids[attr_id] = value
                self._attribute_sizes[attr_id] = attr_bytes
                report.attribute_vertices += 1
                report.attribute_bytes += attr_bytes
            self.add_edge(vertex_id, attr_id, edge_label(schema.name, column_name), undirected=True)
            self._attribute_refcounts[attr_id] = self._attribute_refcounts.get(attr_id, 0) + 1

        # 16 bytes per directed edge: source id reference + target id reference
        report.edge_bytes += (self.edge_count - edges_before) * 16
        report.edges = self.edge_count
        report.per_relation[schema.name] = report.per_relation.get(schema.name, 0) + 1
        return vertex_id

    def delete_tuple(self, vertex_id: VertexId) -> None:
        """Delete a tuple vertex, its incident edges, and — exactly when the
        last referencing tuple dies — its now-unreferenced attribute vertices.

        Attribute vertices are shared across every relation and column
        carrying the value, so freeing them is refcounted: a vertex still
        referenced by any surviving tuple must stay (its joins depend on
        it), and one referenced by nobody must go (it would otherwise leak
        and keep matching equality lookups against deleted data).
        """
        self.delete_tuples([vertex_id])

    def delete_tuples(self, vertex_ids: Sequence[VertexId]) -> None:
        """Batch form of :meth:`delete_tuple` — same semantics, shared scans.

        A hot attribute vertex (a low-cardinality segment or priority
        value) can carry thousands of reverse edges; filtering its edge
        list once per deleted tuple makes a bulk delete quadratic.  The
        batch filters every affected reverse-edge list exactly once
        against the whole victim set, and removes the dead vertices from
        their label lists in one pass.
        """
        dead = set(vertex_ids)
        if not dead:
            return
        vertices = []
        for vertex_id in vertex_ids:
            vertex = self.vertex(vertex_id)  # raises before any mutation
            if not self.is_tuple_vertex(vertex):
                raise ValueError(f"{vertex_id!r} is not a tuple vertex")
            vertices.append(vertex)
        report = self.load_report
        edges_before = self.edge_count
        # one reference drop per incident edge, grouped per attribute; a
        # tuple's edges carry the ``R.A`` labels of its materialised columns
        drops: Dict[VertexId, int] = {}
        touched: set = set()  # (attribute id, edge label) lists to filter
        for vertex_id in dead:
            relation = self.vertex(vertex_id).label
            for column_name, _dtype, materialise, _codec in self._column_plans[relation]:
                if not materialise:
                    continue
                label = edge_label(relation, column_name)
                for attr_id in self.edge_targets(vertex_id, label):
                    drops[attr_id] = drops.get(attr_id, 0) + 1
                    touched.add((attr_id, label))
        for attr_id, label in touched:
            # reverse edges were appended as the tuples were, in tuple order
            self.remove_edges_to(attr_id, label, dead, ordered=True)
        dead_attributes: List[VertexId] = []
        for attr_id, dropped in drops.items():
            remaining = self._attribute_refcounts.get(attr_id, 0) - dropped
            if remaining > 0:
                self._attribute_refcounts[attr_id] = remaining
            else:
                self._attribute_refcounts.pop(attr_id, None)
                if self.has_vertex(attr_id):
                    dead_attributes.append(attr_id)
                self._attribute_ids.pop(attr_id, None)
                report.attribute_vertices -= 1
                report.attribute_bytes -= self._attribute_sizes.pop(attr_id, 0)
        self.remove_vertices(list(dead) + dead_attributes)
        for vertex in vertices:
            report.tuple_vertices -= 1
            row = self.catalog.relation(vertex.label)[vertex.index - 1]
            for (_name, _dtype, _materialise, codec), value in zip(
                self._column_plans[vertex.label], row
            ):
                report.tuple_bytes -= codec.slot_bytes(value)
            if vertex.label in report.per_relation:
                report.per_relation[vertex.label] -= 1
        report.edge_bytes -= (edges_before - self.edge_count) * 16
        report.edges = self.edge_count

    def delete_relation_tuples(self, schema: Schema, positions: Sequence[int]) -> List[VertexId]:
        """Delete the tuple vertices at the given physical row positions.

        Positions are the relation's stable physical coordinates; the
        vertex index is ``position + 1`` by the append-time invariant.
        """
        deleted = [
            tuple_vertex_id(schema.name, position + 1) for position in positions
        ]
        self.delete_tuples(deleted)
        return deleted


class TagEncoder:
    """Builds a :class:`TagGraph` from a relational :class:`Catalog`."""

    def __init__(self, materialise_overrides: Optional[Dict[Tuple[str, str], bool]] = None) -> None:
        """
        Args:
            materialise_overrides: optional map ``(relation, column) -> bool``
                forcing attribute-vertex materialisation on or off for
                specific columns, overriding the per-column/domain policy.
        """
        self._overrides = dict(materialise_overrides or {})

    def encode(self, catalog: Catalog, name: Optional[str] = None) -> TagGraph:
        """Encode every relation of ``catalog`` into one TAG graph."""
        graph = TagGraph(catalog, name or f"tag({catalog.name})")
        started = time.perf_counter()
        for relation in catalog:
            self._encode_relation(graph, relation)
        report = graph.load_report
        report.seconds = time.perf_counter() - started
        report.tuple_vertices = sum(
            len(graph.tuple_vertices_of(relation.name)) for relation in catalog
        )
        report.attribute_vertices = len(graph.attribute_vertex_ids())
        report.edges = graph.edge_count
        return graph

    # ------------------------------------------------------------------
    def _encode_relation(self, graph: TagGraph, relation: Relation) -> None:
        schema = relation.schema
        graph.register_schema(
            schema,
            [
                self._overrides.get((schema.name, column.name), column.materialise_as_vertex)
                for column in schema.columns
            ],
        )
        # encode by *physical* position (+1) so tuple vertex indexes match
        # the relation's stable row coordinates; tombstoned positions get
        # no vertex
        for position, _row in relation.live_items():
            graph.append_tuple(schema, position + 1)


def encode_catalog(catalog: Catalog, **kwargs) -> TagGraph:
    """Convenience wrapper: ``TagEncoder().encode(catalog)``."""
    return TagEncoder(**kwargs).encode(catalog)
