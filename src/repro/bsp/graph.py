"""Property-graph storage for the vertex-centric BSP engine.

Vertices and edges carry a label and a property map, exactly the data model
assumed by the paper's Section 2/3: a vertex has an id, a label, state, and
a list of outgoing (labelled) edges.  The store keeps a per-vertex index of
outgoing edges grouped by label, and beside it a label-first adjacency of
bare target ids (``label -> vertex id -> [target ids]``), because TAG-join
runs a superstep as one loop that asks every frontier vertex for "my
out-edges labelled ``R.A``" (Algorithm 2, lines 11-13): the label is
resolved once per superstep and each vertex costs one dict lookup.  Both
are patched in place by every mutation; neither is ever rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

VertexId = str


class GraphError(KeyError):
    """Raised for unknown vertex ids or duplicate insertions."""


_NO_PROPERTIES: Mapping[str, Any] = MappingProxyType({})
_NO_TARGETS: Mapping[VertexId, List[VertexId]] = MappingProxyType({})


@dataclass(slots=True)
class Edge:
    """A directed, labelled edge with an optional property map.

    An edge added without properties shares one immutable empty map
    instead of owning a dict (a TAG graph has one edge per attribute
    occurrence and none of them carries properties).
    """

    source: VertexId
    target: VertexId
    label: str
    # a factory only because dataclasses reject an unhashable default
    properties: Mapping[str, Any] = field(default_factory=lambda: _NO_PROPERTIES)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.source} -[{self.label}]-> {self.target})"


@dataclass
class Vertex:
    """A labelled vertex with a property map.

    ``properties`` holds the durable data loaded into the graph (for TAG:
    the tuple values, or the attribute value).  Per-query scratch data
    (marked edges, accumulated partial joins) no longer lives here: vertex
    programs keep it in the run-scoped
    :class:`~repro.bsp.engine.RunState` via ``context.state(vertex)``, so
    the graph stays immutable during execution and concurrent runs never
    interfere.
    """

    vertex_id: VertexId
    label: str
    properties: Dict[str, Any] = field(default_factory=dict)
    #: graph-assigned dense integer id, unique for the graph's lifetime
    #: (never reused after removal).  The TAG-join kernel uses it as the
    #: provenance value so provenance columns stay native int64
    #: instead of falling back to object dtype on the vertex-id string.
    ordinal: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vertex({self.vertex_id}:{self.label})"


class Graph:
    """An in-memory labelled property graph with label-indexed adjacency."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._vertices: Dict[VertexId, Vertex] = {}
        # adjacency: vertex id -> edge label -> list of edges
        self._out_edges: Dict[VertexId, Dict[str, List[Edge]]] = {}
        # the same edges label-first, as bare target ids, in edge order
        self._targets: Dict[str, Dict[VertexId, List[VertexId]]] = {}
        # label -> its vertex ids in insertion order (a dict as an ordered
        # set: removing one vertex must not rescan the label's population)
        self._vertices_by_label: Dict[str, Dict[VertexId, None]] = {}
        self._edge_count = 0
        self._next_ordinal = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        vertex_id: VertexId,
        label: str,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Vertex:
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        vertex = Vertex(vertex_id, label, dict(properties or {}), ordinal=self._next_ordinal)
        self._next_ordinal += 1
        self._vertices[vertex_id] = vertex
        self._out_edges[vertex_id] = {}
        self._vertices_by_label.setdefault(label, {})[vertex_id] = None
        return vertex

    def add_edge(
        self,
        source: VertexId,
        target: VertexId,
        label: str,
        properties: Optional[Dict[str, Any]] = None,
        undirected: bool = False,
    ) -> Edge:
        """Add an edge; with ``undirected=True`` also add the reverse edge.

        The TAG encoding treats edges as two-way relationships and models
        each as a pair of directed edges (paper footnote 3).
        """
        if source not in self._vertices:
            raise GraphError(f"unknown source vertex {source!r}")
        if target not in self._vertices:
            raise GraphError(f"unknown target vertex {target!r}")
        edge = self._link(source, target, label, properties)
        if undirected:
            self._link(target, source, label, properties)
        return edge

    def _link(
        self, source: VertexId, target: VertexId, label: str, properties: Optional[Dict[str, Any]]
    ) -> Edge:
        edge = Edge(source, target, label, dict(properties) if properties else _NO_PROPERTIES)
        self._out_edges[source].setdefault(label, []).append(edge)
        self._targets.setdefault(label, {}).setdefault(source, []).append(target)
        self._edge_count += 1
        return edge

    def remove_vertex(self, vertex_id: VertexId) -> None:
        """Remove a vertex and its outgoing edges (incoming edges are left dangling).

        Only used by incremental maintenance; TAG-join itself never
        mutates the graph.
        """
        self.remove_vertices([vertex_id])

    def remove_vertices(self, vertex_ids: Iterable[VertexId]) -> None:
        """Batch form of :meth:`remove_vertex`; costs O(vertices removed)."""
        dead = [self.vertex(vertex_id) for vertex_id in set(vertex_ids)]  # raises first
        for vertex in dead:
            vertex_id = vertex.vertex_id
            labelled = self._vertices_by_label[vertex.label]
            del labelled[vertex_id]
            if not labelled:
                del self._vertices_by_label[vertex.label]
            for label, edges in self._out_edges.pop(vertex_id).items():
                self._edge_count -= len(edges)
                self._forget_source(label, vertex_id)
            del self._vertices[vertex_id]

    def _forget_source(self, label: str, source: VertexId) -> None:
        """Drop ``source``'s target list under ``label`` — and the label with its last one."""
        by_source = self._targets[label]
        del by_source[source]
        if not by_source:
            del self._targets[label]

    def remove_edges_to(
        self, source: VertexId, label: str, dead: AbstractSet[VertexId], ordered: bool = False
    ) -> int:
        """Remove the ``label``-edges from ``source`` into ``dead``; returns how many.

        An emptied list is dropped, key and all, from both indexes: a
        surviving vertex must look exactly like a fresh build, which never
        creates empty adjacency lists.

        ``ordered=True`` is the caller's promise that these targets sit in
        vertex-creation order without repeats and that every id in ``dead``
        still names a vertex (a TAG attribute vertex: its tuples link to
        it as they are created).  A few victims in a long
        list are then found by bisection, so a hot value losing one tuple
        does not pay for its whole degree; when filtering the list once
        is fewer steps than ``len(dead)`` bisections, it is filtered.
        """
        by_label = self._out_edges[source]
        edges = by_label.get(label)
        if not edges:
            return 0
        targets = self._targets[label][source]
        before = len(edges)
        if ordered and len(dead) * before.bit_length() < before:
            vertices = self._vertices

            def ordinal(vertex_id: VertexId) -> int:
                return vertices[vertex_id].ordinal

            for target in dead:
                at = bisect_left(targets, ordinal(target), key=ordinal)
                if at < len(targets) and targets[at] == target:
                    del targets[at], edges[at]
        else:
            edges[:] = [edge for edge in edges if edge.target not in dead]
            targets[:] = [edge.target for edge in edges]
        if not edges:
            del by_label[label]
            self._forget_source(label, source)
        self._edge_count -= before - len(edges)
        return before - len(edges)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: VertexId) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex_id!r}") from None

    def has_vertex(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._vertices

    def has_vertices(self, vertex_ids: AbstractSet[VertexId]) -> bool:
        """Whether every id of a set (or dict key view) names a vertex."""
        return vertex_ids <= self._vertices.keys()

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex_ids(self) -> Iterator[VertexId]:
        return iter(self._vertices.keys())

    def vertices_with_label(self, label: str) -> List[VertexId]:
        return list(self._vertices_by_label.get(label, []))

    def labels(self) -> List[str]:
        return list(self._vertices_by_label)

    def out_edges(self, vertex_id: VertexId, label: Optional[str] = None) -> List[Edge]:
        by_label = self._out_edges.get(vertex_id, {})
        if label is not None:
            return list(by_label.get(label, []))
        edges: List[Edge] = []
        for edge_list in by_label.values():
            edges.extend(edge_list)
        return edges

    def adjacency(self, label: str) -> Mapping[VertexId, List[VertexId]]:
        """``vertex id -> [target ids]`` of the ``label``-edges, in edge order.

        The live index, not a copy — read-only for callers.  A vertex
        without such an edge has no entry.
        """
        return self._targets.get(label, _NO_TARGETS)

    def edge_labels(self) -> List[str]:
        """Every label at least one edge carries."""
        return list(self._targets)

    def edge_targets(self, vertex_id: VertexId, label: str) -> Sequence[VertexId]:
        """Target ids of the ``label``-edges out of a vertex (read-only, no copy)."""
        return self._targets.get(label, _NO_TARGETS).get(vertex_id, ())

    def out_edge_labels(self, vertex_id: VertexId) -> List[str]:
        return list(self._out_edges.get(vertex_id, {}))

    def out_degree(self, vertex_id: VertexId, label: Optional[str] = None) -> int:
        by_label = self._out_edges.get(vertex_id, {})
        if label is not None:
            return len(by_label.get(label, []))
        return sum(len(edge_list) for edge_list in by_label.values())

    def neighbours(self, vertex_id: VertexId, label: Optional[str] = None) -> List[VertexId]:
        return [edge.target for edge in self.out_edges(vertex_id, label)]

    # ------------------------------------------------------------------
    # whole-graph statistics
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def count_by_label(self) -> Dict[str, int]:
        return {label: len(ids) for label, ids in self._vertices_by_label.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name}, |V|={self.vertex_count}, |E|={self.edge_count})"
