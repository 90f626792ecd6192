"""Property-graph storage for the vertex-centric BSP engine.

Vertices and edges carry a label and a property map, exactly the data model
assumed by the paper's Section 2/3: a vertex has an id, a label, state, and
a list of outgoing (labelled) edges.  The store keeps a per-vertex index of
outgoing edges grouped by label because TAG-join's vertex programs
constantly ask for "my out-edges labelled ``R.A``" (Algorithm 2, lines
11-13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

VertexId = str


class GraphError(KeyError):
    """Raised for unknown vertex ids or duplicate insertions."""


@dataclass
class Edge:
    """A directed, labelled edge with an optional property map."""

    source: VertexId
    target: VertexId
    label: str
    properties: Dict[str, Any] = field(default_factory=dict)

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
        self._vertices_by_label: Dict[str, List[VertexId]] = {}
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
        self._vertices_by_label.setdefault(label, []).append(vertex_id)
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
        edge = Edge(source, target, label, dict(properties or {}))
        self._out_edges[source].setdefault(label, []).append(edge)
        self._edge_count += 1
        if undirected:
            reverse = Edge(target, source, label, dict(properties or {}))
            self._out_edges[target].setdefault(label, []).append(reverse)
            self._edge_count += 1
        return edge

    def remove_vertex(self, vertex_id: VertexId) -> None:
        """Remove a vertex and its outgoing edges (incoming edges are left dangling).

        Only used by incremental maintenance; TAG-join itself never
        mutates the graph.
        """
        vertex = self.vertex(vertex_id)
        self._vertices_by_label[vertex.label].remove(vertex_id)
        removed = sum(len(edges) for edges in self._out_edges[vertex_id].values())
        self._edge_count -= removed
        del self._out_edges[vertex_id]
        del self._vertices[vertex_id]

    def remove_vertices(self, vertex_ids: Iterable[VertexId]) -> None:
        """Batch form of :meth:`remove_vertex`.

        Filters each affected label list once for the whole batch —
        per-vertex ``list.remove`` would rescan the label's full
        population per removal, turning a bulk delete quadratic.
        """
        dead = set(vertex_ids)
        if not dead:
            return
        labels = {self.vertex(vertex_id).label for vertex_id in dead}
        for label in labels:
            survivors = [v for v in self._vertices_by_label[label] if v not in dead]
            self._vertices_by_label[label] = survivors
        for vertex_id in dead:
            removed = sum(len(edges) for edges in self._out_edges[vertex_id].values())
            self._edge_count -= removed
            del self._out_edges[vertex_id]
            del self._vertices[vertex_id]

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

    def edge_targets(self, vertex_id: VertexId, label: str) -> List[VertexId]:
        """Target ids of the ``label``-edges out of a vertex, without copying edges.

        The hot-path variant of ``[e.target for e in out_edges(v, label)]``:
        :meth:`out_edges` defensively copies the edge list on every call,
        which the TAG-join send loops pay once per vertex per superstep.
        """
        edges = self._out_edges.get(vertex_id, {}).get(label)
        if not edges:
            return []
        return [edge.target for edge in edges]

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
