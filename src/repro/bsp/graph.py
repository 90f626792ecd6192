"""Property-graph storage for the vertex-centric BSP engine.

Vertices carry an id and a label, and edges a label, the data model of
the paper's Section 2/3: a vertex has an id, a label, state, and a list of
outgoing (labelled) edges.  A vertex holds no data of its own: a TAG
tuple vertex names its row by index, and the row stays in the relation
it comes from (:class:`~repro.tag.encoder.TagGraph`).  TAG-join only ever
asks one question of the edges — "my out-edges labelled ``R.A``"
(Algorithm 2, lines 11-13) — so the store keeps them once, label-first,
as bare target ids (``label -> vertex id -> [target ids]``): a superstep
resolves the label once and each frontier vertex costs one dict lookup.
Edges carry no properties.  Every mutation patches the index in place;
it is never rebuilt.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Dict, Iterable, Iterator, List, Mapping, Sequence

VertexId = str


class GraphError(KeyError):
    """Raised for unknown vertex ids or duplicate insertions."""


_NO_TARGETS: Mapping[VertexId, List[VertexId]] = MappingProxyType({})

#: process-wide source of :attr:`Graph.generation` values
_GENERATIONS = itertools.count(1)


@dataclass(slots=True)
class Vertex:
    """A labelled vertex: four slots, no payload.

    Per-query scratch data (marked edges, accumulated partial joins) does
    not live here either: vertex programs keep it in the run-scoped
    :class:`~repro.bsp.engine.RunState` via ``context.state(vertex)``, so
    the graph stays immutable during execution and concurrent runs never
    interfere.
    """

    vertex_id: VertexId
    label: str
    #: graph-assigned dense integer id, unique for the graph's lifetime
    #: (never reused after removal).  The TAG-join kernel uses it as the
    #: provenance value so provenance columns stay native int64
    #: instead of falling back to object dtype on the vertex-id string.
    ordinal: int = -1
    #: a TAG tuple vertex's 1-based tuple index (physical row position + 1:
    #: ``relation[index - 1]`` is its row); 0 for every other vertex
    index: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vertex({self.vertex_id}:{self.label})"


class Graph:
    """An in-memory labelled property graph with label-first adjacency."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        #: process-unique token of this graph: a re-encode (after an
        #: out-of-band change) builds a new graph, so it moves with it
        self.generation = next(_GENERATIONS)
        self._vertices: Dict[VertexId, Vertex] = {}
        # the one edge store: label -> source id -> target ids, in edge order
        self._targets: Dict[str, Dict[VertexId, List[VertexId]]] = {}
        # label -> its vertex ids in insertion order (a dict as an ordered
        # set: removing one vertex must not rescan the label's population)
        self._vertices_by_label: Dict[str, Dict[VertexId, None]] = {}
        self._edge_count = 0
        self._next_ordinal = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: VertexId, label: str, index: int = 0) -> Vertex:
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id!r} already exists")
        vertex = Vertex(vertex_id, label, self._next_ordinal, index)
        self._next_ordinal += 1
        self._vertices[vertex_id] = vertex
        self._vertices_by_label.setdefault(label, {})[vertex_id] = None
        return vertex

    def add_edge(
        self, source: VertexId, target: VertexId, label: str, undirected: bool = False
    ) -> None:
        """Add an edge; with ``undirected=True`` also add the reverse edge.

        The TAG encoding treats edges as two-way relationships and models
        each as a pair of directed edges (paper footnote 3).
        """
        if source not in self._vertices:
            raise GraphError(f"unknown source vertex {source!r}")
        if target not in self._vertices:
            raise GraphError(f"unknown target vertex {target!r}")
        by_source = self._targets.setdefault(label, {})
        by_source.setdefault(source, []).append(target)
        if undirected:
            by_source.setdefault(target, []).append(source)
            self._edge_count += 2
        else:
            self._edge_count += 1

    def remove_vertex(self, vertex_id: VertexId) -> None:
        """Remove a vertex and its outgoing edges (incoming edges are left dangling).

        Only used by incremental maintenance; TAG-join itself never
        mutates the graph.
        """
        self.remove_vertices([vertex_id])

    def remove_vertices(self, vertex_ids: Iterable[VertexId]) -> None:
        """Batch form of :meth:`remove_vertex`.

        Each label's index is visited once for the whole batch, at the
        cost of the smaller of its sources and the batch.
        """
        dead = [self.vertex(vertex_id) for vertex_id in set(vertex_ids)]  # raises first
        for vertex in dead:
            labelled = self._vertices_by_label[vertex.label]
            del labelled[vertex.vertex_id]
            if not labelled:
                del self._vertices_by_label[vertex.label]
            del self._vertices[vertex.vertex_id]
        gone = {vertex.vertex_id for vertex in dead}
        for label, by_source in list(self._targets.items()):
            for source in by_source.keys() & gone:
                self._edge_count -= len(by_source.pop(source))
            if not by_source:
                del self._targets[label]

    def remove_edges_to(
        self, source: VertexId, label: str, dead: AbstractSet[VertexId], ordered: bool = False
    ) -> int:
        """Remove the ``label``-edges from ``source`` into ``dead``; returns how many.

        An emptied list is dropped, key and all (and the label with its
        last list): a surviving vertex must look exactly like a fresh
        build, which never creates empty adjacency lists.

        ``ordered=True`` is the caller's promise that these targets sit in
        vertex-creation order without repeats and that every id in ``dead``
        still names a vertex (a TAG attribute vertex: its tuples link to
        it as they are created).  A few victims in a long
        list are then found by bisection, so a hot value losing one tuple
        does not pay for its whole degree; when filtering the list once
        is fewer steps than ``len(dead)`` bisections, it is filtered.
        """
        by_source = self._targets.get(label, _NO_TARGETS)
        targets = by_source.get(source)
        if not targets:
            return 0
        before = len(targets)
        if ordered and len(dead) * before.bit_length() < before:
            vertices = self._vertices

            def ordinal(vertex_id: VertexId) -> int:
                return vertices[vertex_id].ordinal

            for target in dead:
                at = bisect_left(targets, ordinal(target), key=ordinal)
                if at < len(targets) and targets[at] == target:
                    del targets[at]
        else:
            targets[:] = [target for target in targets if target not in dead]
        if not targets:
            del by_source[source]
            if not by_source:
                del self._targets[label]
        self._edge_count -= before - len(targets)
        return before - len(targets)

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

    def out_degree(self, vertex_id: VertexId, label: str) -> int:
        return len(self.edge_targets(vertex_id, label))

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
