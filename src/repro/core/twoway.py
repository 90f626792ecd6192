"""Vertex-centric two-way joins over a TAG graph (paper Section 4 and parts of 7).

These programs are the faithful, self-contained building blocks of the
paper's exposition:

* :class:`TwoWayJoinProgram` — natural equi-join of two relations on one or
  more attributes.  Single-attribute joins follow Section 4.1 (three
  supersteps: reduce, collect values, combine); multi-attribute joins add
  the Section 4.2 adjustment where one join attribute coordinates and
  intersects the remaining attribute values from both sides.  The result
  can be produced *factorized* (per join value, the two tuple lists) or
  *unfactorized* (their Cartesian product), which drives the A01 ablation.
* :class:`SemiJoinProgram` / :class:`AntiJoinProgram` — Section 7's
  semi-join and anti-join, used for EXISTS / NOT EXISTS subqueries.
* :class:`OuterJoinProgram` — left / right / full outer two-way joins.

The general multi-way algorithm lives in :mod:`repro.core.vertex_program`;
these classes are used directly by unit tests, the paper-figure
reconstructions, micro-benchmarks and the subquery evaluator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..bsp.engine import VertexProgram
from ..bsp.graph import Graph, Vertex
from ..relational.types import NULL
from ..tag.encoder import TUPLE_DATA_KEY, TagGraph, edge_label


class OuterJoinKind(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    FULL = "full"


@dataclass
class JoinPair:
    """One equi-join condition ``left_table.left_column = right_table.right_column``."""

    left_column: str
    right_column: str


def _qualify(table: str, data: Dict[str, Any]) -> Dict[str, Any]:
    return {f"{table}.{column}": value for column, value in data.items()}


class TwoWayJoinProgram(VertexProgram):
    """R ⋈ S evaluated at the join-attribute vertices.

    Supersteps (single attribute, Section 4.1):

    0. every attribute vertex of the join attribute checks whether it has
       outgoing edges labelled both ``R.A`` and ``S.B``; if so it messages
       the tuple vertices on both sides (reduction), otherwise it
       deactivates itself;
    1. activated tuple vertices send their (projected) tuple back to the
       join-attribute vertex via the marked edge;
    2. the attribute vertex combines the values received from the two
       sides — the factorized representation — and, unless ``factorized``
       is requested, expands their Cartesian product into output tuples.

    With multiple join attributes the first pair coordinates: tuple
    vertices attach their remaining join-attribute values in superstep 1,
    the coordinator intersects them (Section 4.2) and only the agreeing
    combinations contribute to the output.
    """

    def __init__(
        self,
        graph: TagGraph,
        left_table: str,
        right_table: str,
        join_pairs: Sequence[JoinPair],
        factorized: bool = False,
    ) -> None:
        if not join_pairs:
            raise ValueError("a two-way join needs at least one join pair")
        self.graph = graph
        self.left_table = left_table
        self.right_table = right_table
        self.join_pairs = list(join_pairs)
        self.factorized = factorized
        self.primary = self.join_pairs[0]
        self.secondary = self.join_pairs[1:]
        self.left_label = edge_label(left_table, self.primary.left_column)
        self.right_label = edge_label(right_table, self.primary.right_column)
        self.output: List[Dict[str, Any]] = []
        self.factorized_output: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def initial_active_vertices(self, graph: Graph):
        """The attribute vertices of the (primary) join attribute."""
        return (
            self.graph.attribute_adjacency(self.left_label).keys()
            | self.graph.attribute_adjacency(self.right_label).keys()
        )

    def compute(self, vertex: Vertex, messages: List[Any], graph: Graph, context) -> None:
        if context.superstep == 0:
            self._reduce(vertex, graph, context)
        elif context.superstep == 1:
            self._reply(vertex, messages, graph, context)
        elif context.superstep == 2:
            self._combine(vertex, messages, context)

    # superstep 0: reduction at the join-attribute vertex ----------------
    def _reduce(self, vertex: Vertex, graph: Graph, context) -> None:
        left_targets = graph.edge_targets(vertex.vertex_id, self.left_label)
        right_targets = graph.edge_targets(vertex.vertex_id, self.right_label)
        context.charge(len(left_targets) + len(right_targets))
        if not left_targets or not right_targets:
            return  # not a join value: deactivate silently
        for target in left_targets:
            context.send(target, (vertex.vertex_id, "left"))
        for target in right_targets:
            context.send(target, (vertex.vertex_id, "right"))

    # superstep 1: tuple vertices reply with their values ----------------
    def _reply(self, vertex: Vertex, messages: List[Any], graph: Graph, context) -> None:
        context.charge(len(messages))
        tuple_data = vertex.properties.get(TUPLE_DATA_KEY)
        if tuple_data is None:
            return
        # secondary intersection keys stay *encoded* (code equality is value
        # equality under the catalog-global dictionary); the tuple payload
        # itself is decoded here because these rows go straight to the user
        decoded = dict(self.graph.decoded_tuple_data(vertex))
        for attribute_vertex_id, side in messages:
            secondary_values = tuple(
                tuple_data.get(pair.left_column if side == "left" else pair.right_column)
                for pair in self.secondary
            )
            context.send(attribute_vertex_id, (side, secondary_values, decoded))

    # superstep 2: combine at the join-attribute vertex -------------------
    def _combine(self, vertex: Vertex, messages: List[Any], context) -> None:
        context.charge(len(messages))
        left_by_secondary: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        right_by_secondary: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        for side, secondary_values, tuple_data in messages:
            bucket = left_by_secondary if side == "left" else right_by_secondary
            bucket.setdefault(secondary_values, []).append(tuple_data)

        # Section 4.2: intersect the secondary attribute values of both sides
        agreeing = set(left_by_secondary) & set(right_by_secondary)
        if self.factorized:
            for key in agreeing:
                self.factorized_output.append(
                    {
                        "join_value": vertex.properties.get("value"),
                        "secondary": key,
                        "left": left_by_secondary[key],
                        "right": right_by_secondary[key],
                    }
                )
            context.charge(len(agreeing))
            return
        for key in agreeing:
            for left_tuple in left_by_secondary[key]:
                for right_tuple in right_by_secondary[key]:
                    row = _qualify(self.left_table, left_tuple)
                    row.update(_qualify(self.right_table, right_tuple))
                    self.output.append(row)
                    context.charge()

    def result(self, graph: Graph, aggregators) -> List[Dict[str, Any]]:
        return self.factorized_output if self.factorized else self.output


class SemiJoinProgram(VertexProgram):
    """R ⋉ S: the R-tuples that join with at least one S-tuple (Section 7).

    Supersteps: R-tuples ping their join-attribute vertex; the attribute
    vertex answers only when it also has an ``S.B`` edge; R-tuples that
    receive an answer form the result.
    """

    def __init__(
        self,
        graph: TagGraph,
        left_table: str,
        right_table: str,
        left_column: str,
        right_column: str,
        negated: bool = False,
    ) -> None:
        self.graph = graph
        self.left_table = left_table
        self.right_table = right_table
        self.left_label = edge_label(left_table, left_column)
        self.right_label = edge_label(right_table, right_column)
        self.left_column = left_column
        self.negated = negated
        self.matched: Set[str] = set()

    def initial_active_vertices(self, graph: Graph):
        return graph.vertices_with_label(self.left_table)

    def compute(self, vertex: Vertex, messages: List[Any], graph: Graph, context) -> None:
        if context.superstep == 0:
            targets = graph.edge_targets(vertex.vertex_id, self.left_label)
            context.charge(len(targets))
            for target in targets:
                context.send(target, vertex.vertex_id)
        elif context.superstep == 1:
            has_right = graph.out_degree(vertex.vertex_id, self.right_label) > 0
            context.charge(len(messages))
            if has_right:
                for sender in messages:
                    context.send(sender, True)
        elif context.superstep == 2:
            self.matched.add(vertex.vertex_id)

    def result(self, graph: Graph, aggregators) -> List[Dict[str, Any]]:
        rows = []
        for vertex_id in graph.vertices_with_label(self.left_table):
            vertex = graph.vertex(vertex_id)
            in_result = vertex_id in self.matched
            if self.negated:
                in_result = not in_result
            if in_result:
                rows.append(dict(self.graph.decoded_tuple_data(vertex)))
        return rows


class AntiJoinProgram(SemiJoinProgram):
    """R ▷ S: the R-tuples with no matching S-tuple (NOT EXISTS semantics)."""

    def __init__(
        self,
        graph: TagGraph,
        left_table: str,
        right_table: str,
        left_column: str,
        right_column: str,
    ) -> None:
        super().__init__(graph, left_table, right_table, left_column, right_column, negated=True)


class OuterJoinProgram(VertexProgram):
    """Two-way left / right / full outer join (paper Section 7, Outer Joins).

    The attribute vertex keeps computing when the preserved side is present
    even if the other side is missing, padding the missing side with NULLs.
    Dangling tuples of the preserved side whose join value has *no*
    attribute vertex connection at all (NULL join key) are added during
    result assembly, as the paper's full-outer-join discussion prescribes.
    """

    def __init__(
        self,
        graph: TagGraph,
        left_table: str,
        right_table: str,
        left_column: str,
        right_column: str,
        kind: OuterJoinKind = OuterJoinKind.LEFT,
    ) -> None:
        self.graph = graph
        self.left_table = left_table
        self.right_table = right_table
        self.left_column = left_column
        self.right_column = right_column
        self.kind = kind
        self.left_label = edge_label(left_table, left_column)
        self.right_label = edge_label(right_table, right_column)
        self.output: List[Dict[str, Any]] = []
        self._matched_left: Set[str] = set()
        self._matched_right: Set[str] = set()

    def initial_active_vertices(self, graph: Graph):
        return (
            self.graph.attribute_adjacency(self.left_label).keys()
            | self.graph.attribute_adjacency(self.right_label).keys()
        )

    def compute(self, vertex: Vertex, messages: List[Any], graph: Graph, context) -> None:
        if context.superstep == 0:
            left_targets = graph.edge_targets(vertex.vertex_id, self.left_label)
            right_targets = graph.edge_targets(vertex.vertex_id, self.right_label)
            context.charge(len(left_targets) + len(right_targets))
            keep = False
            if self.kind is OuterJoinKind.LEFT:
                keep = bool(left_targets)
            elif self.kind is OuterJoinKind.RIGHT:
                keep = bool(right_targets)
            else:
                keep = bool(left_targets or right_targets)
            if not keep:
                return
            for target in left_targets:
                context.send(target, (vertex.vertex_id, "left"))
            for target in right_targets:
                context.send(target, (vertex.vertex_id, "right"))
        elif context.superstep == 1:
            tuple_data = vertex.properties.get(TUPLE_DATA_KEY)
            if tuple_data is None:
                return
            context.charge(len(messages))
            decoded = dict(self.graph.decoded_tuple_data(vertex))
            for attribute_vertex_id, side in messages:
                context.send(attribute_vertex_id, (side, vertex.vertex_id, decoded))
        elif context.superstep == 2:
            left_rows = [(vid, data) for side, vid, data in messages if side == "left"]
            right_rows = [(vid, data) for side, vid, data in messages if side == "right"]
            context.charge(len(messages))
            self._matched_left.update(vid for vid, _ in left_rows if right_rows)
            self._matched_right.update(vid for vid, _ in right_rows if left_rows)
            if left_rows and right_rows:
                for _lvid, left_data in left_rows:
                    for _rvid, right_data in right_rows:
                        row = _qualify(self.left_table, left_data)
                        row.update(_qualify(self.right_table, right_data))
                        self.output.append(row)
            elif left_rows and self.kind in (OuterJoinKind.LEFT, OuterJoinKind.FULL):
                for _lvid, left_data in left_rows:
                    self.output.append(self._padded(left_data, left_side=True))
            elif right_rows and self.kind in (OuterJoinKind.RIGHT, OuterJoinKind.FULL):
                for _rvid, right_data in right_rows:
                    self.output.append(self._padded(right_data, left_side=False))

    def _padded(self, data: Dict[str, Any], left_side: bool) -> Dict[str, Any]:
        if left_side:
            row = _qualify(self.left_table, data)
            other_schema = self._schema_columns(self.right_table)
            row.update({f"{self.right_table}.{column}": NULL for column in other_schema})
        else:
            row = _qualify(self.right_table, data)
            other_schema = self._schema_columns(self.left_table)
            row.update({f"{self.left_table}.{column}": NULL for column in other_schema})
        return row

    def _schema_columns(self, table: str) -> List[str]:
        vertices = self.graph.tuple_vertices_of(table)
        if not vertices:
            return []
        sample = self.graph.vertex(vertices[0])
        return list(sample.properties[TUPLE_DATA_KEY])

    def result(self, graph: Graph, aggregators) -> List[Dict[str, Any]]:
        # add preserved-side tuples whose join key was NULL (never activated)
        preserve_left = self.kind in (OuterJoinKind.LEFT, OuterJoinKind.FULL)
        preserve_right = self.kind in (OuterJoinKind.RIGHT, OuterJoinKind.FULL)
        rows = list(self.output)
        if preserve_left:
            for vertex_id in graph.vertices_with_label(self.left_table):
                vertex = graph.vertex(vertex_id)
                # decode before the NULL test: encoded columns hold an
                # in-band sentinel, never the Python NULL itself
                data = self.graph.decoded_tuple_data(vertex)
                if data.get(self.left_column) is NULL:
                    rows.append(self._padded(dict(data), left_side=True))
        if preserve_right:
            for vertex_id in graph.vertices_with_label(self.right_table):
                vertex = graph.vertex(vertex_id)
                data = self.graph.decoded_tuple_data(vertex)
                if data.get(self.right_column) is NULL:
                    rows.append(self._padded(dict(data), left_side=False))
        return rows
