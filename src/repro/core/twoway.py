"""Vertex-centric two-way joins over a TAG graph (paper Section 4).

:class:`TwoWayJoinProgram` is the self-contained building block of the
paper's exposition: the natural equi-join of two relations on one or more
attributes.  Single-attribute joins follow Section 4.1 (three supersteps:
reduce, collect values, combine); multi-attribute joins add the Section
4.2 adjustment where one join attribute coordinates and intersects the
remaining attribute values from both sides.  The result can be produced
*factorized* (per join value, the two tuple lists) or *unfactorized*
(their Cartesian product), which drives the A01 ablation.

No engine runs it: the general multi-way algorithm lives in
:mod:`repro.exec.program` (and its reference, :mod:`repro.core.vertex_program`);
this program is used directly by unit tests, property tests and the
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..bsp.engine import VertexProgram
from ..bsp.graph import Graph, Vertex
from ..tag.encoder import TagGraph, edge_label


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
        tuple_data = self.graph.encoded_row(vertex)
        # secondary intersection keys stay *encoded* (code equality is value
        # equality under the catalog-global dictionary); the tuple itself
        # is decoded here because these rows go straight to the user
        catalog = self.graph.catalog
        decoded = catalog.encoding.codec_for(catalog.schema(vertex.label)).decode_values(
            tuple_data
        )
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
                        "join_value": self.graph.attribute_value(vertex),
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
