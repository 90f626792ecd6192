"""Worst-case-optimal vertex-centric evaluation of cycle queries (Section 6).

Implements the paper's triangle algorithm (Section 6.1) and its
generalisation to n-way cycles (Section 6.2):

* the computation starts at the attribute vertices of the first join
  variable ``X1`` and classifies each value as **heavy** (it occurs in more
  than ``theta`` tuples of ``R1``) or **light**;
* heavy values propagate their identity in both directions around the
  cycle, meeting at the attribute vertices of ``X_{ceil(n/2)+1}``;
* light values wake up their ``R1`` tuples, which start per-tuple
  propagations instead — bounding the replication by ``theta`` (equation
  (3) of the paper);
* the meeting vertices intersect what arrived from the two directions and
  emit the output tuples of every closed cycle.

With ``theta = sqrt(IN)`` the total message count stays within the AGM
bound (``IN^{3/2}`` for triangles, ``IN^{n/2}`` for n-cycles), which the
property-based tests assert.  Setting ``theta`` to +inf degenerates into
the "vanilla" algorithm of Section 6.1.1 (optimal for PK-FK joins), which
is what the theta-sweep ablation benchmark exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import Expression
from ..bsp.engine import VertexProgram
from ..bsp.graph import Graph, Vertex
from ..tag.encoder import TagGraph, edge_label
from . import operations as ops


@dataclass(frozen=True)
class CycleRelation:
    """One relation of a cycle query.

    ``back_column`` joins with the previous relation in the cycle (variable
    ``X_i``), ``forward_column`` with the next one (variable ``X_{i+1}``);
    the last relation's forward column closes the cycle on ``X_1``.
    """

    alias: str
    table: str
    back_column: str
    forward_column: str


@dataclass(frozen=True)
class _Hop:
    """One hop of a propagation path: who receives and along which label."""

    label: str  # graph edge label the *previous* node sends along
    kind: str  # "relation" or "attribute"
    alias: Optional[str] = None  # for relation hops


# context.state(vertex) key at the meeting vertices (run-scoped, not on the graph)
_MEET_KEY = "cycle_meet"


class CycleQueryProgram(VertexProgram):
    """Evaluate ``R1(X1,X2) ⋈ R2(X2,X3) ⋈ ... ⋈ Rn(Xn,X1)`` over a TAG graph."""

    def __init__(
        self,
        graph: TagGraph,
        relations: Sequence[CycleRelation],
        filters: Optional[Dict[str, List[Expression]]] = None,
        theta: Optional[float] = None,
        required_columns: Optional[Dict[str, Optional[Set[str]]]] = None,
    ) -> None:
        if len(relations) < 3:
            raise ValueError("a cycle query needs at least three relations")
        self.graph = graph
        self.relations = list(relations)
        self.filters = filters or {}
        self.required_columns = required_columns or {}
        total_input = sum(
            len(graph.tuple_vertices_of(relation.table)) for relation in self.relations
        )
        self.theta = theta if theta is not None else math.sqrt(max(1, total_input))
        self.output_rows: List[Dict[str, Any]] = []
        self._build_paths()

    # ------------------------------------------------------------------
    # path construction
    # ------------------------------------------------------------------
    def _build_paths(self) -> None:
        relations = self.relations
        n = len(relations)
        meet_index = math.ceil(n / 2) + 1  # 1-based variable index X_m

        # left path: X1 -> R1 -> X2 -> R2 -> ... -> X_m
        left: List[_Hop] = []
        for i in range(meet_index - 1):  # relations R1 .. R_{m-1}
            relation = relations[i]
            left.append(
                _Hop(edge_label(relation.table, relation.back_column), "relation", relation.alias)
            )
            left.append(_Hop(edge_label(relation.table, relation.forward_column), "attribute"))

        # right path: X1 -> Rn -> Xn -> R_{n-1} -> ... -> X_m
        right: List[_Hop] = []
        for i in range(n - 1, meet_index - 2, -1):  # relations Rn .. R_m
            relation = relations[i]
            right.append(
                _Hop(
                    edge_label(relation.table, relation.forward_column), "relation", relation.alias
                )
            )
            right.append(_Hop(edge_label(relation.table, relation.back_column), "attribute"))

        self._paths: Dict[str, List[_Hop]] = {"L": left, "R": right}
        self._first_relation = relations[0]
        self._start_label = edge_label(
            self._first_relation.table, self._first_relation.back_column
        )

    # ------------------------------------------------------------------
    def initial_active_vertices(self, graph: Graph):
        """The X1 attribute vertices (values appearing in R1's back column)."""
        return list(self.graph.attribute_adjacency(self._start_label))

    def compute(self, vertex: Vertex, messages: List[Any], graph: Graph, context) -> None:
        if context.superstep == 0:
            self._start(vertex, graph, context)
            return
        for message in messages:
            self._process(vertex, message, graph, context)

    # ------------------------------------------------------------------
    # superstep 0: heavy/light classification at the X1 attribute vertices
    # ------------------------------------------------------------------
    def _start(self, vertex: Vertex, graph: Graph, context) -> None:
        degree = graph.out_degree(vertex.vertex_id, self._start_label)
        context.charge(degree)
        if degree == 0:
            return
        if degree > self.theta:
            # heavy: propagate the value's identity in both directions
            origin = ("heavy", vertex.vertex_id)
            self._forward(vertex, graph, context, "L", origin, hop_index=0, rows=[{}])
            self._forward(vertex, graph, context, "R", origin, hop_index=0, rows=[{}])
        else:
            # light: wake up the R1 tuples; they start per-tuple propagations
            for target in graph.edge_targets(vertex.vertex_id, self._start_label):
                context.send(target, ("WAKE", vertex.vertex_id))
                context.charge()

    # ------------------------------------------------------------------
    def _process(self, vertex: Vertex, message: Tuple, graph: Graph, context) -> None:
        kind = message[0]
        if kind == "WAKE":
            self._wake(vertex, graph, context)
            return
        if kind == "FWD":
            # relay: forward the rows along the given path position without
            # processing a hop (used by light tuples to bounce off X1)
            _tag, direction, origin, hop_index, rows = message
            self._forward(vertex, graph, context, direction, origin, hop_index, rows)
            return
        _tag, direction, origin, hop_index, rows = message
        path = self._paths[direction]
        hop = path[hop_index]
        context.charge(len(rows))

        if hop.kind == "relation":
            tuple_data = self.graph.encoded_row(vertex)
            if not self._passes(hop.alias, tuple_data):
                return
            own_row = ops.project_tuple(
                hop.alias, tuple_data, self.required_columns.get(hop.alias)
            )
            extended = [ops.merge_rows(row, own_row) for row in rows]
            self._forward(vertex, graph, context, direction, origin, hop_index + 1, extended)
            return

        # attribute hop
        if hop_index == len(path) - 1:
            self._meet(vertex, direction, origin, rows, context)
        else:
            self._forward(vertex, graph, context, direction, origin, hop_index + 1, rows)

    def _wake(self, vertex: Vertex, graph: Graph, context) -> None:
        """A light R1 tuple starts its own propagation (origin = its vertex id)."""
        relation = self._first_relation
        tuple_data = self.graph.encoded_row(vertex)
        if not self._passes(relation.alias, tuple_data):
            return
        own_row = ops.project_tuple(
            relation.alias, tuple_data, self.required_columns.get(relation.alias)
        )
        origin = ("light", vertex.vertex_id)
        # left: continue from X2 onwards (hop index 1 in the left path)
        self._forward(vertex, graph, context, "L", origin, hop_index=1, rows=[own_row])
        # right: bounce off the X1 attribute vertex, which relays into Rn
        for target in graph.edge_targets(
            vertex.vertex_id, edge_label(relation.table, relation.back_column)
        ):
            context.send(target, ("FWD", "R", origin, 0, [own_row]))
            context.charge()

    def _forward(
        self,
        vertex: Vertex,
        graph: Graph,
        context,
        direction: str,
        origin: Tuple[str, str],
        hop_index: int,
        rows: List[Dict[str, Any]],
    ) -> None:
        path = self._paths[direction]
        if hop_index >= len(path) or not rows:
            return
        label = path[hop_index].label
        targets = graph.edge_targets(vertex.vertex_id, label)
        context.charge(len(targets))
        for target in targets:
            context.send(target, ("MSG", direction, origin, hop_index, rows))

    # ------------------------------------------------------------------
    # the meeting attribute vertices intersect both directions
    # ------------------------------------------------------------------
    def _meet(
        self,
        vertex: Vertex,
        direction: str,
        origin: Tuple[str, str],
        rows: List[Dict[str, Any]],
        context,
    ) -> None:
        store = context.state(vertex).setdefault(_MEET_KEY, {"L": {}, "R": {}})
        other = "R" if direction == "L" else "L"
        # join the new arrivals against what the other direction already sent
        other_rows = store[other].get(origin, [])
        for new_row in rows:
            for existing_row in other_rows:
                combined = ops.merge_rows(new_row, existing_row)
                if self._closes_cycle(combined):
                    self.output_rows.append(combined)
                    context.charge()
        store[direction].setdefault(origin, []).extend(rows)

    def _closes_cycle(self, row: Dict[str, Any]) -> bool:
        """Verify every join condition of the cycle on an assembled row.

        The propagation already enforces the conditions along each path;
        this re-check also enforces the two conditions at the junctions
        (X1 and X_m), which is what makes the meet an intersection.
        """
        relations = self.relations
        n = len(relations)
        for index, relation in enumerate(relations):
            next_relation = relations[(index + 1) % n]
            left_value = row.get(f"{relation.alias}.{relation.forward_column}")
            right_value = row.get(f"{next_relation.alias}.{next_relation.back_column}")
            if left_value is None or right_value is None or left_value != right_value:
                return False
        return True

    # ------------------------------------------------------------------
    def _passes(self, alias: str, tuple_data: Dict[str, Any]) -> bool:
        predicates = self.filters.get(alias)
        if not predicates:
            return True
        row = ops.row_context_for_tuple(alias, tuple_data)
        return ops.passes_filters(row, predicates)

    def result(self, graph: Graph, aggregators) -> List[Dict[str, Any]]:
        return self.output_rows


class TriangleQueryProgram(CycleQueryProgram):
    """The triangle query R(A,B) ⋈ S(B,C) ⋈ T(C,A) (paper Section 6.1)."""

    def __init__(
        self,
        graph: TagGraph,
        r: Tuple[str, str, str],
        s: Tuple[str, str, str],
        t: Tuple[str, str, str],
        theta: Optional[float] = None,
        filters: Optional[Dict[str, List[Expression]]] = None,
    ) -> None:
        """Each of ``r``, ``s``, ``t`` is ``(table, back_column, forward_column)``.

        For the canonical triangle: ``r = ("R", "A", "B")``, ``s = ("S", "B",
        "C")``, ``t = ("T", "C", "A")``.
        """
        relations = [
            CycleRelation(alias=r[0], table=r[0], back_column=r[1], forward_column=r[2]),
            CycleRelation(alias=s[0], table=s[0], back_column=s[1], forward_column=s[2]),
            CycleRelation(alias=t[0], table=t[0], back_column=t[1], forward_column=t[2]),
        ]
        super().__init__(graph, relations, filters=filters, theta=theta)
