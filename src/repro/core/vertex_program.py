"""The TAG-join vertex program: paper Algorithm 2 plus result assembly.

One :class:`TagJoinProgram` instance executes one tree-shaped query
fragment over a TAG graph in three phases driven by the traversal schedule
produced from the TAG plan (Section 5):

* **reduction, bottom-up** — vertices send their id along the current
  step's edge label; recipients that pass their pushed-down filters mark
  the plan edge with the sender ids (a vertex-centric Yannakakis reducer,
  Lemma 5.1).  A step crossing its plan edge for the first time sends
  along every edge; an ascent back over an edge the pass has just
  descended sends only along the marks, so a parent stays reduced by the
  sibling subtrees visited before (a running semijoin);
* **reduction, top-down** — the reversed schedule; messages only travel
  along marked edges, completing the full reduction;
* **collection, bottom-up** — vertices propagate partial result tables
  along marked edges; tuple vertices join the incoming table with their
  own tuple, attribute vertices union the pieces flowing through them.
  Right after a merge, the vertex drops the rows failing the residual
  conditions the compiler placed at that step (the conditions no tree
  edge enforces, checked as soon as their aliases meet).

After the last collection step the vertices holding the plan root's values
assemble the output: plain rows for join queries, per-group aggregates for
local aggregation (each group lives at its GROUP BY attribute vertex), or
partial aggregates sent to a global aggregator vertex for global / scalar
aggregation (Section 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import Expression
from ..algebra.logical import AggregateSpec, AggregationClass, OutputColumn
from ..bsp.aggregators import GroupAggregator
from ..bsp.engine import BSPEngine, SuperstepContext, VertexProgram
from ..bsp.graph import Graph, Vertex, VertexId
from ..tag.encoder import TagGraph, tuple_vertex_id
from . import operations as ops
from .tag_plan import PlanNode, TagPlan, TraversalStep


class Phase(enum.Enum):
    REDUCE_UP = "reduce_up"
    REDUCE_DOWN = "reduce_down"
    COLLECT = "collect"


#: every superstep's phase (:func:`superstep_phase`), in schedule order
PHASES = tuple(phase.value for phase in Phase) + ("final",)


@dataclass(frozen=True)
class ScheduledStep:
    """A traversal step tagged with the phase it belongs to.

    ``marked_only``: the step's senders send only along the edges their
    neighbours marked.  False only for a bottom-up reduction step crossing
    its plan edge for the first time.
    """

    phase: Phase
    step: TraversalStep
    marked_only: bool


#: Name of the global aggregator used for global / scalar aggregation.
GLOBAL_GROUPS_AGGREGATOR = "tagjoin:groups"

# context.state(vertex) keys — live in the run's RunState, never on the
# shared graph, so concurrent executions of one graph cannot interfere
_MARKED_KEY = "tj_marked"  # plan edge id -> set of neighbour vertex ids
_VALUE_KEY = "tj_value"  # plan node id -> list of result rows


def _provenance_key(alias: Optional[str]) -> str:
    """Hidden row key recording which tuple vertex contributed an alias's columns."""
    return f"__vid.{alias}"


@dataclass
class FragmentConfig:
    """Everything the vertex program needs to execute one query fragment."""

    plan: TagPlan
    schedule: List[ScheduledStep]
    alias_tables: Dict[str, str]
    filters: Dict[str, List[Expression]] = field(default_factory=dict)
    #: alias -> the columns its collection rows carry (None: every column)
    required_columns: Dict[str, Optional[Set[str]]] = field(default_factory=dict)
    #: schedule index of a collection step -> the residual conditions its
    #: merged rows must pass (see :func:`repro.core.compiler.place_residuals`)
    step_residuals: Dict[int, List[Expression]] = field(default_factory=dict)
    output_columns: List[OutputColumn] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    group_by_columns: List[str] = field(default_factory=list)  # qualified names
    aggregation_class: AggregationClass = AggregationClass.NONE
    eager_partial_aggregation: bool = True

    @property
    def start_node_id(self) -> str:
        if self.schedule:
            return self.schedule[0].step.source
        # single-node plans: the only relation node is both start and root
        relation_nodes = self.plan.relation_nodes()
        return relation_nodes[0].node_id

    @property
    def root_node_id(self) -> str:
        if self.schedule:
            return self.schedule[-1].step.target
        return self.start_node_id


def build_schedule(plan: TagPlan) -> List[ScheduledStep]:
    """Reduction (up, down) + collection (up) schedule for a plan."""
    from .tag_plan import reduction_schedule

    up_steps, down_steps = reduction_schedule(plan)
    schedule: List[ScheduledStep] = []
    crossed: Set[str] = set()
    for step in up_steps:
        schedule.append(ScheduledStep(Phase.REDUCE_UP, step, step.edge.edge_id in crossed))
        crossed.add(step.edge.edge_id)
    schedule.extend(ScheduledStep(Phase.REDUCE_DOWN, step, True) for step in down_steps)
    schedule.extend(ScheduledStep(Phase.COLLECT, step, True) for step in up_steps)
    return schedule


def carried_aliases(plan: TagPlan, schedule: Sequence[ScheduledStep]) -> Dict[int, FrozenSet[str]]:
    """Per collection step (schedule index), the aliases whose rows the
    table it sends already carries.

    Replays the collection schedule once: a relation source without a
    table yet sends its own row, a relation target adds its alias, an
    attribute target passes its input through.  A step whose target alias
    is already carried is an Euler re-ascent onto that alias.
    """
    held: Dict[str, FrozenSet[str]] = {}
    carried: Dict[int, FrozenSet[str]] = {}
    for index, scheduled in enumerate(schedule):
        if scheduled.phase is not Phase.COLLECT:
            continue
        step = scheduled.step
        target = plan.node(step.target)
        aliases = held.get(step.source) or frozenset({plan.node(step.source).alias})
        carried[index] = aliases
        held[step.target] = aliases | {target.alias} if target.is_relation else aliases
    return carried


def superstep_phase(schedule: Sequence[ScheduledStep], superstep: int) -> str:
    """The phase of the step superstep ``superstep`` sends, or ``"final"``
    for the superstep that assembles the output."""
    return schedule[superstep].phase.value if superstep < len(schedule) else "final"


class TagJoinProgram(VertexProgram):
    """Vertex-centric evaluation of one tree-shaped query fragment (Algorithm 2).

    ``alias_members`` pins an alias to those 1-based tuple indexes, as the
    kernel's argument of that name does (a subquery's forward lookup).
    """

    def __init__(
        self,
        graph: TagGraph,
        config: FragmentConfig,
        alias_members: Optional[Dict[str, AbstractSet[int]]] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.alias_members = alias_members or {}
        self.output_rows: List[Dict[str, Any]] = []
        self.local_groups: List[Dict[str, Any]] = []
        self._start_node = config.plan.node(config.start_node_id)
        self._root_node = config.plan.node(config.root_node_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def before_superstep(self, superstep: int, graph: Graph, context: SuperstepContext) -> None:
        context.phase = superstep_phase(self.config.schedule, superstep)

    def initial_active_vertices(self, graph: Graph):
        """Activate the tuple vertices of the start relation (rightmost leaf)."""
        start = self._start_node
        if not start.is_relation:
            raise ValueError("the TAG plan traversal must start at a relation node")
        pinned = self.alias_members.get(start.alias)
        if pinned is None:
            candidates = graph.vertices_with_label(start.table)
        else:
            ids = (tuple_vertex_id(start.table, index) for index in sorted(pinned))
            candidates = [vertex_id for vertex_id in ids if graph.has_vertex(vertex_id)]
        if not self.config.filters.get(start.alias):
            return candidates
        passing = []
        for vertex_id in candidates:
            vertex = graph.vertex(vertex_id)
            if self._tuple_passes_filters(vertex, start.alias):
                passing.append(vertex_id)
        return passing

    def compute(
        self,
        vertex: Vertex,
        messages: List[Any],
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        superstep = context.superstep
        schedule = self.config.schedule

        if superstep == 0:
            # initial active set: no incoming messages, send for step 0 (or
            # assemble immediately for single-relation plans).
            if not schedule:
                self._assemble(vertex, self._initial_value(vertex, self._start_node), context)
                return
            self._send(vertex, schedule[0], context)
            return

        received = schedule[superstep - 1]
        accepted = self._receive(vertex, superstep - 1, messages, context)
        if not accepted:
            return
        if superstep < len(schedule):
            self._send(vertex, schedule[superstep], context)
        else:
            # final superstep: the root's values are complete at this vertex
            rows = context.state(vertex).get(_VALUE_KEY, {}).get(received.step.target, [])
            self._assemble(vertex, rows, context)

    # ------------------------------------------------------------------
    # receive logic
    # ------------------------------------------------------------------
    def _receive(
        self,
        vertex: Vertex,
        step_index: int,
        messages: List[Any],
        context: SuperstepContext,
    ) -> bool:
        scheduled = self.config.schedule[step_index]
        step = scheduled.step
        target_node = self.config.plan.node(step.target)
        context.charge(len(messages))

        if scheduled.phase in (Phase.REDUCE_UP, Phase.REDUCE_DOWN):
            if target_node.is_relation and not self._tuple_passes_filters(
                vertex, target_node.alias
            ):
                return False
            marked = context.state(vertex).setdefault(_MARKED_KEY, {})
            marked[step.edge.edge_id] = set(messages)
            return True

        # collection phase: messages are partial result tables
        incoming: List[Dict[str, Any]] = []
        for table in messages:
            incoming.extend(table)
        if target_node.is_relation:
            # the paper's line 36 (v.value ⋈ {v.data}): joining the incoming
            # table with the vertex's own tuple keeps only the rows whose
            # contribution for this alias *is* this tuple.  Rows flowing back
            # from a sibling subtree may have been seeded by a different
            # tuple of the same relation sharing this join value; the
            # provenance tag added by ``_own_row`` identifies and drops them.
            own_row = self._own_row(vertex, target_node)
            provenance = _provenance_key(target_node.alias)
            if incoming:
                rows = [
                    ops.merge_rows(row, own_row)
                    for row in incoming
                    if row.get(provenance, vertex.vertex_id) == vertex.vertex_id
                ]
            else:
                rows = [own_row]
        else:
            rows = incoming
        residuals = self.config.step_residuals.get(step_index)
        if residuals:
            rows = ops.rows_passing(rows, residuals)
        context.charge(len(rows))
        values = context.state(vertex).setdefault(_VALUE_KEY, {})
        values[step.target] = rows
        return True

    # ------------------------------------------------------------------
    # send logic
    # ------------------------------------------------------------------
    def _send(
        self,
        vertex: Vertex,
        scheduled: ScheduledStep,
        context: SuperstepContext,
    ) -> None:
        step = scheduled.step
        targets = self.graph.edge_targets(vertex.vertex_id, step.label)
        if scheduled.marked_only:
            # in adjacency order, never in the marks' set order
            marked: Set[VertexId] = (
                context.state(vertex).get(_MARKED_KEY, {}).get(step.edge.edge_id, set())
            )
            targets = [target for target in targets if target in marked]
        context.charge(len(targets))

        if scheduled.phase is not Phase.COLLECT:
            for target in targets:
                context.send(target, vertex.vertex_id)
            return

        # collection phase: propagate this node's value along marked edges
        source_node = self.config.plan.node(step.source)
        values = context.state(vertex).get(_VALUE_KEY, {})
        table = values.get(step.source)
        if table is None and source_node.is_relation:
            table = [self._own_row(vertex, source_node)]
        if not table:
            return
        for target in targets:
            context.send(target, table)

    # ------------------------------------------------------------------
    # result assembly (runs at the vertices holding the plan root's values)
    # ------------------------------------------------------------------
    def _assemble(
        self,
        vertex: Vertex,
        rows: List[Dict[str, Any]],
        context: SuperstepContext,
    ) -> None:
        config = self.config
        if not rows:
            return
        context.charge(len(rows))

        if config.aggregation_class is AggregationClass.NONE:
            self.output_rows.extend(
                [ops.evaluate_output_columns(config.output_columns, row) for row in rows]
            )
            return

        if config.aggregation_class is AggregationClass.LOCAL:
            # each group lives entirely at this attribute vertex
            partial = ops.partial_of_rows(config.aggregates, rows)
            final = ops.finalize_partial(partial, config.aggregates)
            group_row = ops.evaluate_output_columns(config.output_columns, rows[0])
            group_row.update(final)
            self.local_groups.append(group_row)
            return

        # GLOBAL / SCALAR: contribute to the global aggregator vertex
        if config.eager_partial_aggregation:
            by_group: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
            sample_rows: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
            for row in rows:
                key = ops.group_key(config.group_by_columns, row)
                if key in by_group:
                    by_group[key] = ops.accumulate_partial(by_group[key], config.aggregates, row)
                else:
                    by_group[key] = ops.accumulate_partial(
                        ops.empty_partial(config.aggregates), config.aggregates, row
                    )
                    sample_rows[key] = row
            for key, partial in by_group.items():
                context.aggregate(
                    GLOBAL_GROUPS_AGGREGATOR,
                    (key, {"partial": partial, "sample": sample_rows[key]}),
                )
        else:
            # lazy variant (ablation A03): ship every raw row to the aggregator
            for row in rows:
                key = ops.group_key(config.group_by_columns, row)
                partial = ops.accumulate_partial(
                    ops.empty_partial(config.aggregates), config.aggregates, row
                )
                context.aggregate(
                    GLOBAL_GROUPS_AGGREGATOR, (key, {"partial": partial, "sample": row})
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tuple_passes_filters(self, vertex: Vertex, alias: Optional[str]) -> bool:
        if alias is None:
            return True
        members = self.alias_members.get(alias)
        if members is not None and vertex.index not in members:
            return False
        predicates = self.config.filters.get(alias)
        if not predicates:
            return True
        row = ops.row_context_for_tuple(alias, self.graph.encoded_row(vertex))
        return ops.passes_filters(row, predicates)

    def _own_row(self, vertex: Vertex, node: PlanNode) -> Dict[str, Any]:
        columns = self.config.required_columns.get(node.alias)
        row = ops.project_tuple(node.alias, self.graph.encoded_row(vertex), columns)
        row[_provenance_key(node.alias)] = vertex.vertex_id
        return row

    def _initial_value(self, vertex: Vertex, node: PlanNode) -> List[Dict[str, Any]]:
        if not self._tuple_passes_filters(vertex, node.alias):
            return []
        return [self._own_row(vertex, node)]

    # ------------------------------------------------------------------
    def result(self, graph: Graph, aggregators) -> Dict[str, Any]:
        return {
            "output_rows": self.output_rows,
            "local_groups": self.local_groups,
        }


def register_group_aggregator(engine: BSPEngine, aggregates: Sequence[AggregateSpec]) -> None:
    """Register the global GROUP BY aggregator used by GA / scalar queries."""

    def combine(current: Dict[str, Any], update: Dict[str, Any]) -> Dict[str, Any]:
        if current == 0:  # the GroupAggregator's neutral element
            return update
        merged = ops.merge_partials(current["partial"], update["partial"], list(aggregates))
        return {"partial": merged, "sample": current["sample"]}

    engine.register_aggregator(GroupAggregator(GLOBAL_GROUPS_AGGREGATOR, combine=combine))
