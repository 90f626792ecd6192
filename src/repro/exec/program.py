"""The production TAG-join vertex program: Algorithm 2 over size-adaptive tables.

:class:`TagJoinKernel` executes the three-phase schedule the paper gives
as Algorithm 2 — bottom-up reduction, top-down reduction, bottom-up
collection, then result assembly at the vertices holding the plan root's
values.  It is what the ``tag`` engine runs; the dict-row
:class:`~repro.core.vertex_program.TagJoinProgram` behind the ``tag_dict``
engine is the independent reference it is tested against.

The bottom-up reduction is a **running semijoin**: only a step crossing
its plan edge for the first time sends along every edge; every other
step sends along the edges its neighbours marked (``marked_only``).  So a
tuple pruned by one sibling subtree is not revived by the next, and the
root ends reduced by every subtree (Yannakakis; the paper's Lemma 5.1).
A vertex sending along marks is charged one compute unit per marked
edge, scanned in adjacency order, never in the marks' set order.

Every intermediate result table is shaped by the compile-time
:class:`~repro.exec.fragment.SlottedFragment` and lives in one of two
forms, chosen per table from its observed size:

* **tuple rows** (``List[SlottedRow]``) — how every table starts.  A merge
  is a tuple concatenation or a slot-indexed provenance check; the
  residual checks after a merge, outputs and aggregates are slot-compiled
  closures.
  numpy's fixed per-array cost is never recouped by a three-row table,
  and most TAG tables are that small (a leaf relation vertex's own row,
  an attribute vertex's handful of children).
* **column batches** (:class:`~repro.exec.vectorized.batch.ColumnBatch`) —
  what a table becomes at the first receive whose combined input reaches
  :data:`COLUMNAR_THRESHOLD` rows, and stays (tables only grow along the
  collection phase).  The TAG topology is the hash bucketing of the join,
  so each merge is a per-bucket gather-join: a boolean provenance mask,
  or ``repeat``-broadcasts of the vertex's own values;
  residual checks, outputs, GROUP BY keys and aggregate arguments evaluate
  as whole-column expressions.

Both forms run the same supersteps, send the same messages and charge the
same compute units, and rows crossing any boundary (samples, result
tuples, aggregator payloads) are pure-Python values — so results do not
depend on which form a table took.

The kernel runs **frontier-at-a-time**: it implements
:meth:`~repro.bsp.engine.VertexProgram.compute_superstep`, so a superstep
is one receive loop and one send (or assembly) loop over the frontier, not
one ``compute`` call per vertex.  What a superstep shares — step, phase,
plan node, filter, collect action, plan-edge marks, the label's slice of
the adjacency index — is resolved once; payloads go straight into the next
inbox and the totals reach the context once.  A vertex still reads only
its own data, messages and out-edges, in frontier order, so the cost the
paper counts is exactly the vertex-at-a-time reference program's.

A plan over a **single relation** has no schedule and runs in superstep
0 only: the kernel reads the admitted frontier's rows, in frontier order,
into one table and folds it into one partial per group, as a TigerGraph
global accumulator combines inside the engine.  Sums stay sequential in
frontier order, so answers equal the reference's exactly.  Message bytes
come from the compiled plan (the byte model of :mod:`repro.bsp.metrics`),
and a superstep's aggregator payloads reach the context in one
``add_aggregates`` call, charged with the messages the vertex-at-a-time
reference sends: one per admitted vertex in that plan.

A tuple vertex is admitted or rejected by its alias's pushed-down filter
(the single-relation selections of Algorithm 2's reduction), and a cached
plan decides that **once per tuple**, not once per run: each
:class:`~repro.exec.fragment.AliasFilter` keeps a ``bytearray`` of
verdicts by physical position (unknown / pass / fail), filled lazily —
a position is judged the first time a run asks — and only ever appended
to.  That is sound because the row at a physical position never changes
through the write API: positions are append-only, deletes tombstone,
updates are a delete plus an append, and a rolled-back delete restores
the same row.  What can change it is keyed: the relation's
:attr:`~repro.relational.relation.Relation.layout_epoch` (redrawn where
positions are rewritten: a rolled-back append's truncate, compaction, a
re-encoded column store), the graph's ``generation`` (a re-encode after
an out-of-band edit builds a new graph) and the values bound to the
parameters the filter reads.  The kernel takes that key once, at
construction; a new key installs a fresh array and never clears one
another reader holds, so readers with different bindings never share
verdicts.  Admission charges no compute units either way.  Plans with
subquery filters are not cached, so their memo lives for one run.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..algebra.logical import AggregationClass
from ..bsp.aggregators import GroupAggregator
from ..bsp.engine import BSPEngine, SuperstepContext, VertexProgram
from ..bsp.graph import Graph, Vertex, VertexId
from ..bsp.metrics import TABLE_HEADER_BYTES, VERTEX_ID_BYTES
from ..core.vertex_program import (
    GLOBAL_GROUPS_AGGREGATOR,
    FragmentConfig,
    Phase,
    superstep_phase,
)
from ..tag.encoder import TagGraph, tuple_vertex_id
from .fragment import FAIL, PASS, UNKNOWN, AliasFilter, OwnRowSpec, SlottedFragment
from .operations import SlottedAggregates
from .schema import SlottedRow
from .vectorized.batch import ColumnBatch, full_column
from .vectorized.expr import as_mask
from .vectorized.fragment import VectorizedFragment
from .vectorized.operations import factorize_groups, first_row_output

#: Combined input size (rows) at which a collection step's table converts
#: from tuple rows to a :class:`ColumnBatch` — the only row-representation
#: selection left, made from the observed table size.  The regression
#: suites pin either side by patching this constant (0 = always columnar,
#: ``sys.maxsize`` = never); it is read once per program.
#:
#: Measured, per query, best-of-5 over {16, 32, 64, 128, 256, 1024, never}
#: then best-of-9 over {64, 128, 256, 512}, on the 46 TPC-H/TPC-DS-like
#: queries at scale 0.25 plus the three ``fanout_agg`` statements: the TPC
#: total is flat within noise from 16 to never (485-490 ms at 64-512) and
#: the fan-out total flat from 16 to 512 (111-114 ms; 332 ms at 1024, where
#: its 576-row second-level tables stay tuples; 563 ms never).  With the
#: totals flat the worst single query decides: at 64 ``ds.q65`` runs 1.33x
#: its best (38.8 vs 29.2 ms); at 128 the worst is ``h.q9`` at 1.09x (114
#: vs 105 ms); at 256 ``h.q9`` at 1.12x.
COLUMNAR_THRESHOLD = 128


class TagJoinKernel(VertexProgram):
    """Vertex-centric evaluation of one tree-shaped query fragment.

    ``output_rows`` / ``output_batches`` hold the assembled result rows of
    NONE-aggregation fragments (tuples shaped by ``slotted.output_columns``;
    read them through :meth:`result_tuples`) and ``local_groups`` the
    finalized LOCAL groups; the executor owns the conversion to public
    dict rows.
    """

    def __init__(
        self,
        graph: TagGraph,
        config: FragmentConfig,
        slotted: SlottedFragment,
        vectorized: VectorizedFragment,
        alias_members: Optional[Dict[str, Set[int]]] = None,
        alias_excluded: Optional[Dict[str, Set[int]]] = None,
    ) -> None:
        """
        Args:
            alias_members: optional per-alias tuple-index *membership* sets
                — an alias with an entry only accepts tuple vertices whose
                1-based tuple index (physical position + 1) is in the set.
                A view-refresh delta term pins its alias to exactly the
                written tuples this way.
            alias_excluded: optional per-alias tuple-index *exclusion* sets
                — an alias with an entry rejects tuple vertices whose index
                is in the set.  Delta terms keep earlier aliases on the
                ``Rⱼ − Xⱼ`` side of the telescoped product this way.

        Aliases without an entry see the full relation.
        """
        self.graph = graph
        self.config = config
        self.slotted = slotted
        self.vectorized = vectorized
        self.columnar_threshold = COLUMNAR_THRESHOLD
        self.alias_members = alias_members or {}
        self.alias_excluded = alias_excluded or {}
        self.output_rows: List[SlottedRow] = []
        self.output_batches: List[ColumnBatch] = []
        self.local_groups: List[SlottedRow] = []
        # this superstep's GLOBAL / SCALAR payloads (key, (partial, sample))
        self._contributions: List[Any] = []
        self._start_node = config.plan.node(config.start_node_id)
        # per relation alias, bound to the relation's rows and code arrays
        # as they are at run start (a cached plan outlives them): the
        # reader of a tuple vertex's own row, and the admission test of its
        # tuple vertices (restrictions, then the pushed-down filter; None =
        # all pass)
        self._own_row: Dict[str, Callable[[Vertex], SlottedRow]] = {}
        self._admit: Dict[str, Optional[Callable[[Vertex], bool]]] = {}
        for node in config.plan.relation_nodes():
            relation = graph.catalog.relation(node.table)
            self._own_row[node.alias] = own_row_reader(relation, slotted.own[node.alias])
            self._admit[node.alias] = self._admission(node.alias, relation)
        # run-scoped scratch, keyed by what the schedule names, then vertex:
        # plan edge id -> vertex id -> ids of the neighbours that marked it
        self._marked: Dict[str, Dict[VertexId, Set[VertexId]]] = {}
        # plan node id -> vertex id -> the node's table at that vertex
        self._values: Dict[str, Dict[VertexId, Any]] = {}

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
        admit = self._admit[start.alias]
        if admit is None:
            return graph.vertices_with_label(start.table)
        # an alias pinned to a member set seeds the frontier from those
        # indexes, ascending, instead of scanning the whole label
        pinned = self.alias_members.get(start.alias)
        if pinned is None:
            candidates: Iterable[VertexId] = graph.vertices_with_label(start.table)
        else:
            ids = (tuple_vertex_id(start.table, index) for index in sorted(pinned))
            candidates = [vertex_id for vertex_id in ids if graph.has_vertex(vertex_id)]
        return [vertex_id for vertex_id in candidates if admit(graph.vertex(vertex_id))]

    def compute_superstep(
        self,
        active: Collection[VertexId],
        inbox: Dict[VertexId, List[Any]],
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        schedule = self.config.schedule
        superstep = context.superstep
        if superstep == 0:
            # initial frontier: nothing delivered yet, send for step 0 (or
            # assemble the whole frontier at once for single-relation plans)
            if not schedule:
                self._assemble_frontier(active, graph, context)
                return
            senders = active
        else:
            senders = self._receive_frontier(superstep - 1, active, inbox, graph, context)
        if superstep < len(schedule):
            self._send_frontier(senders, superstep, graph, context)
            return
        # final superstep: the root's values are complete at these vertices;
        # each vertex sends the aggregator one message per contribution
        values = self._values.get(schedule[-1].step.target, {})
        contributions = self._contributions
        engine = context.engine
        partition_of = engine.partition_of if engine.num_workers > 1 else None
        crossing = 0
        for vertex_id in senders:
            before = len(contributions)
            self._assemble(values.get(vertex_id, []), context)
            if partition_of is not None and partition_of(vertex_id) != 0:
                crossing += len(contributions) - before
        self._contribute(len(contributions), crossing, context)

    def _assemble_frontier(
        self, active: Collection[VertexId], graph: Graph, context: SuperstepContext
    ) -> None:
        """Assemble a single-relation plan's frontier, already admitted by
        :meth:`initial_active_vertices`, as one table in frontier order;
        each vertex holds one row and is charged one aggregator message."""
        own_row = self._own_row[self._start_node.alias]
        rows = [own_row(vertex) for vertex in map(graph.vertex, active)]
        table = ColumnBatch.from_rows(rows) if len(rows) >= self.columnar_threshold else rows
        self._assemble(table, context)
        engine = context.engine
        crossing = 0
        if engine.num_workers > 1 and self._contributions:
            crossing = sum(1 for vertex_id in active if engine.partition_of(vertex_id) != 0)
        self._contribute(len(rows), crossing, context)

    def _contribute(self, messages: int, crossing: int, context: SuperstepContext) -> None:
        """Hand the superstep's aggregator payloads over, if any, charging
        ``messages`` (``crossing`` of them from off worker 0, the aggregator's)."""
        payloads, self._contributions = self._contributions, []
        if payloads:
            size = self.slotted.aggregate_bytes
            bulk = (messages, messages * size, crossing, crossing * size)
            context.add_aggregates(GLOBAL_GROUPS_AGGREGATOR, payloads, *bulk)

    # ------------------------------------------------------------------
    # receive: one loop over the frontier, returns the vertices that go on
    # ------------------------------------------------------------------
    def _receive_frontier(
        self,
        step_index: int,
        active: Collection[VertexId],
        inbox: Dict[VertexId, List[Any]],
        graph: Graph,
        context: SuperstepContext,
    ) -> Collection[VertexId]:
        scheduled = self.config.schedule[step_index]
        step = scheduled.step
        target_node = self.config.plan.node(step.target)
        graph_vertex = graph.vertex
        units = 0

        if scheduled.phase is not Phase.COLLECT:
            marked = self._marked.setdefault(step.edge.edge_id, {})
            admit = self._admit[target_node.alias] if target_node.is_relation else None
            accepted: List[VertexId] = []
            for vertex_id in active:
                messages = inbox[vertex_id]
                units += len(messages)
                if admit is None or admit(graph_vertex(vertex_id)):
                    marked[vertex_id] = set(messages)
                    accepted.append(vertex_id)
            context.charge(units)
            return accepted

        # collection: combine the incoming tables, then apply the compiled
        # step action in whichever form the combined table took
        values = self._values.setdefault(step.target, {})
        action = self.slotted.collect[step_index]
        combine = self._combine
        # attribute nodes (no merge) pass the union through; relation nodes
        # join it with the vertex's own tuple — the paper's line 36
        # (v.value ⋈ {v.data}), which keeps only the rows whose contribution
        # for this alias *is* this tuple.  Rows flowing back from a sibling
        # subtree may have been seeded by a different tuple of the same
        # relation sharing this join value; the provenance slot identifies
        # and drops them.
        # Right after the merge, the residual conditions placed at this step
        # drop the rows whose aliases have met but do not agree.
        own_row = self._own_row[target_node.alias] if action.at_relation else None
        prov_slot = action.prov_slot
        check = action.check
        batch_check = self.vectorized.checks.get(step_index)
        for vertex_id in active:
            messages = inbox[vertex_id]
            rows = combine(messages)
            if own_row is not None:
                vertex = graph_vertex(vertex_id)
                if not rows:
                    rows = [own_row(vertex)]
                elif prov_slot is not None:
                    # Euler re-ascent: keep the rows this very vertex seeded
                    rows = self._keep_own(rows, prov_slot, vertex.ordinal)
                elif type(rows) is ColumnBatch:
                    row = own_row(vertex)
                    rows = rows.with_appended([full_column(rows.length, value) for value in row])
                else:
                    # a zero-width own row (an alias only joined or filtered
                    # on) leaves the incoming rows as they are
                    row = own_row(vertex)
                    rows = [incoming + row for incoming in rows] if row else rows
            if check is not None and rows:
                if type(rows) is ColumnBatch:
                    rows = rows.mask(as_mask(batch_check(rows), rows))
                else:
                    rows = [row for row in rows if check(row)]
            values[vertex_id] = rows
            units += len(messages) + len(rows)
        context.charge(units)
        return active

    def _combine(self, messages: List[Any]) -> Any:
        """Union the incoming tables; columnar once any is, or at the threshold.

        Row order is message order in both forms (float SUMs accumulate
        left to right, so order is part of the exact-equality contract
        with the reference program).  A single incoming table — the common
        case at relation vertices — is consumed as-is; tables are never
        mutated after delivery, so sharing the sender's list is safe.
        """
        threshold = self.columnar_threshold
        if len(messages) == 1:
            table = messages[0]
            if type(table) is not ColumnBatch and len(table) >= threshold:
                return ColumnBatch.from_rows(table)
            return table
        batches: List[ColumnBatch] = []
        loose: List[SlottedRow] = []
        for table in messages:
            if type(table) is ColumnBatch:
                # columnarise the run of tuple tables before this batch in
                # one go: a table per message would pay numpy's per-array
                # cost once per sender
                if loose:
                    batches.append(ColumnBatch.from_rows(loose))
                    loose = []
                batches.append(table)
            else:
                loose.extend(table)
        if not batches and len(loose) < threshold:
            return loose
        if loose:
            batches.append(ColumnBatch.from_rows(loose))
        return ColumnBatch.concat(batches)

    @staticmethod
    def _keep_own(incoming: Any, prov_slot: int, ordinal: int) -> Any:
        """The rows of ``incoming`` whose provenance slot names this vertex."""
        if type(incoming) is ColumnBatch:
            return incoming.mask(np.equal(incoming.arrays[prov_slot], ordinal))
        return [row for row in incoming if row[prov_slot] == ordinal]

    # ------------------------------------------------------------------
    # send: one edge-map over the senders, straight into the next inbox
    # ------------------------------------------------------------------
    def _send_frontier(
        self,
        senders: Collection[VertexId],
        step_index: int,
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        scheduled = self.config.schedule[step_index]
        step = scheduled.step
        adjacency = graph.adjacency(step.label)
        outbox = context.outbox
        # a first crossing of the plan edge sends along every edge; every
        # other step only along the edges the neighbours marked
        marked = self._marked.get(step.edge.edge_id, {}) if scheduled.marked_only else None
        collecting = scheduled.phase is Phase.COLLECT
        if collecting:
            values = self._values.get(step.source, {})
            source_node = self.config.plan.node(step.source)
            own_row = self._own_row[source_node.alias] if source_node.is_relation else None
            row_bytes = self.slotted.sent_row_bytes[step_index]
        engine = context.engine
        partition_of = engine.partition_of if engine.num_workers > 1 else None
        units = messages = message_bytes = network_messages = network_bytes = 0

        for vertex_id in senders:
            targets = adjacency.get(vertex_id)
            if not targets:
                continue
            if marked is not None:
                # the marks are a subset of the adjacency; filter only when
                # some are missing, in adjacency order (never the set's)
                mine = marked.get(vertex_id)
                if not mine:
                    continue
                if len(mine) < len(targets):
                    targets = [target for target in targets if target in mine]
            units += len(targets)
            if collecting:
                # propagate this node's value: its table, or at the start
                # relation (no table yet) the vertex's own row
                payload = values.get(vertex_id)
                if payload is None and own_row is not None:
                    payload = [own_row(graph.vertex(vertex_id))]
                if not payload:
                    continue
                size = TABLE_HEADER_BYTES + len(payload) * row_bytes
            else:
                # the reduction passes ship the sender's id
                payload = vertex_id
                size = VERTEX_ID_BYTES
            for target in targets:
                outbox[target].append(payload)
            count = len(targets)
            messages += count
            message_bytes += count * size
            if partition_of is not None:
                home = partition_of(vertex_id)
                crossing = sum(1 for target in targets if partition_of(target) != home)
                network_messages += crossing
                network_bytes += crossing * size

        context.charge(units)
        context.add_messages(messages, message_bytes, network_messages, network_bytes)

    # ------------------------------------------------------------------
    # result assembly (runs at the vertices holding the plan root's values)
    # ------------------------------------------------------------------
    def _assemble(self, rows: Any, context: SuperstepContext) -> None:
        if type(rows) is ColumnBatch:
            self._assemble_batch(rows, context)
        else:
            self._assemble_rows(rows, context)

    def _assemble_rows(self, rows: List[SlottedRow], context: SuperstepContext) -> None:
        config = self.config
        slotted = self.slotted
        if not rows:
            return
        context.charge(len(rows))

        if config.aggregation_class is AggregationClass.NONE:
            output = slotted.output
            self.output_rows.extend([output(row) for row in rows])
            return

        aggregates = slotted.aggregates
        if config.aggregation_class is AggregationClass.LOCAL:
            # each group lives entirely at this attribute vertex
            partial = aggregates.empty()
            for row in rows:
                aggregates.accumulate(partial, row)
            self.local_groups.append(slotted.output(rows[0]) + aggregates.finalize(partial))
            return

        # GLOBAL / SCALAR: one (key, (partial, sample)) payload per group
        if config.eager_partial_aggregation:
            group_key = slotted.group_key
            by_group: Dict[Tuple[Any, ...], List[Any]] = {}
            samples: Dict[Tuple[Any, ...], SlottedRow] = {}
            for row in rows:
                key = group_key(row)
                partial = by_group.get(key)
                if partial is None:
                    by_group[key] = partial = aggregates.empty()
                    samples[key] = row
                aggregates.accumulate(partial, row)
            self._contributions.extend(
                [(key, (partial, samples[key])) for key, partial in by_group.items()]
            )
        else:
            self._contribute_raw_rows(rows)

    def _assemble_batch(self, rows: ColumnBatch, context: SuperstepContext) -> None:
        if not rows:
            return
        config = self.config
        vectorized = self.vectorized
        context.charge(len(rows))

        if config.aggregation_class is AggregationClass.NONE:
            self.output_batches.append(ColumnBatch(vectorized.outputs(rows), rows.length))
            return

        aggregates = vectorized.aggregates
        if config.aggregation_class is AggregationClass.LOCAL:
            partial = aggregates.batch_partial(rows)
            head = first_row_output(vectorized.output_slots, self.slotted.output, rows, 0)
            self.local_groups.append(head + aggregates.finalize(partial))
            return

        # GLOBAL / SCALAR: one (key, (partial, sample)) payload per group
        if config.eager_partial_aggregation:
            contributions = self._contributions
            key_columns = vectorized.group_key_columns(rows)
            argument_columns = aggregates.argument_columns(rows)
            for key, indices in factorize_groups(key_columns, rows.length):
                partial = aggregates.partial_for(indices, argument_columns)
                sample = rows.row(int(indices[0]))
                contributions.append((key, (partial, sample)))
        else:
            self._contribute_raw_rows(rows.to_tuples())

    def _contribute_raw_rows(self, rows: List[SlottedRow]) -> None:
        """Lazy variant (ablation A03): ship every raw row to the aggregator."""
        aggregates = self.slotted.aggregates
        group_key = self.slotted.group_key
        contributions = self._contributions
        for row in rows:
            partial = aggregates.empty()
            aggregates.accumulate(partial, row)
            contributions.append((group_key(row), (partial, row)))

    def result_tuples(self) -> List[SlottedRow]:
        """All NONE-aggregation output rows as pure-Python tuples."""
        if not self.output_batches:
            return self.output_rows
        return self.output_rows + ColumnBatch.concat(self.output_batches).to_tuples()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _admission(self, alias: str, relation: Any) -> Optional[Callable[[Vertex], bool]]:
        """Compile the alias's membership / exclusion sets and its
        pushed-down filter into one test on a tuple vertex (None: all pass).
        The restriction sets are per run and stay outside the filter's
        verdict memo (:func:`memoised_filter`).
        """
        predicate = memoised_filter(self.graph, relation, self.slotted.filters.get(alias))
        members = self.alias_members.get(alias)
        excluded = self.alias_excluded.get(alias)
        if members is None and excluded is None:
            return predicate

        def admit(vertex: Vertex) -> bool:
            index = vertex.index
            if members is not None and index not in members:
                return False
            if excluded is not None and index in excluded:
                return False
            return predicate is None or predicate(vertex)

        return admit


def own_row_reader(relation: Any, own: OwnRowSpec) -> Callable[[Vertex], SlottedRow]:
    """A tuple vertex's own row: the values of ``own.columns`` at its
    position, then, when the alias carries provenance, its ordinal (an
    int, not the string vertex id, so the column stays native int64)."""
    read = relation.encoded_reader(own.columns)
    if own.provenance:
        return lambda vertex: read(vertex.index - 1) + (vertex.ordinal,)
    return lambda vertex: read(vertex.index - 1)


def memoised_filter(
    graph: TagGraph, relation: Any, pushed: Optional[AliasFilter]
) -> Optional[Callable[[Vertex], bool]]:
    """``pushed`` as a test on the tuple vertices of ``relation`` (None: no filter).

    The filter's verdict on a position is looked up in the plan's memo
    (module docstring), taken here under the key (relation layout epoch,
    graph generation, values bound to the parameters the filter reads)
    and sized to the relation's physical rows.  An entry still unknown
    runs the compiled test on the row once and records the answer.
    """
    if pushed is None:
        return None
    read, test = relation.encoded_reader(pushed.columns), pushed.test
    key = (relation.layout_epoch, graph.generation, pushed.bound_values())
    verdicts = pushed.verdicts(key)
    # two readers sizing one array at once may both extend it: the
    # surplus entries are UNKNOWN, past every position, and harmless
    missing = relation.physical_count - len(verdicts)
    if missing > 0:
        verdicts.extend(bytes(missing))

    def predicate(vertex: Vertex) -> bool:
        position = vertex.index - 1
        verdict = verdicts[position]
        if verdict == UNKNOWN:
            verdict = PASS if test(read(position)) else FAIL
            verdicts[position] = verdict
        return verdict == PASS

    return predicate


def register_group_aggregator(engine: BSPEngine, aggregates: SlottedAggregates) -> None:
    """Register the global GROUP BY aggregator for the kernel's partial payloads.

    Payloads are ``(group_key, (partial_list, sample_row))``; merging is the
    compiled :meth:`SlottedAggregates.merge`, which never mutates its inputs
    (the aggregator must stay associative and side-effect free).
    """

    def combine(current: Any, update: Any) -> Any:
        if current == 0:  # the GroupAggregator's neutral element
            return update
        return (aggregates.merge(current[0], update[0]), current[1])

    engine.register_aggregator(GroupAggregator(GLOBAL_GROUPS_AGGREGATOR, combine=combine))


__all__ = ["COLUMNAR_THRESHOLD", "TagJoinKernel", "memoised_filter", "register_group_aggregator"]
