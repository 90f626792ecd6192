"""The production TAG-join vertex program: Algorithm 2 over size-adaptive tables.

:class:`TagJoinKernel` executes the three-phase schedule the paper gives
as Algorithm 2 — bottom-up reduction, top-down reduction, bottom-up
collection, then result assembly at the vertices holding the plan root's
values.  It is what the ``tag`` engine runs; the dict-row
:class:`~repro.core.vertex_program.TagJoinProgram` behind the ``tag_dict``
engine is the independent reference it is tested against.

Every intermediate result table is shaped by the compile-time
:class:`~repro.exec.fragment.SlottedFragment` and lives in one of two
forms, chosen per table from its observed size:

* **tuple rows** (``List[SlottedRow]``) — how every table starts.  Merges
  are precompiled tuple concatenations gated by a slot-indexed provenance
  check; residuals, outputs and aggregates are slot-compiled closures.
  numpy's fixed per-array cost is never recouped by a three-row table,
  and most TAG tables are that small (a leaf relation vertex's own row,
  an attribute vertex's handful of children).
* **column batches** (:class:`~repro.exec.vectorized.batch.ColumnBatch`) —
  what a table becomes at the first receive whose combined input reaches
  :data:`COLUMNAR_THRESHOLD` rows, and stays (tables only grow along the
  collection phase).  The TAG topology is the hash bucketing of the join,
  so each merge is a per-bucket gather-join: a boolean provenance mask,
  column gathers and ``repeat``-broadcasts of the vertex's own values;
  residuals, outputs, GROUP BY keys and aggregate arguments evaluate as
  whole-column expressions.

Both forms run the same supersteps, send the same messages (one
:meth:`~repro.bsp.engine.SuperstepContext.send_to_many` per fan-out) and
charge the same compute units, and rows crossing any boundary (samples,
result tuples, aggregator payloads) are pure-Python values — so results
do not depend on which form a table took.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..algebra.logical import AggregationClass
from ..bsp.aggregators import GroupAggregator
from ..bsp.engine import BSPEngine, SuperstepContext, VertexProgram
from ..bsp.graph import Graph, Vertex
from ..core.vertex_program import (
    _MARKED_KEY,
    _VALUE_KEY,
    GLOBAL_GROUPS_AGGREGATOR,
    GLOBAL_OUTPUT_AGGREGATOR,
    FragmentConfig,
    Phase,
    ScheduledStep,
)
from ..tag.encoder import TUPLE_DATA_KEY, TagGraph
from .fragment import SlottedFragment
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

#: per-alias ``(lo_exclusive, hi_inclusive | None)`` tuple-index window
AliasWindow = Tuple[int, Optional[int]]


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
        alias_ranges: Optional[Dict[str, AliasWindow]] = None,
        alias_members: Optional[Dict[str, Set[int]]] = None,
        alias_excluded: Optional[Dict[str, Set[int]]] = None,
    ) -> None:
        """
        Args:
            alias_ranges: optional per-alias tuple-index windows restricting
                which tuple vertices of that alias participate.  Tuple
                vertex ids encode their 1-based insertion index (``R_7`` is
                the 7th ``R`` tuple), so a window selects a contiguous
                slice of a relation's load history.  Seminaïve
                materialized-view refresh uses windows to evaluate each
                delta term ``Q(old, .., Δ_i, .., full)`` over only the
                relevant old/new vertices.
            alias_members: optional per-alias tuple-index *membership* sets
                — an alias with an entry only accepts tuple vertices whose
                index is in the set.  Deletion-delta terms use this to pin
                one alias to exactly the deleted tuples (which are sparse,
                not a contiguous window).
            alias_excluded: optional per-alias tuple-index *exclusion* sets.
                The telescoping delete terms use this to keep earlier
                aliases on the "already deleted" side of the product.

        Aliases without an entry see the full relation.
        """
        self.graph = graph
        self.config = config
        self.slotted = slotted
        self.vectorized = vectorized
        self.columnar_threshold = COLUMNAR_THRESHOLD
        self.alias_ranges = alias_ranges or {}
        self.alias_members = alias_members or {}
        self.alias_excluded = alias_excluded or {}
        self._restricted = (
            set(self.alias_ranges) | set(self.alias_members) | set(self.alias_excluded)
        )
        self.output_rows: List[SlottedRow] = []
        self.output_batches: List[ColumnBatch] = []
        self.local_groups: List[SlottedRow] = []
        self._start_node = config.plan.node(config.start_node_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initial_active_vertices(self, graph: Graph):
        """Activate the tuple vertices of the start relation (rightmost leaf)."""
        start = self._start_node
        if not start.is_relation:
            raise ValueError("the TAG plan traversal must start at a relation node")
        candidates = graph.vertices_with_label(start.table)
        if start.alias not in self.slotted.filters and start.alias not in self._restricted:
            return candidates
        return [
            vertex_id
            for vertex_id in candidates
            if self._tuple_passes_filters(graph.vertex(vertex_id), start.alias)
        ]

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
            # assemble immediately for single-relation plans)
            if not schedule:
                self._assemble(vertex, self._initial_value(vertex, self._start_node), context)
                return
            self._send(vertex, schedule[0], context)
            return

        received = schedule[superstep - 1]
        if not self._receive(vertex, superstep - 1, received, messages, context):
            return
        if superstep < len(schedule):
            self._send(vertex, schedule[superstep], context)
        else:
            # final superstep: the root's values are complete at this vertex
            rows = context.state(vertex).get(_VALUE_KEY, {}).get(received.step.target, [])
            self._assemble(vertex, rows, context)

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------
    def _receive(
        self,
        vertex: Vertex,
        step_index: int,
        scheduled: ScheduledStep,
        messages: List[Any],
        context: SuperstepContext,
    ) -> bool:
        step = scheduled.step
        target_node = self.config.plan.node(step.target)
        context.charge(len(messages))

        if scheduled.phase is not Phase.COLLECT:
            if target_node.is_relation and not self._tuple_passes_filters(
                vertex, target_node.alias
            ):
                return False
            marked = context.state(vertex).setdefault(_MARKED_KEY, {})
            marked[step.edge.edge_id] = set(messages)
            return True

        # collection: combine the incoming tables, then apply the compiled
        # step action in whichever form the combined table took
        incoming = self._combine(messages)
        action = self.slotted.collect[step_index]
        if action.merge is None:
            rows = incoming
        else:
            # the paper's line 36 (v.value ⋈ {v.data}): joining the incoming
            # table with the vertex's own tuple keeps only the rows whose
            # contribution for this alias *is* this tuple.  Rows flowing back
            # from a sibling subtree may have been seeded by a different
            # tuple of the same relation sharing this join value; the
            # provenance slot identifies and drops them.
            own_row = self._own_row(vertex, target_node)
            if type(incoming) is ColumnBatch:
                rows = self._merge_batch(incoming, own_row, action, vertex.ordinal)
            elif incoming:
                rows = self._merge_rows(incoming, own_row, action, vertex.ordinal)
            else:
                rows = [own_row]
        context.charge(len(rows))
        values = context.state(vertex).setdefault(_VALUE_KEY, {})
        values[step.target] = rows
        return True

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
    def _merge_rows(incoming, own_row, action, vid: int) -> List[SlottedRow]:
        prov_slot = action.prov_slot
        if action.identity:
            return [row for row in incoming if row[prov_slot] == vid]
        if prov_slot is None:
            if action.concat:
                return [row + own_row for row in incoming]
            merge = action.merge
            return [merge(row, own_row) for row in incoming]
        if action.concat:
            return [row + own_row for row in incoming if row[prov_slot] == vid]
        merge = action.merge
        return [merge(row, own_row) for row in incoming if row[prov_slot] == vid]

    @staticmethod
    def _merge_batch(incoming: ColumnBatch, own_row, action, vid: int) -> ColumnBatch:
        if not incoming:
            return ColumnBatch.from_row(own_row)
        prov_slot = action.prov_slot
        if prov_slot is not None:
            incoming = incoming.mask(np.equal(incoming.arrays[prov_slot], vid))
        if action.identity or not incoming:
            return incoming
        length = incoming.length
        if action.concat:
            return incoming.with_appended([full_column(length, value) for value in own_row])
        arrays = incoming.arrays
        return ColumnBatch(
            [
                arrays[index] if from_incoming else full_column(length, own_row[index])
                for from_incoming, index in action.plan
            ],
            length,
        )

    # ------------------------------------------------------------------
    # send (batched: one payload, many targets; a batch sizes itself via
    # its payload_size_hint)
    # ------------------------------------------------------------------
    def _send(self, vertex: Vertex, scheduled: ScheduledStep, context: SuperstepContext) -> None:
        step = scheduled.step
        targets = self.graph.edge_targets(vertex.vertex_id, step.label)
        context.charge(len(targets))

        if scheduled.phase is Phase.REDUCE_UP:
            context.send_to_many(targets, vertex.vertex_id)
            return

        marked = context.state(vertex).get(_MARKED_KEY, {}).get(step.edge.edge_id, set())
        if scheduled.phase is Phase.REDUCE_DOWN:
            context.send_to_many(
                [target for target in targets if target in marked],
                vertex.vertex_id,
            )
            return

        # collection phase: propagate this node's value along marked edges
        source_node = self.config.plan.node(step.source)
        values = context.state(vertex).get(_VALUE_KEY, {})
        table = values.get(step.source)
        if table is None and source_node.is_relation:
            table = [self._own_row(vertex, source_node)]
        if not table:
            return
        context.send_to_many([target for target in targets if target in marked], table)

    # ------------------------------------------------------------------
    # result assembly (runs at the vertices holding the plan root's values)
    # ------------------------------------------------------------------
    def _assemble(self, vertex: Vertex, rows: Any, context: SuperstepContext) -> None:
        if type(rows) is ColumnBatch:
            self._assemble_batch(rows, context)
        else:
            self._assemble_rows(rows, context)

    def _assemble_rows(self, rows: List[SlottedRow], context: SuperstepContext) -> None:
        config = self.config
        slotted = self.slotted
        if slotted.residual is not None:
            residual = slotted.residual
            rows = [row for row in rows if residual(row)]
        if not rows:
            return
        context.charge(len(rows))

        if config.aggregation_class is AggregationClass.NONE:
            output = slotted.output
            produced = [output(row) for row in rows]
            if config.collect_output_centrally:
                for row in produced:
                    context.aggregate(GLOBAL_OUTPUT_AGGREGATOR, row)
            self.output_rows.extend(produced)
            return

        aggregates = slotted.aggregates
        if config.aggregation_class is AggregationClass.LOCAL:
            # each group lives entirely at this attribute vertex
            partial = aggregates.empty()
            for row in rows:
                aggregates.accumulate(partial, row)
            self.local_groups.append(slotted.output(rows[0]) + aggregates.finalize(partial))
            return

        # GLOBAL / SCALAR: contribute (key, (partial, sample)) payloads
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
            for key, partial in by_group.items():
                context.aggregate(GLOBAL_GROUPS_AGGREGATOR, (key, (partial, samples[key])))
        else:
            self._contribute_raw_rows(rows, context)

    def _assemble_batch(self, rows: ColumnBatch, context: SuperstepContext) -> None:
        if not rows:
            return
        config = self.config
        vectorized = self.vectorized
        if vectorized.residual is not None:
            rows = rows.mask(as_mask(vectorized.residual(rows), rows))
            if not rows:
                return
        context.charge(len(rows))

        if config.aggregation_class is AggregationClass.NONE:
            produced = ColumnBatch(vectorized.outputs(rows), rows.length)
            self.output_batches.append(produced)
            if config.collect_output_centrally:
                for row in produced.to_tuples():
                    context.aggregate(GLOBAL_OUTPUT_AGGREGATOR, row)
            return

        aggregates = vectorized.aggregates
        if config.aggregation_class is AggregationClass.LOCAL:
            partial = aggregates.batch_partial(rows)
            head = first_row_output(vectorized.output_slots, self.slotted.output, rows, 0)
            self.local_groups.append(head + aggregates.finalize(partial))
            return

        # GLOBAL / SCALAR: one (key, (partial, sample)) payload per group
        if config.eager_partial_aggregation:
            key_columns = vectorized.group_key_columns(rows)
            argument_columns = aggregates.argument_columns(rows)
            for key, indices in factorize_groups(key_columns, rows.length):
                partial = aggregates.partial_for(indices, argument_columns)
                sample = rows.row(int(indices[0]))
                context.aggregate(GLOBAL_GROUPS_AGGREGATOR, (key, (partial, sample)))
        else:
            self._contribute_raw_rows(rows.to_tuples(), context)

    def _contribute_raw_rows(self, rows: List[SlottedRow], context: SuperstepContext) -> None:
        """Lazy variant (ablation A03): ship every raw row to the aggregator."""
        aggregates = self.slotted.aggregates
        group_key = self.slotted.group_key
        for row in rows:
            partial = aggregates.empty()
            aggregates.accumulate(partial, row)
            context.aggregate(GLOBAL_GROUPS_AGGREGATOR, (group_key(row), (partial, row)))

    def result_tuples(self) -> List[SlottedRow]:
        """All NONE-aggregation output rows as pure-Python tuples."""
        if not self.output_batches:
            return self.output_rows
        return self.output_rows + ColumnBatch.concat(self.output_batches).to_tuples()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tuple_passes_filters(self, vertex: Vertex, alias: Optional[str]) -> bool:
        if alias is None:
            return True
        if alias in self._restricted and not self._admits(vertex, alias):
            return False
        predicate = self.slotted.filters.get(alias)
        if predicate is None:
            return True
        tuple_data = vertex.properties.get(TUPLE_DATA_KEY)
        if tuple_data is None:
            return True
        return predicate(tuple_data)

    def _admits(self, vertex: Vertex, alias: str) -> bool:
        """Whether the alias's window / membership / exclusion sets admit ``vertex``."""
        try:
            index = int(vertex.vertex_id.rsplit("_", 1)[1])
        except (IndexError, ValueError):
            return True  # not a tuple vertex id; restrictions don't apply
        window = self.alias_ranges.get(alias)
        if window is not None:
            lo_exclusive, hi_inclusive = window
            if index <= lo_exclusive or (hi_inclusive is not None and index > hi_inclusive):
                return False
        members = self.alias_members.get(alias)
        if members is not None and index not in members:
            return False
        excluded = self.alias_excluded.get(alias)
        return excluded is None or index not in excluded

    def _own_row(self, vertex: Vertex, node) -> SlottedRow:
        # provenance is the graph-assigned integer ordinal, not the string
        # vertex id: it keeps the hidden provenance column native int64
        # when a table is columnarised
        return self.slotted.own[node.alias].build(
            vertex.properties[TUPLE_DATA_KEY], vertex.ordinal
        )

    def _initial_value(self, vertex: Vertex, node) -> Any:
        if not self._tuple_passes_filters(vertex, node.alias):
            return []
        rows = [self._own_row(vertex, node)]
        if len(rows) >= self.columnar_threshold:
            return ColumnBatch.from_rows(rows)
        return rows


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


__all__ = ["COLUMNAR_THRESHOLD", "TagJoinKernel", "register_group_aggregator"]
