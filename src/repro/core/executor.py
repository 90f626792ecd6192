"""The public TAG-join query executor.

:class:`TagJoinExecutor` is the library's main entry point: it owns a TAG
graph (built once, query-independently, from a relational catalog) and
evaluates :class:`~repro.algebra.logical.QuerySpec` blocks — or SQL text —
on top of any BSP engine configuration (single worker = the paper's
single-server experiments, several workers = the distributed experiments).

Dispatch logic (paper Section 6.4, "TAG-join algorithm"):

* subquery predicates are evaluated first (recursively) and folded into
  pushed-down filters (Section 7); a correlated inner block runs only over
  the inner tuples a forward lookup reaches from the correlation values
  the outer alias keeps (:mod:`repro.core.subquery`);
* a disconnected join graph is split into components whose results are
  combined with a Cartesian product (Section 6.3);
* a join graph that forms one simple cycle is evaluated by the
  worst-case-optimal heavy/light cycle algorithm (Sections 6.1-6.2);
* everything else (the common case: acyclic queries, and cyclic queries
  with acyclic attachments) runs through the join-tree-driven vertex
  program of Algorithm 2, with cycle-closing conditions checked at the
  first collection merge whose row holds both of their aliases.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner import PlanCache, PlanChoice

from ..algebra.expressions import ColumnRef, Expression, col
from ..algebra.logical import (
    AggregationClass,
    OutputColumn,
    QuerySpec,
    SubqueryPredicate,
    TableRef,
)
from ..bsp.engine import BSPEngine
from ..bsp.metrics import RunMetrics
from ..bsp.partition import HashPartitioner, Partitioner, SinglePartitioner
from ..exec.operations import deduplicate_rows
from ..exec.program import TagJoinKernel, memoised_filter, register_group_aggregator
from ..relational.catalog import Catalog
from ..storage.rewrite import FragmentRewriter, decode_output_rows
from ..tag.encoder import TagGraph, edge_label
from . import operations as ops
from .cartesian import cartesian_product_rows
from .compiler import CompiledFragment, compile_fragment, effective_aggregation_class
from .cyclic import CycleQueryProgram, CycleRelation
from .hypergraph import connected_components, detect_simple_cycle
from . import subquery as subquery_module
from .subquery import ForwardLookup, ForwardLookupProgram, compile_subquery_filters
from .vertex_program import GLOBAL_GROUPS_AGGREGATOR, PHASES, Phase


class ExecutionError(RuntimeError):
    """Raised when a query cannot be executed."""


class StaleEngineError(ExecutionError):
    """Raised when a retired executor is asked to run another query.

    The TAG graph is encoded per catalog *version*; after a bulk load (or
    an explicit :meth:`repro.api.Database.note_data_change`) the catalog
    version moves on and the executor's graph no longer reflects the
    data.  The database retires the executors it built against the old
    encoding and hands out fresh ones transparently; a directly captured
    reference to a retired executor fails loudly here instead of silently
    querying the stale encoding.  (Executors constructed by hand — outside
    a ``Database`` — are never retired; their callers own the encoding
    lifecycle, as the plan-cache invalidation tests do.)
    """


def refuse_outer_joins(spec: QuerySpec, engine: str) -> None:
    """Raise :class:`ExecutionError` for a block with an outer join.

    No multi-way engine here evaluates one; running the condition as an
    inner join would silently drop the NULL-padded rows.
    """
    if spec.outer_joins:
        raise ExecutionError(
            f"the {engine} engine does not evaluate outer joins (LEFT / RIGHT / FULL JOIN)"
        )


@dataclass
class QueryResult:
    """Result of one query execution."""

    rows: List[Dict[str, Any]]
    columns: List[str]
    metrics: RunMetrics
    aggregation_class: AggregationClass = AggregationClass.NONE

    def __len__(self) -> int:
        return len(self.rows)

    def to_tuples(self, columns: Optional[Sequence[str]] = None) -> List[Tuple[Any, ...]]:
        """Rows as tuples in a fixed column order (sorted, for comparisons).

        Decorate-sort-undecorate: the sort key is computed exactly once per
        row, never again during comparisons.  Each key part carries the
        value's type name alongside its string form — ``str`` alone made
        the order between e.g. NULL (``str(None) == 'None'``) and the
        string ``'None'``, or ``1`` and ``'1'``, depend on input order,
        so two executions of one query could sort identical multisets
        differently and fail an equality cross-check spuriously.
        """
        ordered = list(columns or self.columns)
        decorated = [
            (tuple((part.__class__.__name__, str(part)) for part in values), values)
            for values in (
                tuple(row.get(column) for column in ordered) for row in self.rows
            )
        ]
        decorated.sort(key=lambda pair: pair[0])
        return [values for _key, values in decorated]

    def single_value(self) -> Any:
        """Convenience accessor for scalar results (one row, one column)."""
        if len(self.rows) != 1:
            raise ExecutionError(f"expected a single row, got {len(self.rows)}")
        row = self.rows[0]
        if len(row) != 1:
            raise ExecutionError(f"expected a single column, got {sorted(row)}")
        return next(iter(row.values()))

    # ------------------------------------------------------------------
    # stable wire serialization (shared by the server, the client library
    # and the serving result-set cache — see repro.core.wire)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """A JSON-serialisable payload with explicit NULL/date/float handling.

        Rows are packed as value arrays in ``columns`` order; dates and
        non-finite floats are type-tagged so :meth:`from_json` restores
        the exact relational values (see :mod:`repro.core.wire`).
        """
        from .wire import encode_result_payload

        return encode_result_payload(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "QueryResult":
        """Rebuild a :class:`QueryResult` from a :meth:`to_json` payload.

        The reconstructed metrics carry the producer's timing summary
        (wall/compile seconds, cache counters) on a fresh
        :class:`~repro.bsp.metrics.RunMetrics`; superstep-level detail
        does not travel over the wire.
        """
        from .wire import decode_result_payload

        decoded = decode_result_payload(payload)
        metrics = RunMetrics(label="wire")
        summary = decoded["metrics"]
        metrics.wall_time_seconds = float(summary.get("wall_time_seconds", 0.0))
        metrics.compile_seconds = float(summary.get("compile_seconds", 0.0))
        metrics.plan_cache_hits = int(summary.get("plan_cache_hits", 0))
        metrics.plan_cache_misses = int(summary.get("plan_cache_misses", 0))
        return cls(
            rows=decoded["rows"],
            columns=decoded["columns"],
            metrics=metrics,
            aggregation_class=AggregationClass(decoded["aggregation_class"]),
        )


class TagJoinExecutor:
    """Evaluate SQL queries vertex-centrically over a TAG graph.

    Executions are fully concurrent: the encoded graph is immutable while
    queries run, every run's vertex scratch state lives in a per-run
    :class:`~repro.bsp.engine.RunState` (one fresh :class:`BSPEngine` per
    run), parameter bindings travel in a contextvar, and the plan cache has
    its own lock — so any number of threads (or sessions sharing one
    executor, or executors sharing one pre-encoded graph) may call
    :meth:`execute` simultaneously without serialization.  The only
    per-execution executor attribute, :attr:`last_plan_choice`, is
    thread-local so concurrent queries cannot clobber each other's planner
    verdicts.
    """

    def __init__(
        self,
        graph: TagGraph,
        catalog: Catalog,
        num_workers: int = 1,
        eager_partial_aggregation: bool = True,
        use_wco_cycles: bool = True,
        max_supersteps: int = 10_000,
        use_cost_based_planner: bool = True,
        enable_plan_cache: bool = True,
        plan_cache: Optional["PlanCache"] = None,
        cross_check_plans: bool = False,
        name: str = "tag",
    ) -> None:
        # local import: repro.planner depends on repro.core's submodules
        from ..planner import CostBasedPlanner, PlanCache

        self.name = name
        self.graph = graph
        self.catalog = catalog
        self.num_workers = num_workers
        self.eager_partial_aggregation = eager_partial_aggregation
        self.use_wco_cycles = use_wco_cycles
        self.max_supersteps = max_supersteps
        self.use_cost_based_planner = use_cost_based_planner
        self.cross_check_plans = cross_check_plans
        self.planner = CostBasedPlanner(catalog, num_workers=num_workers)
        if plan_cache is None and enable_plan_cache:
            plan_cache = PlanCache()
        self.plan_cache = plan_cache
        # per-thread planner verdict (see the last_plan_choice property)
        self._thread_state = threading.local()
        #: the catalog version the executor was built against (the version
        #: its TAG encoding reflects) — observability plus retirement checks
        self.bound_catalog_version = catalog.version
        self._retired_reason: Optional[str] = None

    @property
    def last_plan_choice(self) -> Optional["PlanChoice"]:
        """The planner's verdict for this thread's most recent fragment.

        Thread-local: concurrent executions each see the verdict of their
        own query, and the plan cache pairs each compiled fragment with the
        choice produced alongside it rather than whichever execution wrote
        the attribute last.
        """
        return getattr(self._thread_state, "plan_choice", None)

    @last_plan_choice.setter
    def last_plan_choice(self, choice: Optional["PlanChoice"]) -> None:
        self._thread_state.plan_choice = choice

    def retire(self, reason: Optional[str] = None) -> None:
        """Mark this executor stale; further queries raise :class:`StaleEngineError`.

        Called by :meth:`repro.api.Database.note_data_change` when the
        catalog moves past the encoding this executor queries.
        """
        self._retired_reason = reason or (
            f"catalog {self.catalog.name!r} moved past version "
            f"{self.bound_catalog_version}"
        )

    @property
    def retired(self) -> bool:
        return self._retired_reason is not None

    def apply(self, delta: Any, catalog_version: int) -> None:
        """Adopt a data-only write already applied to the shared state.

        The database patches the TAG graph in place before calling this
        (statistics read the catalog live), so the executor's own work is
        only re-binding: advance ``bound_catalog_version`` to
        the new catalog version.  Compiled plans stay cached (their keys
        depend only on the schema version) and the executor is *not*
        retired — the whole point of the delta path.
        """
        del delta  # state is shared
        self.bound_catalog_version = catalog_version

    def _check_not_stale(self) -> None:
        if self._retired_reason is not None:
            raise StaleEngineError(
                f"executor {self.name!r} was retired ({self._retired_reason}); "
                "re-resolve the engine through Database.engine() — sessions do "
                "this automatically on their next query"
            )

    def plan_cache_stats(self) -> Optional[Dict[str, Any]]:
        """Hit/miss counters of the plan cache (None when caching is off)."""
        if self.plan_cache is None:
            return None
        return self.plan_cache.stats.as_dict()

    def fragment_fingerprint(self, spec: QuerySpec) -> Optional[str]:
        """The plan-cache key ``spec`` compiles under, or ``None``.

        Exactly the fingerprint :meth:`_compile_or_fetch` would use for a
        top-level execution (no subquery-derived extra filters), so the
        persisted manifest records the same identity the live cache keys
        on.  ``None`` for uncacheable shapes or cache-less executors.
        """
        from ..planner.cache import fragment_cache_key, is_cacheable

        if self.plan_cache is None or spec.subqueries:
            return None
        if not is_cacheable(spec, {}, []):
            return None
        return fragment_cache_key(
            spec,
            self.catalog,
            extra_filters={},
            extra_residuals=[],
            use_cost_based_planner=self.use_cost_based_planner,
            eager_partial_aggregation=self.eager_partial_aggregation,
            num_workers=self.num_workers,
        )

    def prepare_plan(self, spec: QuerySpec) -> bool:
        """Compile ``spec`` into the plan cache without executing it.

        The warm-start hook: :meth:`repro.api.Database.warm_plan_cache`
        replays a persisted statement manifest through this method at
        startup so the first live execution of every known query shape is
        a cache hit.  Returns ``True`` when a compiled fragment is now
        cached (either freshly compiled or already present), ``False``
        when the spec is uncacheable or caching is disabled.  Subquery
        blocks are skipped — their pushed-down filters depend on inner
        results, so there is nothing reusable to warm.
        """
        from ..planner.cache import is_cacheable

        self._check_not_stale()
        if self.plan_cache is None:
            return False
        spec.validate(self.catalog)
        if spec.subqueries or not is_cacheable(spec, {}, []):
            return False
        if len(connected_components(spec)) > 1:
            return False
        if self.use_wco_cycles and not spec.group_by and not spec.aggregates:
            if detect_simple_cycle(spec) is not None:
                return False
        self._compile_or_fetch(spec, {}, [], RunMetrics(label=f"warm:{spec.name}"))
        return True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> QueryResult:
        """Execute a query block and return its result rows plus metrics.

        Safe to call from any number of threads at once: all per-run state
        is run-scoped, so executions over the shared immutable graph
        proceed without any serialization.
        """
        self._check_not_stale()
        spec.validate(self.catalog)
        metrics = RunMetrics(label=spec.name)
        started = time.perf_counter()
        result = self._execute_block(spec, metrics)
        metrics.wall_time_seconds = time.perf_counter() - started
        result.metrics = metrics
        return result

    def execute_sql(self, sql: str) -> QueryResult:
        """Parse, bind and execute a SQL query string."""
        from ..sql import parse_and_bind  # local import to avoid a hard dependency cycle

        spec = parse_and_bind(sql, self.catalog)
        return self.execute(spec)

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def explain(self, spec: QuerySpec, analyze: bool = False) -> str:
        """The chosen rooted join tree plus the planner's cost breakdown.

        With ``analyze=True`` the query is also executed and the plan is
        annotated with the observed row count, supersteps and message
        totals (EXPLAIN ANALYZE).  The analyze run uses the same run-scoped
        state as a regular execution, so it leaves no residue on the shared
        graph and may interleave freely with concurrent queries.  Under
        ANALYZE the plan shown is the one that ran, with the filters the
        subquery predicates folded into, and each subquery gets a line
        saying how its inner block was restricted; plain EXPLAIN shows the
        outer block without those filters, which only exist once the inner
        blocks have run.
        """
        self._check_not_stale()
        spec.validate(self.catalog)
        lines: List[str] = [f"TAG-join plan for {spec.name!r}"]
        extra_filters: Dict[str, List[Expression]] = {}
        extra_residuals: List[Expression] = []
        lookups: List[ForwardLookup] = []
        if analyze:
            refuse_outer_joins(spec, self.name)
            metrics = RunMetrics(label=spec.name)
            started = time.perf_counter()
            extra_filters, extra_residuals, lookups = self._subquery_filters(spec, metrics)
            result = self._execute_outer(spec, extra_filters, extra_residuals, metrics)
            metrics.wall_time_seconds = time.perf_counter() - started

        components = connected_components(spec)
        if len(components) > 1:
            lines.append(
                f"  disconnected join graph: {len(components)} components combined "
                "by Cartesian product"
            )
        cycle_order = None
        if self.use_wco_cycles and not spec.group_by and not spec.aggregates:
            cycle_order = detect_simple_cycle(spec)
        if cycle_order is not None:
            lines.append(
                "  simple cycle: worst-case-optimal heavy/light algorithm over "
                + " -> ".join(cycle_order)
            )
        elif len(components) == 1:
            # last_plan_choice is thread-local, so a concurrent execute on
            # another thread cannot pair this fragment with its verdict
            compiled = self._compile(spec, extra_filters, extra_residuals)
            choice = self.last_plan_choice
            tree = compiled.join_tree
            lines.append(f"  aggregation class: {compiled.aggregation_class.value}")
            lines.append(f"  join tree (root = {tree.root}):")
            lines.extend(self._render_tree(spec, extra_filters, tree, tree.root, depth=2))
            if compiled.residual_checks:
                lines.append("  residual conditions (each checked where it first binds):")
                lines.extend(f"    {check.describe()}" for check in compiled.residual_checks)
            schedule, plan = compiled.config.schedule, compiled.plan
            if schedule:
                # aliases in the order the bottom-up reduction first reaches them
                up = [s.step for s in schedule if s.phase is Phase.REDUCE_UP]
                nodes = [plan.node(step.source) for step in up] + [plan.node(up[-1].target)]
                order = dict.fromkeys(node.alias for node in nodes if node.is_relation)
                lines.append(
                    f"  reduction order: {' -> '.join(order)} "
                    f"(estimated {compiled.reduction_estimate:.1f} bottom-up messages)"
                )
            if choice is not None:
                cost = choice.cost
                lines.append(
                    "  cost model: "
                    f"reduction={cost.reduction_messages:.1f} msgs, "
                    f"collection={cost.collection_messages:.1f} msgs, "
                    f"cross-worker fraction={cost.cross_worker_fraction:.3f}, "
                    f"total={cost.total:.1f}"
                )
                considered = ", ".join(
                    f"{alias}={total:.1f}" for alias, total in sorted(choice.considered)
                )
                lines.append(f"  rootings considered: {considered}")
            else:
                lines.append("  cost model: abstained (root dictated by aggregation or trivial)")
        if spec.subqueries and not analyze:
            lines.append(
                f"  subquery predicates: {len(spec.subqueries)} "
                "(evaluated first; the filters they fold into are not in the plan "
                "shown, EXPLAIN ANALYZE shows the plan that ran)"
            )
        elif spec.subqueries:
            lines.append(
                f"  subquery predicates: {len(spec.subqueries)} "
                "(evaluated first, folded into the pushed-down filters shown)"
            )
            lines.extend(f"    {lookup.describe()}" for lookup in lookups)

        if analyze:
            lines.append(
                "  actual: "
                f"{len(result.rows)} rows, {metrics.superstep_count} supersteps, "
                f"{metrics.total_messages} messages, "
                f"{metrics.total_network_bytes} network bytes, "
                f"{metrics.wall_time_seconds:.4f}s wall"
            )
            by_phase = metrics.messages_by_phase()
            phases = PHASES + (("lookup",) if "lookup" in by_phase else ())
            lines.append(
                "  actual messages by phase: "
                + ", ".join(f"{phase}={by_phase.get(phase, 0)}" for phase in phases)
            )
        return "\n".join(lines)

    def _render_tree(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        tree,
        alias: str,
        depth: int,
    ) -> List[str]:
        table = spec.alias_map()[alias]
        annotations = [f"{self.catalog.relation(table).cardinality()} rows"]
        filter_count = len(spec.filters_for(alias)) + len(extra_filters.get(alias, []))
        if filter_count:
            annotations.append(f"{filter_count} filter{'s' if filter_count > 1 else ''}")
        edge = tree.edge_to_parent(alias)
        via = ""
        if edge is not None:
            via = f" via {alias}.{edge.child_column} = {edge.parent}.{edge.parent_column}"
        lines = [f"{'  ' * depth}{alias} ({table}: {', '.join(annotations)}){via}"]
        for child in tree.children(alias):
            lines.extend(self._render_tree(spec, extra_filters, tree, child, depth + 1))
        return lines

    # ------------------------------------------------------------------
    # block dispatch
    # ------------------------------------------------------------------
    def _execute_block(
        self,
        spec: QuerySpec,
        metrics: RunMetrics,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> QueryResult:
        """Run one block; ``alias_members`` restricts the fragment path's
        aliases to those tuple indexes (a forward lookup's result), and
        the other paths ignore it, which is always correct."""
        refuse_outer_joins(spec, self.name)
        # 1. subqueries become pushed-down filters / residuals on the outer block
        extra_filters, extra_residuals, _ = self._subquery_filters(spec, metrics)
        return self._execute_outer(spec, extra_filters, extra_residuals, metrics, alias_members)

    def _execute_outer(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        metrics: RunMetrics,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> QueryResult:
        # 2. disconnected join graphs: evaluate components, combine by product
        components = connected_components(spec)
        if len(components) > 1:
            return self._execute_disconnected(
                spec, components, extra_filters, extra_residuals, metrics
            )

        # 3. pure simple cycles: worst-case-optimal heavy/light algorithm
        if self.use_wco_cycles and not spec.group_by and not spec.aggregates:
            cycle_order = detect_simple_cycle(spec)
            if cycle_order is not None:
                cycle_rows = self._execute_cycle(spec, cycle_order, extra_filters, metrics)
                if cycle_rows is not None:
                    return self._post_assemble(spec, cycle_rows, metrics, extra_residuals)

        # 4. the general case: join-tree-driven Algorithm 2
        return self._execute_fragment(
            spec, extra_filters, extra_residuals, metrics, alias_members=alias_members
        )

    # ------------------------------------------------------------------
    # subqueries: forward lookup, then the inner block
    # ------------------------------------------------------------------
    def _subquery_filters(
        self, spec: QuerySpec, metrics: RunMetrics
    ) -> Tuple[Dict[str, List[Expression]], List[Expression], List[ForwardLookup]]:
        """Evaluate ``spec``'s subqueries into outer filters and residuals.

        Each inner block runs over the tuples its forward lookup reached,
        or in full where the lookup was not taken.  Also returns the
        lookups, one per subquery, in order.
        """
        filters: Dict[str, List[Expression]] = {}
        residuals: List[Expression] = []
        lookups: List[ForwardLookup] = []
        for subquery in spec.subqueries:
            lookup = self._forward_lookup(spec, subquery, metrics)
            lookups.append(lookup)
            members = None
            if lookup.members is not None:
                members = {subquery.correlation[0].right_alias: lookup.members}
            found, residual = compile_subquery_filters(
                [subquery], lambda inner: self._execute_nested(inner, metrics, members)
            )
            for alias, predicates in found.items():
                filters.setdefault(alias, []).extend(predicates)
            residuals.extend(residual)
        return filters, residuals, lookups

    def _execute_nested(
        self,
        inner: QuerySpec,
        metrics: RunMetrics,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> List[Dict[str, Any]]:
        inner.validate(self.catalog)
        result = self._execute_block(inner, metrics, alias_members)
        return result.rows

    def _forward_lookup(
        self, spec: QuerySpec, subquery: SubqueryPredicate, metrics: RunMetrics
    ) -> ForwardLookup:
        """The inner tuples that the outer block's kept correlation values reach.

        Restricts by the first correlation condition ``outer.a = inner.b``
        only, which keeps a superset of the tuples any outer row probes.
        Taken only where both columns have attribute vertices of one type
        and the inner block runs as one fragment, and only while it pays
        (:func:`~repro.core.subquery.lookup_pays`) for the ``M`` inner
        tuples the kept values hold: ``M`` is estimated as
        ``est_rows(outer, filters) · card(inner) / ndv(inner.col)`` before
        the lookup starts, and known exactly (the kept values' degrees)
        before its second hop.
        """
        inner = subquery.query
        if not subquery.correlation:
            table = inner.tables[0].table
            return ForwardLookup(
                table, table, len(self.catalog.relation(table)), reason="uncorrelated"
            )
        condition = subquery.correlation[0]
        outer_table = spec.table_for(condition.left_alias)
        inner_table = inner.table_for(condition.right_alias)
        inner_tuples = len(self.catalog.relation(inner_table))
        label = f"{condition.right_alias}.{condition.right_column}"

        def full(reason: str) -> ForwardLookup:
            return ForwardLookup(label, inner_table, inner_tuples, reason=reason)

        sides = ((outer_table, condition.left_column), (inner_table, condition.right_column))
        for table, column in sides:
            if not self.graph.has_attribute_vertices(table, column):
                return full(f"{table}.{column} has no attribute vertices")
        dtypes = {self.catalog.schema(table).dtype(column) for table, column in sides}
        if len(dtypes) > 1:
            return full("the correlated columns differ in type")
        if len(connected_components(inner)) > 1 or (
            self.use_wco_cycles
            and not inner.group_by
            and not inner.aggregates
            and detect_simple_cycle(inner) is not None
        ):
            return full("the inner block is not one tree-shaped fragment")
        outer_filters = spec.filters_for(condition.left_alias)
        statistics = self.planner.statistics
        kept = statistics.estimated_rows(outer_table, outer_filters)
        per_key = inner_tuples / statistics.distinct_count(inner_table, condition.right_column)
        outer_tuples = statistics.cardinality(outer_table)

        def pays(members: float) -> bool:
            return subquery_module.lookup_pays(outer_tuples, members, inner_tuples)

        if not pays(kept * per_key):
            return full(
                f"estimated to reach {kept * per_key:.0f} of {inner_tuples} {inner_table} "
                "tuples, too many to pay"
            )

        # the outer alias's own filters, compiled once into a cached
        # single-relation block whose verdict memo the lookup reads
        block = QuerySpec(
            tables=[TableRef(outer_table, condition.left_alias)],
            filters={condition.left_alias: list(outer_filters)} if outer_filters else {},
            output=[OutputColumn(ColumnRef(condition.left_column, condition.left_alias), "key")],
            name=f"{spec.name}:lookup",
        )
        compiled = self._compile_or_fetch(block, {}, [], metrics)
        admit = memoised_filter(
            self.graph,
            self.catalog.relation(outer_table),
            compiled.slotted.filters.get(condition.left_alias),
        )
        labels = (
            edge_label(outer_table, condition.left_column),
            edge_label(inner_table, condition.right_column),
        )
        program = ForwardLookupProgram(outer_table, admit, labels, pays)
        engine = self._make_engine()
        engine.run(program)
        metrics.merge(engine.last_metrics)
        if program.members is None:
            return full(
                f"{program.keys} keys reach {program.reached} of {inner_tuples} {inner_table} "
                "tuples, too many to pay"
            )
        return ForwardLookup(label, inner_table, inner_tuples, program.members, program.keys)

    # ------------------------------------------------------------------
    # the main path: one connected, tree-shaped fragment
    # ------------------------------------------------------------------
    def _execute_fragment(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        metrics: RunMetrics,
        raw_rows: bool = False,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> QueryResult:
        compiled = self._compile_or_fetch(spec, extra_filters, extra_residuals, metrics)
        result = self._run_compiled(spec, compiled, metrics, raw_rows, alias_members)
        if self.cross_check_plans and self.use_cost_based_planner:
            self._cross_check(
                spec, extra_filters, extra_residuals, result, raw_rows, alias_members
            )
        return result

    # ------------------------------------------------------------------
    # compilation: plan cache in front of the cost-based planner
    # ------------------------------------------------------------------
    def _compile_or_fetch(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        metrics: RunMetrics,
    ) -> CompiledFragment:
        from ..planner.cache import fragment_cache_key, is_cacheable

        started = time.perf_counter()
        key: Optional[str] = None
        if self.plan_cache is not None:
            if is_cacheable(spec, extra_filters, extra_residuals):
                key = fragment_cache_key(
                    spec,
                    self.catalog,
                    extra_filters=extra_filters,
                    extra_residuals=extra_residuals,
                    use_cost_based_planner=self.use_cost_based_planner,
                    eager_partial_aggregation=self.eager_partial_aggregation,
                    num_workers=self.num_workers,
                )
                cached = self.plan_cache.lookup(key)
                if cached is not None:
                    compiled, choice = cached
                    self.last_plan_choice = choice
                    metrics.plan_cache_hits += 1
                    metrics.compile_seconds += time.perf_counter() - started
                    return compiled
                metrics.plan_cache_misses += 1
            else:
                self.plan_cache.note_bypass()
        compiled = self._compile(spec, extra_filters, extra_residuals)
        if key is not None:
            self.plan_cache.store(key, (compiled, self.last_plan_choice))
        metrics.compile_seconds += time.perf_counter() - started
        return compiled

    def _compile(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        cost_based: Optional[bool] = None,
    ) -> CompiledFragment:
        cost_based = self.use_cost_based_planner if cost_based is None else cost_based
        preferred_root: Optional[str] = None
        if cost_based:
            choice = self.planner.choose_root(spec, extra_filters)
            if choice is not None:
                preferred_root = choice.root
            self.last_plan_choice = choice
        elif not self.use_cost_based_planner:
            # heuristic-only executors never carry a stale verdict; the
            # cross-check's heuristic recompile must not clobber the real one
            self.last_plan_choice = None
        return compile_fragment(
            spec,
            self.catalog,
            extra_filters=extra_filters,
            extra_residuals=extra_residuals,
            eager_partial_aggregation=self.eager_partial_aggregation,
            preferred_root=preferred_root,
        )

    def _cross_check(
        self,
        spec: QuerySpec,
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        result: QueryResult,
        raw_rows: bool,
        alias_members: Optional[Dict[str, FrozenSet[int]]],
    ) -> None:
        """Re-run the fragment with the heuristic root and require equal rows."""
        compiled = self._compile(spec, extra_filters, extra_residuals, cost_based=False)
        scratch = RunMetrics(label=f"{spec.name}:cross-check")
        baseline = self._run_compiled(spec, compiled, scratch, raw_rows, alias_members)
        if result.to_tuples() != baseline.to_tuples():
            raise ExecutionError(
                f"plan cross-check failed for {spec.name!r}: cost-based plan returned "
                f"{len(result.rows)} rows, heuristic plan {len(baseline.rows)} rows "
                "(or differing contents)"
            )

    # ------------------------------------------------------------------
    # running one compiled fragment
    # ------------------------------------------------------------------
    def _run_compiled(
        self,
        spec: QuerySpec,
        compiled: CompiledFragment,
        metrics: RunMetrics,
        raw_rows: bool = False,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> QueryResult:
        slotted = compiled.slotted
        engine = self._make_engine()
        if compiled.aggregation_class in (AggregationClass.GLOBAL, AggregationClass.SCALAR):
            register_group_aggregator(engine, slotted.aggregates)

        program = TagJoinKernel(
            self.graph, compiled.config, slotted, compiled.vectorized, alias_members=alias_members
        )
        engine.run(program)
        metrics.merge(engine.last_metrics)

        # rows stay tuples until here, the public result boundary: the only
        # dict per row, and the single decode of pass-through codes
        if raw_rows or compiled.aggregation_class is AggregationClass.NONE:
            columns = [column.alias for column in compiled.config.output_columns]
            produced = program.result_tuples()
            if spec.distinct and not raw_rows:
                produced = deduplicate_rows(produced)
        else:
            columns = [column.alias for column in spec.output] + [
                aggregate.alias for aggregate in spec.aggregates
            ]
            if compiled.aggregation_class is AggregationClass.LOCAL:
                produced = program.local_groups
            else:
                # GLOBAL / SCALAR: finalize the partial aggregates gathered globally
                aggregates = slotted.aggregates
                groups = engine.aggregators.get(GLOBAL_GROUPS_AGGREGATOR).value()
                produced = [
                    slotted.output(sample) + aggregates.finalize(partial)
                    for partial, sample in groups.values()
                ]
                if compiled.aggregation_class is AggregationClass.SCALAR and not produced:
                    # an aggregate over no rows still answers (COUNT = 0, SUM = NULL)
                    empty = aggregates.finalize(aggregates.empty())
                    produced = [(None,) * len(spec.output) + empty]
        rows = [dict(zip(columns, values)) for values in produced]
        decode_output_rows(rows, compiled.output_decoders)
        return QueryResult(rows, columns, metrics, compiled.aggregation_class)

    # ------------------------------------------------------------------
    # pure cycle queries
    # ------------------------------------------------------------------
    def _execute_cycle(
        self,
        spec: QuerySpec,
        cycle_order: List[str],
        extra_filters: Dict[str, List[Expression]],
        metrics: RunMetrics,
    ) -> Optional[List[Dict[str, Any]]]:
        """Run the heavy/light cycle program; None if the cycle shape is unusable.

        Unusable: two conditions between one alias pair, or a cycle column
        without attribute vertices (floats, long text) for the program to
        route through.
        """
        alias_map = spec.alias_map()
        relations: List[CycleRelation] = []
        n = len(cycle_order)
        for index, alias in enumerate(cycle_order):
            previous_alias = cycle_order[(index - 1) % n]
            next_alias = cycle_order[(index + 1) % n]
            back_column = self._column_between(spec, alias, previous_alias)
            forward_column = self._column_between(spec, alias, next_alias)
            if back_column is None or forward_column is None:
                return None
            schema = self.catalog.schema(alias_map[alias])
            if not all(
                schema.column(column).materialise_as_vertex
                for column in (back_column, forward_column)
            ):
                return None
            relations.append(
                CycleRelation(
                    alias=alias,
                    table=alias_map[alias],
                    back_column=back_column,
                    forward_column=forward_column,
                )
            )
        filters: Dict[str, List[Expression]] = {}
        for alias in spec.aliases():
            combined = list(spec.filters_for(alias)) + list(extra_filters.get(alias, []))
            if combined:
                filters[alias] = combined
        # the cycle program reads encoded tuple payloads: compile its
        # filters onto the codes and decode the joined rows on the way out
        # (the cycle result feeds _post_assemble, which evaluates
        # un-rewritten residuals/outputs and needs decoded values)
        rewriter = FragmentRewriter.for_catalog(self.catalog, alias_map)
        if rewriter is not None:
            filters = rewriter.rewrite_filters(filters)
        engine = self._make_engine()
        program = CycleQueryProgram(self.graph, relations, filters=filters)
        rows = engine.run(program)
        metrics.merge(engine.last_metrics)
        if rewriter is not None and rows:
            decoders = rewriter.context_decoders
            for row in rows:
                for name, decoder in decoders.items():
                    if name in row:
                        row[name] = decoder(row[name])
        return rows

    @staticmethod
    def _column_between(spec: QuerySpec, alias: str, other: str) -> Optional[str]:
        columns = [
            condition.side(alias)
            for condition in spec.join_conditions
            if {condition.left_alias, condition.right_alias} == {alias, other}
        ]
        columns = [column for column in columns if column is not None]
        return columns[0] if len(columns) == 1 else None

    # ------------------------------------------------------------------
    # disconnected join graphs
    # ------------------------------------------------------------------
    def _execute_disconnected(
        self,
        spec: QuerySpec,
        components: List[List[str]],
        extra_filters: Dict[str, List[Expression]],
        extra_residuals: List[Expression],
        metrics: RunMetrics,
    ) -> QueryResult:
        partial_results: List[List[Dict[str, Any]]] = []
        for component in components:
            component_spec = self._component_spec(spec, component)
            component_filters = {
                alias: predicates
                for alias, predicates in extra_filters.items()
                if alias in component
            }
            result = self._execute_fragment(
                component_spec, component_filters, [], metrics, raw_rows=True
            )
            partial_results.append(result.rows)
        combined = partial_results[0]
        for rows in partial_results[1:]:
            combined = cartesian_product_rows(combined, rows)
        return self._post_assemble(spec, combined, metrics, extra_residuals)

    @staticmethod
    def _component_spec(spec: QuerySpec, aliases: List[str]) -> QuerySpec:
        keep = set(aliases)
        component = QuerySpec(name=f"{spec.name}[{'+'.join(aliases)}]")
        component.tables = [table for table in spec.tables if table.alias in keep]
        component.join_conditions = [
            condition
            for condition in spec.join_conditions
            if condition.left_alias in keep and condition.right_alias in keep
        ]
        component.filters = {
            alias: list(predicates)
            for alias, predicates in spec.filters.items()
            if alias in keep
        }
        # project every column the outer block still needs (outputs,
        # aggregates, residual predicates) so post-assembly can see them
        for alias in aliases:
            for column in sorted(spec.required_columns_of(alias)):
                qualified = f"{alias}.{column}"
                component.output.append(OutputColumn(col(qualified), qualified))
        return component

    # ------------------------------------------------------------------
    # Python-side assembly for rows produced outside Algorithm 2
    # ------------------------------------------------------------------
    def _post_assemble(
        self,
        spec: QuerySpec,
        rows: List[Dict[str, Any]],
        metrics: RunMetrics,
        extra_residuals: Optional[List[Expression]] = None,
    ) -> QueryResult:
        """Apply residual predicates, projection, aggregation and DISTINCT to raw rows."""
        rows = ops.rows_passing(rows, spec.residual_predicates)
        if extra_residuals:
            rows = ops.rows_passing(rows, extra_residuals)
        aggregation_class = effective_aggregation_class(spec, self.catalog)

        if not spec.aggregates:
            outputs = spec.output
            if outputs:
                produced = [ops.evaluate_output_columns(outputs, row) for row in rows]
            else:
                produced = rows
            columns = spec.result_columns()
            if spec.distinct:
                produced = ops.deduplicate(produced)
            return QueryResult(produced, columns, metrics, AggregationClass.NONE)

        group_columns = [
            f"{group_col.table}.{group_col.column}" if group_col.table else group_col.column
            for group_col in spec.group_by
        ]
        by_group: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        samples: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for row in rows:
            key = ops.group_key(group_columns, row)
            if key in by_group:
                by_group[key] = ops.accumulate_partial(by_group[key], spec.aggregates, row)
            else:
                by_group[key] = ops.accumulate_partial(
                    ops.empty_partial(spec.aggregates), spec.aggregates, row
                )
                samples[key] = row
        produced = []
        for key, partial in by_group.items():
            final = ops.finalize_partial(partial, spec.aggregates)
            row = ops.evaluate_output_columns(spec.output, samples[key])
            row.update(final)
            produced.append(row)
        if aggregation_class is AggregationClass.SCALAR and not produced:
            produced = [
                ops.finalize_partial(ops.empty_partial(spec.aggregates), spec.aggregates)
            ]
        columns = [column.alias for column in spec.output] + [
            aggregate.alias for aggregate in spec.aggregates
        ]
        return QueryResult(produced, columns, metrics, aggregation_class)

    # ------------------------------------------------------------------
    def _make_engine(self) -> BSPEngine:
        partitioner: Partitioner
        if self.num_workers <= 1:
            partitioner = SinglePartitioner()
        else:
            partitioner = HashPartitioner(self.num_workers)
        return BSPEngine(self.graph, partitioner, max_supersteps=self.max_supersteps)
