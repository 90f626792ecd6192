"""Compile a :class:`QuerySpec` into a TAG-join execution fragment.

The compiler realises the query planning side of the paper: it builds the
query hypergraph, derives a join tree (GHD with single-relation bags),
chooses the plan root according to the aggregation style (Section 7),
constructs the TAG traversal plan (Section 5.1) and packages filters,
projections and aggregation metadata into a
:class:`~repro.core.vertex_program.FragmentConfig` the vertex program runs
from.

Every condition is checked where it first binds.  A tree edge routes on
its highest-NDV join variable (:func:`~repro.core.jointree.build_join_tree`
is handed the catalog); each remaining condition — the other keys of a
multi-key edge, a cycle-closing edge, a cross-alias WHERE predicate or
subquery check — is placed by :func:`place_residuals` at the first
collection merge whose row holds every alias it references, and a
predicate over at most one alias becomes a pushed-down filter.  No
residual is left for result assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.fragment import SlottedFragment
    from ..exec.vectorized.fragment import VectorizedFragment

from ..algebra.expressions import ColumnRef, Comparison, Expression, col, referenced_aliases
from ..algebra.logical import AggregationClass, JoinCondition, OutputColumn, QuerySpec
from ..relational.catalog import Catalog
from ..storage.rewrite import FragmentRewriter
from .hypergraph import build_hypergraph
from .jointree import JoinTree, build_join_tree
from .tag_plan import TagPlan, build_tag_plan
from .vertex_program import FragmentConfig, Phase, ScheduledStep, build_schedule


class CompileError(ValueError):
    """Raised when a query cannot be compiled to a TAG-join fragment."""


@dataclass
class CompiledFragment:
    """A fragment config together with the structures it was derived from.

    ``slotted`` and ``vectorized`` are the kernel's two compiled forms of
    the same schedule — slot-index closures over tuple rows, and
    whole-batch masks, gathers and reductions over column batches.  Both
    ride along in the plan cache so warm executions start from
    ready-to-run closures; the reference program reads only ``config``.
    """

    config: FragmentConfig
    join_tree: JoinTree
    plan: TagPlan
    aggregation_class: AggregationClass
    slotted: "SlottedFragment"
    vectorized: "VectorizedFragment"
    #: alias -> decoder for pass-through outputs of encoded columns; the
    #: executor applies these exactly once, at the public result boundary
    output_decoders: Dict[str, Callable[[Any], Any]] = field(default_factory=dict)
    #: where each residual condition is checked, in residual order (EXPLAIN)
    residual_checks: List["ResidualCheck"] = field(default_factory=list)
    #: estimated messages of the bottom-up reduction in the chosen sibling
    #: order (:func:`~repro.planner.cost.order_reduction`, EXPLAIN)
    reduction_estimate: float = 0.0


@dataclass(frozen=True)
class ResidualCheck:
    """Where one residual condition is checked.

    ``step`` is the schedule index of the collection merge that checks the
    condition and ``alias`` that merge's relation alias; ``step`` is None
    for a predicate over at most one alias, which runs as a pushed-down
    filter on ``alias``.  ``text`` renders the condition as written.
    """

    text: str
    step: Optional[int]
    alias: str

    def describe(self) -> str:
        if self.step is None:
            return f"{self.text}: pushed-down filter on {self.alias}"
        # superstep k receives (and merges) schedule step k - 1
        superstep = self.step + 1
        return f"{self.text}: checked at the merge into {self.alias} (superstep {superstep})"


def choose_group_by_root(
    spec: QuerySpec, catalog: Catalog
) -> Optional[Tuple[str, str]]:
    """Pick the ``(alias, column)`` whose attribute vertices host local aggregation.

    Returns None when the query's aggregation is not local or the group-by
    column's domain is not materialised as attribute vertices (floats /
    long text), in which case the executor falls back to global
    aggregation through the aggregator vertex.
    """
    if spec.aggregation_class(catalog) is not AggregationClass.LOCAL:
        return None
    candidates = list(spec.group_by)
    if len(candidates) > 1:
        # multi-column local aggregation: root at the determining (PK) column
        alias_map = spec.alias_map()
        for candidate in candidates:
            if candidate.table is None:
                continue
            schema = catalog.schema(alias_map[candidate.table])
            if schema.is_primary_key(candidate.column):
                candidates = [candidate]
                break
        else:
            candidates = candidates[:1]
    group_col = candidates[0]
    if group_col.table is None:
        return None
    table = spec.alias_map()[group_col.table]
    schema = catalog.schema(table)
    if group_col.column not in schema:
        raise CompileError(f"GROUP BY references unknown column {group_col.qualified}")
    if not schema.column(group_col.column).materialise_as_vertex:
        return None
    return (group_col.table, group_col.column)


def effective_aggregation_class(spec: QuerySpec, catalog: Catalog) -> AggregationClass:
    """The aggregation class actually used for execution.

    Local aggregation downgrades to global when its group key cannot be
    hosted at attribute vertices (same policy the paper's loading section
    applies to floats / long strings).
    """
    declared = spec.aggregation_class(catalog)
    if declared is AggregationClass.LOCAL and choose_group_by_root(spec, catalog) is None:
        return AggregationClass.GLOBAL
    return declared


def default_output_columns(spec: QuerySpec, required: Dict[str, Set[str]]) -> List[OutputColumn]:
    """SELECT-* style outputs when the query declares none."""
    outputs: List[OutputColumn] = []
    for alias in spec.aliases():
        for column in sorted(required.get(alias, set())):
            qualified = f"{alias}.{column}"
            outputs.append(OutputColumn(col(qualified), qualified))
    return outputs


def residual_expressions(conditions: List[JoinCondition]) -> List[Expression]:
    """Turn uncovered join conditions into equality predicates over result rows."""
    return [
        Comparison(
            "=",
            ColumnRef(condition.left_column, condition.left_alias),
            ColumnRef(condition.right_column, condition.right_alias),
        )
        for condition in conditions
    ]


def place_residuals(
    predicates: List[Expression], plan: TagPlan, schedule: List[ScheduledStep]
) -> List[Tuple[Optional[int], str]]:
    """Where each predicate is checked: ``(schedule index, alias)`` per predicate.

    Replays the collection schedule once, tracking which aliases the rows
    of each step's table hold (a relation target adds its alias; an
    attribute target passes its input through).  A predicate over several
    aliases is checked at the first collection merge whose rows hold all of
    them — the index of that step and its relation alias.  A predicate over
    at most one of the plan's aliases binds at a tuple vertex: ``(None,
    alias)``, a pushed-down filter on that alias (on the start relation
    when it names none).
    """
    start = plan.node(schedule[0].step.source) if schedule else plan.relation_nodes()[0]
    held: Dict[str, FrozenSet[str]] = {}
    merges: List[Tuple[int, str, FrozenSet[str]]] = []
    for index, scheduled in enumerate(schedule):
        if scheduled.phase is not Phase.COLLECT:
            continue
        step = scheduled.step
        target = plan.node(step.target)
        # a relation source without a table yet sends its own row
        aliases = held.get(step.source) or frozenset({plan.node(step.source).alias})
        if target.is_relation:
            aliases = aliases | {target.alias}
            merges.append((index, target.alias, aliases))
        held[step.target] = aliases
    plan_aliases = frozenset(node.alias for node in plan.relation_nodes())

    placed: List[Tuple[Optional[int], str]] = []
    for predicate in predicates:
        aliases = referenced_aliases(predicate)
        if not merges or (len(aliases) <= 1 and aliases <= plan_aliases):
            placed.append((None, next(iter(aliases & plan_aliases), start.alias)))
            continue
        # a predicate naming an alias no row holds stays at the root merge,
        # where it fails to resolve exactly as it would anywhere else
        index, alias, _ = next((merge for merge in merges if aliases <= merge[2]), merges[-1])
        placed.append((index, alias))
    return placed


def compile_fragment(
    spec: QuerySpec,
    catalog: Catalog,
    extra_filters: Optional[Dict[str, List[Expression]]] = None,
    extra_residuals: Optional[List[Expression]] = None,
    eager_partial_aggregation: bool = True,
    preferred_root: Optional[str] = None,
) -> CompiledFragment:
    """Compile a connected, non-degenerate query block into a fragment.

    Args:
        spec: the query block (must have a connected join graph).
        catalog: the relational catalog backing the TAG graph.
        extra_filters: additional per-alias predicates (e.g. subquery
            membership checks injected by the executor).
        eager_partial_aggregation: pre-aggregate at the root vertices
            before contacting the global aggregator (ablation A03).
        preferred_root: force the join tree root to a specific alias.
    """
    if not spec.tables:
        raise CompileError("query has no tables")
    if not spec.is_connected():
        raise CompileError(
            "query join graph is disconnected; split into components before compiling"
        )

    aggregation_class = effective_aggregation_class(spec, catalog)
    group_root = choose_group_by_root(spec, catalog)
    if group_root is not None:
        preferred_root = group_root[0]
    elif preferred_root is None:
        preferred_root = spec.tables[0].alias

    filters: Dict[str, List[Expression]] = {}
    for alias in spec.aliases():
        combined = list(spec.filters_for(alias))
        if extra_filters and alias in extra_filters:
            combined.extend(extra_filters[alias])
        if combined:
            filters[alias] = combined

    from ..planner.cost import order_reduction  # local: breaks import cycles
    from ..tag.statistics import CatalogStatistics

    hypergraph = build_hypergraph(spec)
    join_tree = build_join_tree(spec, hypergraph, preferred_root=preferred_root, catalog=catalog)
    join_tree, reduction_estimate = order_reduction(
        join_tree, spec, CatalogStatistics(catalog), filters
    )
    alias_tables = spec.alias_map()
    plan = build_tag_plan(join_tree, catalog, alias_tables, group_by_root=group_root)
    schedule = build_schedule(plan)

    required: Dict[str, Set[str]] = {
        alias: spec.required_columns_of(alias) for alias in spec.aliases()
    }

    # (as written, predicate) per residual condition
    residuals: List[Tuple[str, Expression]] = [
        (repr(predicate), predicate) for predicate in spec.residual_predicates
    ]
    residuals.extend(
        zip(
            map(repr, join_tree.residual_conditions),
            residual_expressions(join_tree.residual_conditions),
        )
    )
    if extra_residuals:
        residuals.extend((repr(predicate), predicate) for predicate in extra_residuals)
        # make sure the columns these predicates inspect survive projection
        for predicate in extra_residuals:
            for qualified in predicate.columns():
                if "." in qualified:
                    alias, column = qualified.split(".", 1)
                    if alias in required:
                        required[alias].add(column)

    # each residual runs where it first binds: at a collection merge, or
    # (over at most one alias) as a pushed-down filter
    residual_checks: List[ResidualCheck] = []
    step_residuals: Dict[int, List[Expression]] = {}
    placements = place_residuals([predicate for _, predicate in residuals], plan, schedule)
    for (text, predicate), (step, alias) in zip(residuals, placements):
        residual_checks.append(ResidualCheck(text, step, alias))
        if step is None:
            filters.setdefault(alias, []).append(predicate)
        else:
            step_residuals.setdefault(step, []).append(predicate)

    output_columns = list(spec.output)
    if not output_columns and not spec.aggregates:
        output_columns = default_output_columns(spec, required)

    group_by_columns = [
        f"{group_col.table}.{group_col.column}" if group_col.table else group_col.column
        for group_col in spec.group_by
    ]

    # rewrite the whole expression surface onto the encoded representation:
    # filters/residuals compare int32 codes, pass-through outputs keep
    # flowing as codes (decoded once by the executor at the boundary) and
    # aggregate arguments decode at the aggregation site
    aggregates = list(spec.aggregates)
    output_decoders: Dict[str, Callable[[Any], Any]] = {}
    rewriter = FragmentRewriter.for_catalog(catalog, alias_tables)
    if rewriter is not None:
        filters = rewriter.rewrite_filters(filters)
        step_residuals = {
            step: rewriter.rewrite_predicates(predicates)
            for step, predicates in step_residuals.items()
        }
        output_columns, output_decoders = rewriter.rewrite_outputs(output_columns)
        aggregates = rewriter.rewrite_aggregates(aggregates)

    config = FragmentConfig(
        plan=plan,
        schedule=schedule,
        alias_tables=alias_tables,
        filters=filters,
        required_columns={alias: columns for alias, columns in required.items()},
        step_residuals=step_residuals,
        output_columns=output_columns,
        aggregates=aggregates,
        group_by_columns=group_by_columns,
        aggregation_class=aggregation_class,
        eager_partial_aggregation=eager_partial_aggregation,
    )
    # derive the kernel's compiled forms once, here, so plan-cache hits
    # (and every execution after the first) start from compiled closures
    from ..exec.fragment import compile_slotted_fragment  # local: breaks import cycle
    from ..exec.vectorized.fragment import compile_vectorized_fragment

    slotted = compile_slotted_fragment(config, catalog)
    vectorized = compile_vectorized_fragment(config, slotted)
    return CompiledFragment(
        config=config,
        join_tree=join_tree,
        plan=plan,
        aggregation_class=aggregation_class,
        slotted=slotted,
        vectorized=vectorized,
        output_decoders=output_decoders,
        residual_checks=residual_checks,
        reduction_estimate=reduction_estimate,
    )
