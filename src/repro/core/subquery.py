"""Subquery evaluation for the TAG-join executor (paper Section 7).

EXISTS / NOT EXISTS / IN / NOT IN and scalar subqueries — correlated or
not — are evaluated as a pre-pass: the inner block runs through the same
vertex-centric executor (recursively), its result is condensed into a
membership set or a per-correlation-key scalar map, and the outer block
receives an extra pushed-down filter on the correlated alias.  This is the
semi-join / anti-join strategy the paper describes for IN / EXISTS
constructs.

A correlated inner block is evaluated by *forward lookup* from the outer
block (the paper's forward-lookup navigation; the magic-set restriction of
Seshadri et al., SIGMOD 1996): the correlation values that the outer
alias's own pushed-down filters keep are found first, each value's
attribute vertex is followed to the inner relation's tuples under the
``INNER.col`` label (:class:`ForwardLookupProgram`), and the inner block
runs over those tuples only.  Keys no outer row can probe are never
computed.  Dropping the restriction is always correct, so the executor
runs the inner block in full whenever the lookup cannot pay off or cannot
be taken (:class:`ForwardLookup` records which, for EXPLAIN ANALYZE).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import ColumnRef, Expression, referenced_aliases
from ..algebra.logical import OutputColumn, QuerySpec, SubqueryKind, SubqueryPredicate
from ..bsp.engine import SuperstepContext, VertexProgram
from ..bsp.graph import Graph, VertexId
from ..bsp.metrics import VERTEX_ID_BYTES
from ..relational.types import NULL
from .operations import CallablePredicate


class SubqueryError(ValueError):
    """Raised when a subquery predicate cannot be evaluated."""


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compile_subquery_filters(
    subqueries: List[SubqueryPredicate],
    execute: Callable[[QuerySpec], List[Dict[str, Any]]],
) -> Tuple[Dict[str, List[Expression]], List[Expression]]:
    """Turn each subquery predicate into outer-block predicates.

    Each subquery is evaluated once (through ``execute``, so its cost is
    accounted vertex-centrically) and condensed into a membership /
    comparison check.  Checks touching a single outer alias become
    pushed-down filters on that alias (applied during the reduction phase,
    i.e. a semi-/anti-join); checks spanning several outer aliases become
    residual predicates, which a TAG fragment applies at the first
    collection merge that holds all of their aliases.

    Returns:
        ``(filters_by_alias, residual_predicates)``.
    """
    filters: Dict[str, List[Expression]] = {}
    residuals: List[Expression] = []
    for subquery in subqueries:
        alias, predicate = _compile_one(subquery, execute)
        aliases = referenced_aliases(predicate)
        if len(aliases) == 1:
            filters.setdefault(next(iter(aliases)), []).append(predicate)
        elif not aliases:
            filters.setdefault(alias, []).append(predicate)
        else:
            residuals.append(predicate)
    return filters, residuals


# ----------------------------------------------------------------------
# forward lookup: the inner tuples the outer block can probe
# ----------------------------------------------------------------------
def lookup_pays(outer_tuples: int, members: float, inner_tuples: int) -> bool:
    """Whether restricting an inner block to ``members`` tuples pays.

    The lookup visits the outer relation's tuples and the inner members,
    and the inner block then visits the members again instead of the
    whole inner relation: ``card(outer) + 2·M < card(inner)``.  A
    self-correlated block (outer and inner one relation) never pays.
    """
    return outer_tuples + 2 * members < inner_tuples


@dataclass(frozen=True)
class ForwardLookup:
    """How one subquery's inner block was restricted, if it was.

    ``members`` holds the 1-based tuple indexes of ``inner_table`` that
    the lookup reached through ``keys`` correlation values; ``None`` means
    the inner block ran in full, for ``reason``.
    """

    label: str
    inner_table: str
    inner_tuples: int
    members: Optional[FrozenSet[int]] = None
    keys: int = 0
    reason: str = ""

    def describe(self) -> str:
        if self.members is None:
            return f"{self.label}: inner block runs in full ({self.reason})"
        return (
            f"forward lookup on {self.label}: {self.keys} keys -> {len(self.members)} "
            f"of {self.inner_tuples} {self.inner_table} tuples"
        )


class ForwardLookupProgram(VertexProgram):
    """Forward lookup from the outer tuples to the inner relation's tuples.

    Superstep 0 activates the outer relation's tuple vertices that pass
    ``admit`` (the outer alias's own pushed-down filters; None = all);
    each sends its id along ``labels[0]`` (``OUTER.col``) to its
    correlation value.  In superstep 1 the values reached count the inner
    tuples they hold under ``labels[1]`` (``INNER.col``), their degrees.
    If ``pays`` that total, each value sends to those tuples, which in
    superstep 2 are the inner block's :attr:`members`; otherwise nothing
    is sent and :attr:`members` is ``None`` (run the inner block in
    full).  A message weighs one vertex id, as a reduction message does.
    """

    def __init__(
        self,
        outer_table: str,
        admit: Optional[Callable[[Any], bool]],
        labels: Tuple[str, str],
        pays: Callable[[int], bool],
    ) -> None:
        self.outer_table = outer_table
        self.admit = admit
        self.labels = labels
        self.pays = pays
        #: distinct correlation values reached, and the inner tuples they hold
        self.keys = 0
        self.reached = 0
        self.members: Optional[FrozenSet[int]] = frozenset()

    def initial_active_vertices(self, graph: Graph) -> Sequence[VertexId]:
        candidates = graph.vertices_with_label(self.outer_table)
        if self.admit is None:
            return candidates
        admit, vertex = self.admit, graph.vertex
        return [vertex_id for vertex_id in candidates if admit(vertex(vertex_id))]

    def before_superstep(self, superstep: int, graph: Graph, context: SuperstepContext) -> None:
        context.phase = "lookup"

    def compute_superstep(
        self,
        active: Collection[VertexId],
        inbox: Dict[VertexId, List[Any]],
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        superstep = context.superstep
        if superstep > 0:
            context.charge(sum(map(len, inbox.values())))
        if superstep == 2:
            self.members = frozenset(vertex.index for vertex in map(graph.vertex, active))
            return
        label = self.labels[superstep]
        adjacency = graph.adjacency(label)
        if superstep == 1:
            self.keys = len(active)
            self.reached = sum(len(adjacency.get(vertex_id, ())) for vertex_id in active)
            if not self.pays(self.reached):
                self.members = None
                return
        outbox = context.outbox
        engine = context.engine
        partition_of = engine.partition_of if engine.num_workers > 1 else None
        sent = crossing = 0
        for vertex_id in active:
            targets = adjacency.get(vertex_id, ())
            for target in targets:
                outbox[target].append(vertex_id)
            sent += len(targets)
            if partition_of is not None:
                home = partition_of(vertex_id)
                crossing += sum(1 for target in targets if partition_of(target) != home)
        context.charge(sent)
        context.add_messages(sent, sent * VERTEX_ID_BYTES, crossing, crossing * VERTEX_ID_BYTES)


# ----------------------------------------------------------------------
def _compile_one(
    subquery: SubqueryPredicate,
    execute: Callable[[QuerySpec], List[Dict[str, Any]]],
) -> Tuple[str, Expression]:
    if subquery.kind in (SubqueryKind.EXISTS, SubqueryKind.NOT_EXISTS):
        return _compile_exists(subquery, execute)
    if subquery.kind in (SubqueryKind.IN, SubqueryKind.NOT_IN):
        return _compile_in(subquery, execute)
    if subquery.kind is SubqueryKind.SCALAR:
        return _compile_scalar(subquery, execute)
    raise SubqueryError(f"unsupported subquery kind {subquery.kind}")


def _outer_alias(subquery: SubqueryPredicate) -> str:
    """The outer alias the resulting filter attaches to."""
    if subquery.correlation:
        return subquery.correlation[0].left_alias
    if subquery.outer_expr is not None:
        for qualified in sorted(subquery.outer_expr.columns()):
            if "." in qualified:
                return qualified.split(".", 1)[0]
    raise SubqueryError(
        "cannot determine the outer alias of an uncorrelated subquery predicate "
        "without an outer expression; attach it explicitly via correlation"
    )


def _inner_projection(subquery: SubqueryPredicate) -> List[Tuple[str, str]]:
    """(alias, column) pairs of the inner block's correlation columns."""
    return [
        (condition.right_alias, condition.right_column) for condition in subquery.correlation
    ]


def _prepare_inner(subquery: SubqueryPredicate, extra_columns: List[ColumnRef]) -> QuerySpec:
    """Clone the inner block, projecting the columns the outer filter needs."""
    inner = copy.deepcopy(subquery.query)
    inner.output = []
    for alias, column in _inner_projection(subquery):
        inner.output.append(OutputColumn(ColumnRef(column, alias), f"{alias}.{column}"))
    for reference in extra_columns:
        inner.output.append(OutputColumn(reference, reference.qualified))
    if not inner.aggregates:
        inner.distinct = True
    return inner


# ----------------------------------------------------------------------
# EXISTS / NOT EXISTS
# ----------------------------------------------------------------------
def _compile_exists(
    subquery: SubqueryPredicate,
    execute: Callable[[QuerySpec], List[Dict[str, Any]]],
) -> Tuple[str, Expression]:
    negated = subquery.kind is SubqueryKind.NOT_EXISTS
    if not subquery.correlation:
        rows = execute(_prepare_inner(subquery, []))
        exists = bool(rows)
        keep = exists if not negated else not exists
        predicate = CallablePredicate(
            lambda _context, keep=keep: keep, description="uncorrelated EXISTS"
        )
        return _outer_alias(subquery), predicate

    inner = _prepare_inner(subquery, [])
    rows = execute(inner)
    key_columns = [f"{alias}.{column}" for alias, column in _inner_projection(subquery)]
    matched: Set[Tuple[Any, ...]] = {
        tuple(row.get(column) for column in key_columns) for row in rows
    }
    outer_columns = [
        f"{condition.left_alias}.{condition.left_column}" for condition in subquery.correlation
    ]

    def check(context: Dict[str, Any]) -> bool:
        key = tuple(context.get(column) for column in outer_columns)
        if any(part is NULL for part in key):
            return negated  # NULL correlation key never matches
        found = key in matched
        return not found if negated else found

    predicate = CallablePredicate(
        check,
        referenced=frozenset(outer_columns),
        description=("NOT EXISTS" if negated else "EXISTS") + " semi-join",
    )
    return _outer_alias(subquery), predicate


# ----------------------------------------------------------------------
# IN / NOT IN
# ----------------------------------------------------------------------
def _compile_in(
    subquery: SubqueryPredicate,
    execute: Callable[[QuerySpec], List[Dict[str, Any]]],
) -> Tuple[str, Expression]:
    if subquery.outer_expr is None or subquery.inner_column is None:
        raise SubqueryError("IN subqueries need an outer expression and an inner column")
    negated = subquery.kind is SubqueryKind.NOT_IN
    inner = _prepare_inner(subquery, [subquery.inner_column])
    rows = execute(inner)
    inner_key = subquery.inner_column.qualified
    correlation_columns = [f"{alias}.{column}" for alias, column in _inner_projection(subquery)]
    outer_correlation = [
        f"{condition.left_alias}.{condition.left_column}" for condition in subquery.correlation
    ]

    values_by_key: Dict[Tuple[Any, ...], Set[Any]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in correlation_columns)
        values_by_key.setdefault(key, set()).add(row.get(inner_key))

    outer_expr = subquery.outer_expr

    # Three-valued: a row is kept only when the predicate is TRUE.  ``x IN
    # S`` is TRUE iff x is a non-NULL member of S.  ``x NOT IN S`` is TRUE
    # when S is empty (whatever x is), else iff x is not NULL, S holds no
    # NULL and x is not in S — a NULL on either side makes it UNKNOWN.
    def check(context: Dict[str, Any]) -> bool:
        value = outer_expr.evaluate(context)
        key = tuple(context.get(column) for column in outer_correlation)
        # a NULL correlation key matches no inner row: its subquery is empty
        members = None if NULL in key else values_by_key.get(key)
        if not negated:
            return value is not NULL and members is not None and value in members
        if not members:
            return True
        return value is not NULL and NULL not in members and value not in members

    referenced = frozenset(outer_expr.columns()) | frozenset(outer_correlation)
    predicate = CallablePredicate(
        check, referenced=referenced, description=("NOT IN" if negated else "IN") + " subquery"
    )
    return _outer_alias(subquery), predicate


# ----------------------------------------------------------------------
# scalar subqueries (e.g. TPC-H q17's per-partkey average)
# ----------------------------------------------------------------------
def _compile_scalar(
    subquery: SubqueryPredicate,
    execute: Callable[[QuerySpec], List[Dict[str, Any]]],
) -> Tuple[str, Expression]:
    if subquery.outer_expr is None or subquery.comparison_op is None:
        raise SubqueryError("scalar subqueries need an outer expression and a comparison op")
    if len(subquery.query.aggregates) != 1:
        raise SubqueryError("scalar subqueries must compute exactly one aggregate")
    comparator = _COMPARATORS.get(subquery.comparison_op)
    if comparator is None:
        raise SubqueryError(f"unsupported comparison operator {subquery.comparison_op!r}")

    inner = copy.deepcopy(subquery.query)
    inner.output = []
    inner.group_by = [
        ColumnRef(column, alias) for alias, column in _inner_projection(subquery)
    ]
    for alias, column in _inner_projection(subquery):
        inner.output.append(OutputColumn(ColumnRef(column, alias), f"{alias}.{column}"))
    rows = execute(inner)

    aggregate_alias = subquery.query.aggregates[0].alias
    correlation_columns = [f"{alias}.{column}" for alias, column in _inner_projection(subquery)]
    outer_correlation = [
        f"{condition.left_alias}.{condition.left_column}" for condition in subquery.correlation
    ]
    scalar_by_key: Dict[Tuple[Any, ...], Any] = {}
    for row in rows:
        key = tuple(row.get(column) for column in correlation_columns)
        scalar_by_key[key] = row.get(aggregate_alias)

    outer_expr = subquery.outer_expr

    def check(context: Dict[str, Any]) -> bool:
        value = outer_expr.evaluate(context)
        key = tuple(context.get(column) for column in outer_correlation)
        # a NULL correlation key matches no inner row: the scalar is NULL
        scalar = None if NULL in key else scalar_by_key.get(key)
        if value is NULL or scalar is NULL or scalar is None:
            return False
        return comparator(value, scalar)

    referenced = frozenset(outer_expr.columns()) | frozenset(outer_correlation)
    predicate = CallablePredicate(
        check, referenced=referenced, description=f"scalar {subquery.comparison_op} subquery"
    )
    return _outer_alias(subquery), predicate
