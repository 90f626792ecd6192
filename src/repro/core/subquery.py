"""Subquery evaluation for the TAG-join executor (paper Section 7).

EXISTS / NOT EXISTS / IN / NOT IN and scalar subqueries — correlated or
not — are evaluated as a pre-pass: the inner block runs through the same
vertex-centric executor (recursively), its result is condensed into a
membership set or a per-correlation-key scalar map, and the outer block
receives an extra pushed-down filter on the correlated alias.  This is the
semi-join / anti-join strategy the paper describes for IN / EXISTS
constructs, realised with a reverse lookup (evaluate the inner block once,
then probe it from every outer tuple vertex during the reduction phase).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Set, Tuple

from ..algebra.expressions import ColumnRef, Expression, referenced_aliases
from ..algebra.logical import OutputColumn, QuerySpec, SubqueryKind, SubqueryPredicate
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
        scalar = scalar_by_key.get(key)
        if value is NULL or scalar is NULL or scalar is None:
            return False
        return comparator(value, scalar)

    referenced = frozenset(outer_expr.columns()) | frozenset(outer_correlation)
    predicate = CallablePredicate(
        check, referenced=referenced, description=f"scalar {subquery.comparison_op} subquery"
    )
    return _outer_alias(subquery), predicate
