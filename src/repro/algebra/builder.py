"""Fluent builder for :class:`~repro.algebra.logical.QuerySpec`.

The workload query sets and the examples construct queries either from SQL
text (``repro.sql``) or programmatically through this builder, which reads
close to the relational algebra the paper manipulates::

    query = (
        QueryBuilder("revenue_by_nation")
        .table("NATION", "n")
        .table("CUSTOMER", "c")
        .table("ORDERS", "o")
        .join("n", "N_NATIONKEY", "c", "C_NATIONKEY")
        .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
        .where("o", Comparison(">=", col("o.O_ORDERDATE"), lit(date(1995, 1, 1))))
        .group_by("n", "N_NAME")
        .aggregate(AggFunc.SUM, col("o.O_TOTALPRICE"), "revenue")
        .build()
    )
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .expressions import ColumnRef, Expression, col
from .logical import (
    AggFunc,
    AggregateSpec,
    JoinCondition,
    JoinType,
    OuterJoinSpec,
    OutputColumn,
    QueryError,
    QuerySpec,
    SubqueryKind,
    SubqueryPredicate,
    TableRef,
)


class QueryBuilder:
    """Incrementally assembles a :class:`QuerySpec`."""

    def __init__(self, name: str = "query") -> None:
        self._spec = QuerySpec(name=name)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def table(self, table: str, alias: Optional[str] = None) -> "QueryBuilder":
        self._spec.tables.append(TableRef(table, alias or table))
        return self

    def tables(self, *refs: Sequence[str]) -> "QueryBuilder":
        for ref in refs:
            if isinstance(ref, str):
                self.table(ref)
            else:
                self.table(*ref)
        return self

    # ------------------------------------------------------------------
    # join conditions
    # ------------------------------------------------------------------
    def join(
        self,
        left_alias: str,
        left_column: str,
        right_alias: str,
        right_column: str,
        join_type: JoinType = JoinType.INNER,
    ) -> "QueryBuilder":
        condition = JoinCondition(left_alias, left_column, right_alias, right_column)
        self._spec.join_conditions.append(condition)
        if join_type is not JoinType.INNER:
            self._spec.outer_joins.append(OuterJoinSpec(condition, join_type))
        return self

    # ------------------------------------------------------------------
    # WHERE clause
    # ------------------------------------------------------------------
    def where(self, alias: str, predicate: Expression) -> "QueryBuilder":
        """Single-relation filter on ``alias`` (pushed down to that relation)."""
        self._spec.add_filter(alias, predicate)
        return self

    # ------------------------------------------------------------------
    # subqueries
    # ------------------------------------------------------------------
    def exists(
        self,
        subquery: QuerySpec,
        correlation: Iterable[JoinCondition] = (),
        negated: bool = False,
    ) -> "QueryBuilder":
        kind = SubqueryKind.NOT_EXISTS if negated else SubqueryKind.EXISTS
        self._spec.subqueries.append(
            SubqueryPredicate(kind=kind, query=subquery, correlation=list(correlation))
        )
        return self

    # ------------------------------------------------------------------
    # GROUP BY / aggregates / SELECT list
    # ------------------------------------------------------------------
    def group_by(self, alias: str, column: str) -> "QueryBuilder":
        self._spec.group_by.append(ColumnRef(column, alias))
        return self

    def aggregate(
        self, function: AggFunc, argument: Optional[Expression], alias: str
    ) -> "QueryBuilder":
        self._spec.aggregates.append(AggregateSpec(function, argument, alias))
        return self

    def count_star(self, alias: str = "count") -> "QueryBuilder":
        return self.aggregate(AggFunc.COUNT, None, alias)

    def select(self, expression: Expression, alias: Optional[str] = None) -> "QueryBuilder":
        if alias is None:
            if isinstance(expression, ColumnRef):
                alias = expression.column
            else:
                raise QueryError("non-column output expressions need an explicit alias")
        self._spec.output.append(OutputColumn(expression, alias))
        return self

    def select_columns(self, *qualified_names: str) -> "QueryBuilder":
        for qualified in qualified_names:
            self.select(col(qualified))
        return self

    def distinct(self, flag: bool = True) -> "QueryBuilder":
        self._spec.distinct = flag
        return self

    # ------------------------------------------------------------------
    def build(self) -> QuerySpec:
        if not self._spec.tables:
            raise QueryError("a query needs at least one table")
        return self._spec
