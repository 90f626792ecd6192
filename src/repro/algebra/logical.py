"""Logical query representation shared by every engine in the reproduction.

A :class:`QuerySpec` is a flat select-project-join-aggregate block (the IR
that the SQL binder produces, that the iterator/distributed baselines plan
from, and that the TAG-join compiler turns into a TAG traversal plan).  It
captures exactly the query class exercised in the paper's experiments:

* equi-join queries over aliased base relations (acyclic or cyclic),
* per-relation filter predicates (pushed-down selections),
* residual multi-relation predicates,
* GROUP BY + aggregation (local / global / scalar per Section 7),
* EXISTS / NOT EXISTS / IN / NOT IN / scalar subqueries, possibly
  correlated with the outer block,
* outer joins, DISTINCT and projections.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..relational.catalog import Catalog
from .expressions import ColumnRef, Expression


class QueryError(ValueError):
    """Raised for ill-formed query specifications."""


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left"
    RIGHT_OUTER = "right"
    FULL_OUTER = "full"
    SEMI = "semi"
    ANTI = "anti"


class AggFunc(enum.Enum):
    COUNT = "count"
    COUNT_DISTINCT = "count_distinct"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class SubqueryKind(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    IN = "in"
    NOT_IN = "not_in"
    SCALAR = "scalar"


class AggregationClass(enum.Enum):
    """The paper's taxonomy of aggregation styles (Section 7).

    NONE   - pure select-project-join query;
    LOCAL  - GROUP BY on one attribute (or attributes functionally
             determined by one), computable per attribute vertex;
    GLOBAL - multi-attribute GROUP BY needing a global aggregator vertex;
    SCALAR - aggregates with no GROUP BY (single output tuple).
    """

    NONE = "none"
    LOCAL = "local"
    GLOBAL = "global"
    SCALAR = "scalar"


@dataclass(frozen=True)
class TableRef:
    """A base relation occurrence ``table AS alias``."""

    table: str
    alias: str

    def __repr__(self) -> str:
        return f"{self.table} AS {self.alias}" if self.table != self.alias else self.table


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join condition ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> Tuple[str, str]:
        return (self.left_alias, self.right_alias)

    def reversed(self) -> "JoinCondition":
        return JoinCondition(
            self.right_alias, self.right_column, self.left_alias, self.left_column
        )

    def side(self, alias: str) -> Optional[str]:
        """The column on ``alias``'s side, or None if the alias is not involved."""
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        return None

    def __repr__(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list, e.g. ``SUM(l.price * l.qty) AS revenue``."""

    function: AggFunc
    argument: Optional[Expression]  # None means COUNT(*)
    alias: str

    def __post_init__(self) -> None:
        if self.argument is None and self.function not in (AggFunc.COUNT,):
            raise QueryError(f"{self.function.value} requires an argument expression")


@dataclass(frozen=True)
class OutputColumn:
    """A non-aggregate output column (a plain expression with an alias)."""

    expression: Expression
    alias: str


@dataclass
class SubqueryPredicate:
    """A subquery appearing as a predicate of the outer WHERE clause.

    ``correlation`` lists equi-join conditions whose *left* side refers to an
    alias of the outer block and whose *right* side refers to an alias of the
    inner block; the paper evaluates these with forward-lookup navigation
    (Section 7, Correlated Subqueries).
    """

    kind: SubqueryKind
    query: "QuerySpec"
    outer_expr: Optional[Expression] = None  # for IN / NOT IN / scalar compare
    inner_column: Optional[ColumnRef] = None  # subquery column matched by IN
    comparison_op: Optional[str] = None  # for scalar subqueries, e.g. ">"
    correlation: List[JoinCondition] = field(default_factory=list)

    @property
    def is_correlated(self) -> bool:
        return bool(self.correlation)


@dataclass
class OuterJoinSpec:
    """Marks one join edge as an outer join of the given type."""

    condition: JoinCondition
    join_type: JoinType


@dataclass
class QuerySpec:
    """A single SPJA query block (see module docstring)."""

    tables: List[TableRef] = field(default_factory=list)
    join_conditions: List[JoinCondition] = field(default_factory=list)
    filters: Dict[str, List[Expression]] = field(default_factory=dict)
    residual_predicates: List[Expression] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    output: List[OutputColumn] = field(default_factory=list)
    subqueries: List[SubqueryPredicate] = field(default_factory=list)
    outer_joins: List[OuterJoinSpec] = field(default_factory=list)
    distinct: bool = False
    name: str = "query"

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    def alias_map(self) -> Dict[str, str]:
        return {table_ref.alias: table_ref.table for table_ref in self.tables}

    def aliases(self) -> List[str]:
        return [table_ref.alias for table_ref in self.tables]

    def table_for(self, alias: str) -> str:
        for table_ref in self.tables:
            if table_ref.alias == alias:
                return table_ref.table
        raise QueryError(f"unknown alias {alias!r} in query {self.name!r}")

    def read_set(self) -> Tuple[str, ...]:
        """Every base relation the query reads, subquery blocks included
        (recursively), sorted and without repeats."""
        tables: Set[str] = set()
        pending = [self]
        while pending:
            block = pending.pop()
            tables.update(table_ref.table for table_ref in block.tables)
            pending.extend(subquery.query for subquery in block.subqueries)
        return tuple(sorted(tables))

    def filters_for(self, alias: str) -> List[Expression]:
        return self.filters.get(alias, [])

    def add_filter(self, alias: str, predicate: Expression) -> None:
        self.filters.setdefault(alias, []).append(predicate)

    def join_columns_of(self, alias: str) -> Set[str]:
        """All columns of ``alias`` used in some equi-join condition."""
        columns: Set[str] = set()
        for condition in self.join_conditions:
            column = condition.side(alias)
            if column is not None:
                columns.add(column)
        for sub in self.subqueries:
            for condition in sub.correlation:
                if condition.left_alias == alias:
                    columns.add(condition.left_column)
        return columns

    def required_columns_of(self, alias: str) -> Set[str]:
        """Columns of ``alias`` needed anywhere (joins, filters, output, aggregates)."""
        needed = set(self.join_columns_of(alias))
        for predicate in self.filters_for(alias):
            needed |= _own_columns(predicate, alias)
        for predicate in self.residual_predicates:
            needed |= _own_columns(predicate, alias)
        for output_column in self.output:
            needed |= _own_columns(output_column.expression, alias)
        for group_col in self.group_by:
            if group_col.table == alias:
                needed.add(group_col.column)
        for aggregate in self.aggregates:
            if aggregate.argument is not None:
                needed |= _own_columns(aggregate.argument, alias)
        return needed

    def outer_join_for(self, condition: JoinCondition) -> JoinType:
        for outer in self.outer_joins:
            if outer.condition == condition or outer.condition == condition.reversed():
                return outer.join_type
        return JoinType.INNER

    def result_columns(self) -> List[str]:
        """The result's column names, identical across every engine.

        Declared outputs come first (in SELECT-list order), then aggregate
        aliases.  A query with neither — possible through the builder API —
        falls back to the qualified columns the query references anywhere,
        alias by alias in FROM order with columns sorted: the projection
        the TAG engine materialises for such queries, and the narrowest
        common denominator across engines (the baselines may carry extra
        columns in their row dicts; those remain accessible via ``rows``
        but are not part of the declared column order).
        """
        columns = [column.alias for column in self.output]
        columns.extend(aggregate.alias for aggregate in self.aggregates)
        if columns:
            return columns
        for alias in self.aliases():
            columns.extend(
                f"{alias}.{column}" for column in sorted(self.required_columns_of(alias))
            )
        return columns

    # ------------------------------------------------------------------
    # validation & classification
    # ------------------------------------------------------------------
    def validate(self, catalog: Catalog) -> None:
        """Check that every table, alias and column reference resolves."""
        seen_aliases: Set[str] = set()
        for table_ref in self.tables:
            if table_ref.alias in seen_aliases:
                raise QueryError(f"duplicate alias {table_ref.alias!r}")
            seen_aliases.add(table_ref.alias)
            if table_ref.table not in catalog:
                raise QueryError(f"unknown relation {table_ref.table!r}")
        alias_map = self.alias_map()
        for condition in self.join_conditions:
            for alias, column in (
                (condition.left_alias, condition.left_column),
                (condition.right_alias, condition.right_column),
            ):
                if alias not in alias_map:
                    raise QueryError(f"join condition references unknown alias {alias!r}")
                schema = catalog.schema(alias_map[alias])
                if column not in schema:
                    raise QueryError(
                        f"join condition references unknown column {alias}.{column}"
                    )
        for alias in self.filters:
            if alias not in alias_map:
                raise QueryError(f"filter references unknown alias {alias!r}")
        for group_col in self.group_by:
            if group_col.table is not None and group_col.table not in alias_map:
                raise QueryError(f"GROUP BY references unknown alias {group_col.table!r}")
        for sub in self.subqueries:
            sub.query.validate(catalog)
            for condition in sub.correlation:
                if condition.left_alias not in alias_map:
                    raise QueryError(
                        "correlated subquery references unknown outer alias "
                        f"{condition.left_alias!r}"
                    )

    def aggregation_class(self, catalog: Optional[Catalog] = None) -> AggregationClass:
        """Classify the aggregation style (paper Section 7 taxonomy)."""
        if not self.aggregates:
            return AggregationClass.NONE
        if not self.group_by:
            return AggregationClass.SCALAR
        if len(self.group_by) == 1:
            return AggregationClass.LOCAL
        if catalog is not None and self._single_key_determines_groups(catalog):
            return AggregationClass.LOCAL
        return AggregationClass.GLOBAL

    def _single_key_determines_groups(self, catalog: Catalog) -> bool:
        """True when one GROUP BY attribute functionally determines the others.

        We use the key metadata available in the catalog: if some group-by
        column is the primary key of its relation and every other group-by
        column belongs to the same relation, the PK determines them.
        """
        alias_map = self.alias_map()
        for candidate in self.group_by:
            if candidate.table is None:
                continue
            table = alias_map.get(candidate.table)
            if table is None or table not in catalog:
                continue
            schema = catalog.schema(table)
            if not schema.is_primary_key(candidate.column):
                continue
            if all(other.table == candidate.table for other in self.group_by):
                return True
        return False

    # ------------------------------------------------------------------
    # graph-shaped views used by the GHD machinery
    # ------------------------------------------------------------------
    def join_graph_edges(self) -> List[Tuple[str, str]]:
        """Alias pairs connected by at least one equi-join condition."""
        edges = set()
        for condition in self.join_conditions:
            edge = tuple(sorted((condition.left_alias, condition.right_alias)))
            edges.add(edge)
        return sorted(edges)

    def is_connected(self) -> bool:
        """Whether the join graph connects every alias (no Cartesian product needed)."""
        aliases = self.aliases()
        if len(aliases) <= 1:
            return True
        adjacency: Dict[str, Set[str]] = {alias: set() for alias in aliases}
        for left, right in self.join_graph_edges():
            adjacency[left].add(right)
            adjacency[right].add(left)
        seen = {aliases[0]}
        frontier = [aliases[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(aliases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuerySpec({self.name}: {len(self.tables)} tables, "
            f"{len(self.join_conditions)} join conditions, "
            f"{len(self.aggregates)} aggregates)"
        )


def _own_columns(expression: Expression, alias: str) -> Set[str]:
    """Columns of ``expression`` qualified with ``alias``."""
    owned = set()
    for qualified in expression.columns():
        if "." in qualified:
            table, column = qualified.split(".", 1)
            if table == alias:
                owned.add(column)
        else:
            # unqualified references are resolved later; conservatively skip
            continue
    return owned
