"""Bind a parsed SQL statement against a catalog, producing a QuerySpec.

The binder performs name resolution (aliases, unqualified columns,
correlated references to the outer block), splits the WHERE clause into
pushed-down single-relation filters, equi-join conditions, residual
multi-relation predicates and subquery predicates, and classifies the
SELECT list into plain output columns and aggregates — i.e. it produces
exactly the :class:`~repro.algebra.logical.QuerySpec` IR the TAG-join
compiler and the baseline engines consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    ExpressionError,
    InList,
    IsNull,
    Like,
    Literal,
    Or,
    negate,
    referenced_aliases,
)
from ..algebra.parameters import ParameterRef
from ..algebra.logical import (
    AggFunc,
    AggregateSpec,
    JoinCondition,
    JoinType,
    OuterJoinSpec,
    OutputColumn,
    QuerySpec,
    SubqueryKind,
    SubqueryPredicate,
    TableRef,
)
from ..relational.catalog import Catalog
from . import ast as sql_ast


class SqlBindError(ValueError):
    """Raised when a statement cannot be bound against the catalog."""


_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
_COMPARISON_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}
_AGG_FUNCTIONS = {
    "COUNT": AggFunc.COUNT,
    "SUM": AggFunc.SUM,
    "AVG": AggFunc.AVG,
    "MIN": AggFunc.MIN,
    "MAX": AggFunc.MAX,
}


class _Scope:
    """Alias/column resolution scope, chained to the outer query's scope."""

    def __init__(
        self, catalog: Catalog, tables: Sequence[TableRef], outer: Optional["_Scope"] = None
    ) -> None:
        self.catalog = catalog
        self.tables = list(tables)
        self.outer = outer
        self.alias_map = {table.alias: table.table for table in tables}
        self._column_owners: Dict[str, List[str]] = {}
        for table in tables:
            for column in catalog.schema(table.table).column_names:
                self._column_owners.setdefault(column, []).append(table.alias)

    def owns_alias(self, alias: str) -> bool:
        return alias in self.alias_map

    def resolve(self, node: sql_ast.ColumnNode) -> Tuple[str, str, bool]:
        """Resolve to ``(alias, column, is_outer)``."""
        if node.table is not None:
            if self.owns_alias(node.table):
                self._check_column(node.table, node.column)
                return node.table, node.column, False
            if self.outer is not None:
                alias, column, _ = self.outer.resolve(node)
                return alias, column, True
            raise SqlBindError(f"unknown table alias {node.table!r}")
        owners = self._column_owners.get(node.column, [])
        if len(owners) == 1:
            return owners[0], node.column, False
        if len(owners) > 1:
            raise SqlBindError(f"ambiguous column {node.column!r}: {owners}")
        if self.outer is not None:
            alias, column, _ = self.outer.resolve(node)
            return alias, column, True
        raise SqlBindError(f"unknown column {node.column!r}")

    def _check_column(self, alias: str, column: str) -> None:
        schema = self.catalog.schema(self.alias_map[alias])
        if column != "*" and column not in schema:
            raise SqlBindError(f"relation {self.alias_map[alias]!r} has no column {column!r}")


class Binder:
    """Binds :class:`~repro.sql.ast.SelectStatement` trees to QuerySpecs."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def bind(self, statement: sql_ast.SelectStatement, name: str = "query") -> QuerySpec:
        return self._bind_select(statement, outer_scope=None, name=name)

    # ------------------------------------------------------------------
    def _bind_select(
        self,
        statement: sql_ast.SelectStatement,
        outer_scope: Optional[_Scope],
        name: str,
    ) -> QuerySpec:
        spec = QuerySpec(name=name)
        sources = list(statement.sources) + [join.source for join in statement.joins]
        for source in sources:
            if source.table not in self.catalog:
                raise SqlBindError(f"unknown relation {source.table!r}")
            spec.tables.append(TableRef(source.table, source.alias))
        scope = _Scope(self.catalog, spec.tables, outer=outer_scope)

        if statement.having is not None:
            raise SqlBindError("HAVING is not supported by this SQL subset")

        # WHERE clause plus every JOIN ... ON condition
        conjuncts: List[sql_ast.ExprNode] = []
        if statement.where is not None:
            conjuncts.extend(_split_and(statement.where))
        outer_join_marks: List[Tuple[sql_ast.ExprNode, str]] = []
        for join in statement.joins:
            for conjunct in _split_and(join.condition):
                conjuncts.append(conjunct)
                if join.kind != "inner":
                    outer_join_marks.append((conjunct, join.kind))
        for conjunct in conjuncts:
            self._bind_conjunct(spec, scope, conjunct)

        # outer-join markings (recorded for engines that support them)
        for conjunct, kind in outer_join_marks:
            condition = self._as_join_condition(scope, conjunct)
            if condition is None:
                raise SqlBindError("outer join conditions must be single equi-joins")
            join_type = {
                "left": JoinType.LEFT_OUTER,
                "right": JoinType.RIGHT_OUTER,
                "full": JoinType.FULL_OUTER,
            }[kind]
            spec.outer_joins.append(OuterJoinSpec(condition, join_type))

        # SELECT list
        spec.distinct = statement.distinct
        for item in statement.items:
            self._bind_select_item(spec, scope, item)
        # result rows are keyed by column name, so a repeated name would
        # silently keep only one of the columns
        aliases = [column.alias for column in spec.output]
        aliases += [aggregate.alias for aggregate in spec.aggregates]
        seen = set()
        for alias in aliases:
            if alias in seen:
                raise SqlBindError(
                    f"output column {alias!r} appears more than once in the SELECT list; "
                    "rename one with AS"
                )
            seen.add(alias)

        # GROUP BY
        for group_expr in statement.group_by:
            if not isinstance(group_expr, sql_ast.ColumnNode):
                raise SqlBindError("GROUP BY supports plain column references only")
            alias, column, is_outer = scope.resolve(group_expr)
            if is_outer:
                raise SqlBindError("GROUP BY cannot reference the outer query")
            spec.group_by.append(ColumnRef(column, alias))
        return spec

    # ------------------------------------------------------------------
    # SELECT list
    # ------------------------------------------------------------------
    def _bind_select_item(
        self, spec: QuerySpec, scope: _Scope, item: sql_ast.SelectItem
    ) -> None:
        expression = item.expression
        if isinstance(expression, sql_ast.ColumnNode) and expression.column == "*":
            self._expand_star(spec, scope, expression.table)
            return
        if isinstance(expression, sql_ast.FuncNode):
            function = _AGG_FUNCTIONS.get(expression.name)
            if function is None:
                raise SqlBindError(f"unsupported function {expression.name!r}")
            if expression.distinct:
                if function is not AggFunc.COUNT:
                    raise SqlBindError("DISTINCT is only supported inside COUNT()")
                function = AggFunc.COUNT_DISTINCT
            argument = (
                self._bind_scalar(scope, expression.argument)
                if expression.argument is not None
                else None
            )
            alias = item.alias or f"{expression.name.lower()}_{len(spec.aggregates) + 1}"
            spec.aggregates.append(AggregateSpec(function, argument, alias))
            return
        if _contains_aggregate(expression):
            raise SqlBindError(
                "aggregates must appear as top-level SELECT items in this SQL subset"
            )
        bound = self._bind_scalar(scope, expression)
        alias = item.alias
        if alias is None:
            if isinstance(bound, ColumnRef):
                alias = bound.column
            else:
                alias = f"expr_{len(spec.output) + 1}"
        spec.output.append(OutputColumn(bound, alias))

    def _expand_star(self, spec: QuerySpec, scope: _Scope, table: Optional[str]) -> None:
        aliases = [table] if table else [ref.alias for ref in spec.tables]
        for alias in aliases:
            if alias not in scope.alias_map:
                raise SqlBindError(f"unknown table alias {alias!r}")
            schema = self.catalog.schema(scope.alias_map[alias])
            for column in schema.column_names:
                spec.output.append(
                    OutputColumn(ColumnRef(column, alias), f"{alias}.{column}")
                )

    # ------------------------------------------------------------------
    # WHERE conjuncts
    # ------------------------------------------------------------------
    def _bind_conjunct(
        self, spec: QuerySpec, scope: _Scope, conjunct: sql_ast.ExprNode
    ) -> None:
        # subquery predicates
        if isinstance(conjunct, sql_ast.ExistsNode):
            self._bind_exists(spec, scope, conjunct, negated=False)
            return
        if isinstance(conjunct, sql_ast.NotNode) and isinstance(
            conjunct.operand, sql_ast.ExistsNode
        ):
            self._bind_exists(spec, scope, conjunct.operand, negated=True)
            return
        if isinstance(conjunct, sql_ast.InSubqueryNode):
            self._bind_in_subquery(spec, scope, conjunct)
            return
        if isinstance(conjunct, sql_ast.BinaryOpNode) and isinstance(
            conjunct.right, sql_ast.ScalarSubqueryNode
        ):
            self._bind_scalar_subquery(spec, scope, conjunct)
            return

        # plain equi-join condition between two aliases of this block?
        condition = self._as_join_condition(scope, conjunct)
        if condition is not None:
            spec.join_conditions.append(condition)
            return

        # otherwise: a filter; attach to its single alias or keep as residual
        bound = self._bind_scalar(scope, conjunct)
        aliases = referenced_aliases(bound)
        local_aliases = {alias for alias in aliases if scope.owns_alias(alias)}
        if len(local_aliases) == 1 and aliases == local_aliases:
            spec.add_filter(next(iter(local_aliases)), bound)
        else:
            spec.residual_predicates.append(bound)

    def _as_join_condition(
        self, scope: _Scope, conjunct: sql_ast.ExprNode
    ) -> Optional[JoinCondition]:
        if not isinstance(conjunct, sql_ast.BinaryOpNode) or conjunct.op != "=":
            return None
        if not (
            isinstance(conjunct.left, sql_ast.ColumnNode)
            and isinstance(conjunct.right, sql_ast.ColumnNode)
        ):
            return None
        left_alias, left_column, left_outer = scope.resolve(conjunct.left)
        right_alias, right_column, right_outer = scope.resolve(conjunct.right)
        if left_outer or right_outer:
            return None  # correlated equality, handled by the subquery machinery
        if left_alias == right_alias:
            return None
        return JoinCondition(left_alias, left_column, right_alias, right_column)

    # ------------------------------------------------------------------
    # subquery predicates
    # ------------------------------------------------------------------
    def _bind_exists(
        self,
        spec: QuerySpec,
        scope: _Scope,
        node: sql_ast.ExistsNode,
        negated: bool,
    ) -> None:
        inner_spec, correlation = self._bind_subquery(scope, node.subquery)
        kind = SubqueryKind.NOT_EXISTS if negated else SubqueryKind.EXISTS
        spec.subqueries.append(
            SubqueryPredicate(kind=kind, query=inner_spec, correlation=correlation)
        )

    def _bind_in_subquery(
        self, spec: QuerySpec, scope: _Scope, node: sql_ast.InSubqueryNode
    ) -> None:
        inner_spec, correlation = self._bind_subquery(scope, node.subquery)
        if len(inner_spec.output) != 1:
            raise SqlBindError("IN subqueries must select exactly one column")
        inner_column = inner_spec.output[0].expression
        if not isinstance(inner_column, ColumnRef):
            raise SqlBindError("IN subqueries must select a plain column")
        outer_expr = self._bind_scalar(scope, node.operand)
        kind = SubqueryKind.NOT_IN if node.negated else SubqueryKind.IN
        spec.subqueries.append(
            SubqueryPredicate(
                kind=kind,
                query=inner_spec,
                outer_expr=outer_expr,
                inner_column=inner_column,
                correlation=correlation,
            )
        )

    def _bind_scalar_subquery(
        self, spec: QuerySpec, scope: _Scope, node: sql_ast.BinaryOpNode
    ) -> None:
        if node.op not in _COMPARISON_OPS:
            raise SqlBindError("scalar subqueries must appear in comparisons")
        subquery_node = node.right
        assert isinstance(subquery_node, sql_ast.ScalarSubqueryNode)
        inner_spec, correlation = self._bind_subquery(scope, subquery_node.subquery)
        if len(inner_spec.aggregates) != 1 or inner_spec.output:
            raise SqlBindError("scalar subqueries must compute exactly one aggregate")
        outer_expr = self._bind_scalar(scope, node.left)
        spec.subqueries.append(
            SubqueryPredicate(
                kind=SubqueryKind.SCALAR,
                query=inner_spec,
                outer_expr=outer_expr,
                comparison_op=node.op,
                correlation=correlation,
            )
        )

    def _bind_subquery(
        self, scope: _Scope, statement: sql_ast.SelectStatement
    ) -> Tuple[QuerySpec, List[JoinCondition]]:
        """Bind an inner block and pull out its correlation conditions.

        Equality conjuncts of the inner WHERE clause that reference exactly
        one outer column and one inner column are removed from the inner
        spec and returned as correlation conditions (outer side left,
        inner side right), matching the forward-lookup evaluation strategy
        of paper Section 7.
        """
        inner_spec = self._bind_select(statement, outer_scope=scope, name="subquery")
        correlation: List[JoinCondition] = []
        remaining_residuals: List[Expression] = []
        inner_aliases = set(inner_spec.aliases())
        for predicate in inner_spec.residual_predicates:
            condition = _correlation_condition(predicate, inner_aliases)
            if condition is not None:
                correlation.append(condition)
            else:
                remaining_residuals.append(predicate)
        inner_spec.residual_predicates = remaining_residuals

        # filters that slipped through referencing outer aliases only
        for alias in list(inner_spec.filters):
            if alias not in inner_aliases:
                raise SqlBindError(
                    f"subquery filter references alias {alias!r} outside the subquery"
                )
        return inner_spec, correlation

    # ------------------------------------------------------------------
    # scalar expression binding
    # ------------------------------------------------------------------
    def _bind_scalar(self, scope: _Scope, node: sql_ast.ExprNode) -> Expression:
        if isinstance(node, sql_ast.LiteralNode):
            return Literal(node.value)
        if isinstance(node, sql_ast.ColumnNode):
            alias, column, _is_outer = scope.resolve(node)
            return ColumnRef(column, alias)
        if isinstance(node, sql_ast.BinaryOpNode):
            left = self._bind_scalar(scope, node.left)
            right = self._bind_scalar(scope, node.right)
            if node.op in _ARITHMETIC_OPS:
                return Arithmetic(node.op, left, right)
            if node.op in _COMPARISON_OPS:
                return Comparison(node.op, left, right)
            raise SqlBindError(f"unsupported operator {node.op!r}")
        if isinstance(node, sql_ast.BoolOpNode):
            operands = [self._bind_scalar(scope, operand) for operand in node.operands]
            return And(operands) if node.op == "AND" else Or(operands)
        if isinstance(node, sql_ast.NotNode):
            operand = self._bind_scalar(scope, node.operand)
            try:
                return negate(operand)
            except ExpressionError as error:
                raise SqlBindError(str(error)) from None
        if isinstance(node, sql_ast.IsNullNode):
            return IsNull(self._bind_scalar(scope, node.operand), node.negated)
        if isinstance(node, sql_ast.BetweenNode):
            return Between(
                self._bind_scalar(scope, node.operand),
                self._bind_scalar(scope, node.low),
                self._bind_scalar(scope, node.high),
            )
        if isinstance(node, sql_ast.LikeNode):
            return Like(self._bind_scalar(scope, node.operand), node.pattern, node.negated)
        if isinstance(node, sql_ast.InListNode):
            values = tuple(
                ParameterRef(value.name)
                if isinstance(value, sql_ast.ParameterNode)
                else value
                for value in node.values
            )
            return InList(self._bind_scalar(scope, node.operand), values, node.negated)
        if isinstance(node, sql_ast.ParameterNode):
            return ParameterRef(node.name)
        if isinstance(node, (sql_ast.ExistsNode, sql_ast.InSubqueryNode, sql_ast.ScalarSubqueryNode)):
            raise SqlBindError(
                "subqueries may only appear as top-level WHERE conjuncts in this SQL subset"
            )
        if isinstance(node, sql_ast.FuncNode):
            raise SqlBindError("aggregate functions cannot appear inside WHERE expressions")
        raise SqlBindError(f"unsupported expression node {type(node).__name__}")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _split_and(node: sql_ast.ExprNode) -> List[sql_ast.ExprNode]:
    if isinstance(node, sql_ast.BoolOpNode) and node.op == "AND":
        conjuncts: List[sql_ast.ExprNode] = []
        for operand in node.operands:
            conjuncts.extend(_split_and(operand))
        return conjuncts
    return [node]


def _contains_aggregate(node: sql_ast.ExprNode) -> bool:
    if isinstance(node, sql_ast.FuncNode):
        return True
    if isinstance(node, sql_ast.BinaryOpNode):
        return _contains_aggregate(node.left) or _contains_aggregate(node.right)
    if isinstance(node, sql_ast.BoolOpNode):
        return any(_contains_aggregate(operand) for operand in node.operands)
    if isinstance(node, sql_ast.NotNode):
        return _contains_aggregate(node.operand)
    return False


def _correlation_condition(
    predicate: Expression, inner_aliases: Set[str]
) -> Optional[JoinCondition]:
    """Detect ``outer.column = inner.column`` equality predicates."""
    if not isinstance(predicate, Comparison) or predicate.op not in ("=", "=="):
        return None
    left, right = predicate.left, predicate.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    left_inner = left.table in inner_aliases
    right_inner = right.table in inner_aliases
    if left_inner and not right_inner:
        return JoinCondition(right.table, right.column, left.table, left.column)
    if right_inner and not left_inner:
        return JoinCondition(left.table, left.column, right.table, right.column)
    return None


def bind_sql(statement: sql_ast.SelectStatement, catalog: Catalog, name: str = "query") -> QuerySpec:
    return Binder(catalog).bind(statement, name=name)
