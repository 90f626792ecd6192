"""Join-order planning for the RDBMS-style baseline engine.

A deliberately classical planner: push selections into scans, pick a greedy
left-deep join order driven by estimated (filtered) cardinalities, use the
configured binary join algorithm (hash / sort-merge / nested-loop), and
finish with residual filters, aggregation, projection and DISTINCT.  This
mirrors how the paper's reference RDBMSs execute the TPC queries and gives
the reproduction a "binary join plan" comparison point for every
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..algebra.expressions import Expression
from ..algebra.logical import JoinCondition, QuerySpec
from ..relational.catalog import Catalog
from ..tag.statistics import CatalogStatistics
from .operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    SeqScan,
    SortMergeJoin,
)


class PlanningError(ValueError):
    """Raised when the baseline planner cannot handle a query."""


@dataclass
class PlannerOptions:
    """Configuration emulating the different reference systems."""

    join_algorithm: str = "hash"  # "hash" | "sort_merge" | "nested_loop"


class Planner:
    """Builds a physical operator tree for a QuerySpec."""

    def __init__(self, catalog: Catalog, options: Optional[PlannerOptions] = None) -> None:
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.statistics = CatalogStatistics(catalog)

    # ------------------------------------------------------------------
    def plan(
        self,
        spec: QuerySpec,
        extra_filters: Optional[Dict[str, List[Expression]]] = None,
        extra_residuals: Optional[Sequence[Expression]] = None,
    ) -> PhysicalOperator:
        extra_filters = extra_filters or {}
        scans = {
            table_ref.alias: SeqScan(
                self.catalog.relation(table_ref.table),
                table_ref.alias,
                predicates=list(spec.filters_for(table_ref.alias))
                + list(extra_filters.get(table_ref.alias, [])),
            )
            for table_ref in spec.tables
        }
        estimates = {
            alias: self._estimate(spec, extra_filters, alias) for alias in scans
        }

        plan = self._join_order(spec, scans, estimates)

        residuals = list(spec.residual_predicates) + list(extra_residuals or [])
        if residuals:
            plan = Filter(plan, residuals)

        if spec.aggregates:
            group_columns = [
                f"{group_col.table}.{group_col.column}" if group_col.table else group_col.column
                for group_col in spec.group_by
            ]
            plan = HashAggregate(plan, group_columns, spec.aggregates, spec.output)
        elif spec.output:
            plan = Project(plan, spec.output)
        if spec.distinct and not spec.aggregates:
            plan = Distinct(plan)
        return plan

    # ------------------------------------------------------------------
    def _estimate(
        self, spec: QuerySpec, extra_filters: Dict[str, List[Expression]], alias: str
    ) -> float:
        """Filtered cardinality of ``alias``, from NDV-driven selectivities."""
        table = spec.table_for(alias)
        predicates = list(spec.filters_for(alias)) + list(extra_filters.get(alias, []))
        return self.statistics.estimated_rows(table, predicates)

    def _join_order(
        self,
        spec: QuerySpec,
        scans: Dict[str, SeqScan],
        estimates: Dict[str, float],
    ) -> PhysicalOperator:
        """Greedy left-deep join order: start small, always stay connected."""
        remaining = set(scans)
        if not remaining:
            raise PlanningError("query has no tables")
        current_alias = min(remaining, key=lambda alias: estimates[alias])
        plan: PhysicalOperator = scans[current_alias]
        joined = {current_alias}
        remaining.discard(current_alias)

        while remaining:
            candidates = []
            for alias in remaining:
                conditions = self._conditions_between(spec, joined, alias)
                candidates.append((bool(conditions), -len(conditions), estimates[alias], alias))
            # prefer connected aliases, then more join conditions, then smaller
            candidates.sort(key=lambda item: (not item[0], item[1], item[2], item[3]))
            _connected, _, _, alias = candidates[0]
            conditions = self._conditions_between(spec, joined, alias)
            plan = self._make_join(plan, scans[alias], conditions, joined, alias)
            joined.add(alias)
            remaining.discard(alias)
        return plan

    def _conditions_between(
        self, spec: QuerySpec, joined: Set[str], alias: str
    ) -> List[JoinCondition]:
        conditions = []
        for condition in spec.join_conditions:
            if condition.left_alias in joined and condition.right_alias == alias:
                conditions.append(condition)
            elif condition.right_alias in joined and condition.left_alias == alias:
                conditions.append(condition.reversed())
        return conditions

    def _make_join(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        conditions: List[JoinCondition],
        joined: Set[str],
        alias: str,
    ) -> PhysicalOperator:
        if not conditions:
            # no connecting condition: a Cartesian product via nested loops
            return NestedLoopJoin(left, right)
        left_keys = [f"{condition.left_alias}.{condition.left_column}" for condition in conditions]
        right_keys = [
            f"{condition.right_alias}.{condition.right_column}" for condition in conditions
        ]
        algorithm = self.options.join_algorithm
        if algorithm == "hash":
            return HashJoin(left, right, left_keys, right_keys)
        if algorithm == "sort_merge":
            return SortMergeJoin(left, right, left_keys, right_keys)
        if algorithm == "nested_loop":
            predicates = [
                _equality(condition) for condition in conditions
            ]
            return NestedLoopJoin(left, right, predicates)
        raise PlanningError(f"unknown join algorithm {algorithm!r}")


def _equality(condition: JoinCondition) -> Expression:
    from ..algebra.expressions import ColumnRef, Comparison

    return Comparison(
        "=",
        ColumnRef(condition.left_column, condition.left_alias),
        ColumnRef(condition.right_column, condition.right_alias),
    )
