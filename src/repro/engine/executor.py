"""The RDBMS-style baseline executor.

Stands in for the paper's reference relational systems (PostgreSQL,
RDBMS-X, RDBMS-Y): a single-node engine evaluating QuerySpec blocks with
binary join plans over in-memory relations plus PK/FK indexes.  It shares
the QuerySpec IR, expression machinery and result shape with the TAG-join
executor so the benchmark harness can compare them query for query — and
the test suite uses it as the ground truth the vertex-centric results must
match.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..algebra.expressions import Expression
from ..algebra.logical import QuerySpec
from ..bsp.metrics import RunMetrics
from ..core import operations as ops
from ..core.cancellation import check_cancelled
from ..core.executor import QueryResult, refuse_outer_joins
from ..core.subquery import compile_subquery_filters
from ..relational.catalog import Catalog
from .indexes import IndexCatalog, build_indexes
from .operators import PhysicalOperator
from .planner import Planner, PlannerOptions


class RelationalExecutor:
    """Single-node binary-join baseline ("the RDBMS comfort zone")."""

    def __init__(
        self,
        catalog: Catalog,
        join_algorithm: str = "hash",
        build_pk_fk_indexes: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.catalog = catalog
        self.options = PlannerOptions(join_algorithm=join_algorithm)
        self.planner = Planner(catalog, self.options)
        self.indexes: Optional[IndexCatalog] = (
            build_indexes(catalog) if build_pk_fk_indexes else None
        )
        self.name = name or f"rdbms[{join_algorithm}]"

    # ------------------------------------------------------------------
    def apply(self, delta: Any, catalog_version: int) -> None:
        """Index a data-only write instead of being retired.

        The relation's row list is shared with the catalog, so the only
        executor-private state to patch is the PK/FK index catalog: the
        tombstoned rows' entries leave (surviving positions never move)
        and each appended row enters the relevant hash buckets and
        sorted-index slots — local work, the point of the paper's index
        maintenance comparison.  The planner's statistics read the catalog
        live, so they need no patch.
        """
        del catalog_version  # the rdbms engine binds no version
        if self.indexes is None:
            return
        relation = self.catalog.relation(delta.relation)
        if delta.deleted_rows:
            self.indexes.remove_rows(relation, delta.deleted_rows, delta.deleted_positions)
        if delta.inserted_rows:
            # the write appended past every existing physical slot
            start = relation.physical_count - len(delta.inserted_rows)
            self.indexes.add_rows(relation, delta.inserted_rows, start)

    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> QueryResult:
        spec.validate(self.catalog)
        metrics = RunMetrics(label=f"{self.name}:{spec.name}")
        started = time.perf_counter()
        rows, columns, aggregation_class = self._execute_block(spec)
        metrics.wall_time_seconds = time.perf_counter() - started
        return QueryResult(rows, columns, metrics, aggregation_class)

    def execute_sql(self, sql: str) -> QueryResult:
        from ..sql import parse_and_bind

        return self.execute(parse_and_bind(sql, self.catalog))

    def explain(self, spec: QuerySpec, analyze: bool = False) -> str:
        """The physical plan as an indented string (EXPLAIN [ANALYZE])."""
        spec.validate(self.catalog)
        plan = self._plan_block(spec)
        rendered = plan.explain()
        if analyze:
            result = self.execute(spec)
            rendered += (
                f"\nactual: {len(result.rows)} rows, "
                f"{result.metrics.wall_time_seconds:.4f}s wall"
            )
        return rendered

    # ------------------------------------------------------------------
    def _execute_block(self, spec: QuerySpec):
        plan = self._plan_block(spec)
        # drain the operator tree with a periodic cooperative cancellation
        # check so deadline-exceeded queries stop at a batch boundary
        rows: List[Any] = []
        append = rows.append
        for index, row in enumerate(plan):
            if not (index & 1023):
                check_cancelled()
            append(row)
        columns = self._columns(spec)
        return rows, columns, spec.aggregation_class(self.catalog)

    def _plan_block(self, spec: QuerySpec) -> PhysicalOperator:
        refuse_outer_joins(spec, self.name)
        extra_filters: Dict[str, List[Expression]] = {}
        extra_residuals: List[Expression] = []
        if spec.subqueries:
            extra_filters, extra_residuals = compile_subquery_filters(
                spec.subqueries, lambda inner: self._nested_rows(inner)
            )
        return self.planner.plan(spec, extra_filters, extra_residuals)

    def _nested_rows(self, inner: QuerySpec) -> List[Dict[str, Any]]:
        inner.validate(self.catalog)
        rows, _columns, _agg = self._execute_block(inner)
        if inner.distinct and not inner.aggregates:
            rows = ops.deduplicate(rows)
        return rows

    def _columns(self, spec: QuerySpec) -> List[str]:
        # shared across all engines so results line up column for column
        return spec.result_columns()

    # ------------------------------------------------------------------
    def loading_report(self) -> Dict[str, Any]:
        """Base-table and index loading statistics (Tables 1/2, Figure 14)."""
        report = {
            "data_bytes": self.catalog.total_data_size_bytes(),
            "index_bytes": self.indexes.size_bytes() if self.indexes else 0,
            "index_build_seconds": self.indexes.build_seconds if self.indexes else 0.0,
            "index_count": self.indexes.index_count() if self.indexes else 0,
        }
        report["total_bytes"] = report["data_bytes"] + report["index_bytes"]
        return report
