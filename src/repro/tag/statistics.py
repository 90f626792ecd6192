"""Size, shape and value statistics backing the TAG-join planner.

Backs the reproduction of Figure 14 (loaded data sizes) and Tables 1/2
(loading times), and provides the degree/selectivity statistics the
TAG-join planner uses to pick traversal orders and heavy/light thresholds.

The second half of the module is the catalog-level statistics store the
cost-based planner consumes: per-relation cardinalities plus per-column
distinct-value counts (NDV), null counts and derived selectivities,
gathered in one pass over the loaded catalog.  These numbers feed the
message-volume cost model of :mod:`repro.planner.cost` and the
cardinality estimates of the baseline engine's join-order planner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..algebra.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from ..algebra.parameters import ParameterRef
from ..relational.catalog import Catalog
from ..relational.relation import Relation
from ..relational.types import NULL
from .encoder import TagGraph, edge_label


@dataclass
class TagStatistics:
    """Summary statistics of a TAG graph."""

    tuple_vertices: int
    attribute_vertices: int
    edges: int
    total_bytes: int
    load_seconds: float
    vertices_by_label: Dict[str, int]

    @classmethod
    def of(cls, graph: TagGraph) -> "TagStatistics":
        report = graph.load_report
        return cls(
            tuple_vertices=report.tuple_vertices,
            attribute_vertices=report.attribute_vertices,
            edges=graph.edge_count,
            total_bytes=report.total_bytes,
            load_seconds=report.seconds,
            vertices_by_label=graph.count_by_label(),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tuple_vertices": self.tuple_vertices,
            "attribute_vertices": self.attribute_vertices,
            "edges": self.edges,
            "total_bytes": self.total_bytes,
            "load_seconds": self.load_seconds,
        }


def edge_label_degrees(graph: TagGraph, relation: str, column: str) -> List[int]:
    """Out-degrees of attribute vertices along ``relation.column`` edges.

    Degree 1 everywhere means the column is key-like; large degrees signal
    skew (heavy values), which is what the heavy/light split of the cyclic
    algorithm keys on (Section 6.1.2).
    """
    targets = graph.attribute_adjacency(edge_label(relation, column)).values()
    return [len(tuples) for tuples in targets]


def column_selectivity(graph: TagGraph, relation: str, column: str) -> float:
    """Distinct values / tuples for a column, estimated from the TAG graph."""
    degrees = edge_label_degrees(graph, relation, column)
    total = sum(degrees)
    if total == 0:
        return 0.0
    return len(degrees) / total


def heavy_value_count(graph: TagGraph, relation: str, column: str, threshold: int) -> int:
    """Number of values occurring more than ``threshold`` times in ``relation.column``."""
    return sum(1 for degree in edge_label_degrees(graph, relation, column) if degree > threshold)


def storage_comparison(graph: TagGraph, catalog: Catalog) -> Dict[str, int]:
    """Bytes stored relationally vs as a TAG graph (Figure 14's comparison)."""
    return {
        "relational_bytes": catalog.total_data_size_bytes(),
        "tag_bytes": graph.load_report.total_bytes,
        "tag_tuple_bytes": graph.load_report.tuple_bytes,
        "tag_attribute_bytes": graph.load_report.attribute_bytes,
        "tag_edge_bytes": graph.load_report.edge_bytes,
    }


# ----------------------------------------------------------------------
# catalog-level statistics for the cost-based planner
# ----------------------------------------------------------------------
#: selectivity assumed for predicates the estimator has no model for
DEFAULT_PREDICATE_SELECTIVITY = 1.0 / 3.0
#: selectivity assumed for range comparisons (<, <=, >, >=)
RANGE_SELECTIVITY = 1.0 / 3.0
#: selectivity assumed for BETWEEN predicates
BETWEEN_SELECTIVITY = 1.0 / 4.0
#: selectivity assumed for LIKE predicates
LIKE_SELECTIVITY = 1.0 / 4.0


@dataclass(frozen=True)
class ColumnStatistics:
    """Value statistics of one column: distinct and null counts (exact)."""

    column: str
    distinct_values: int
    null_count: int
    row_count: int

    @property
    def selectivity(self) -> float:
        """Distinct values per row (1.0 means key-like, small means skewed)."""
        if self.row_count == 0:
            return 0.0
        return self.distinct_values / self.row_count

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and per-column statistics of one base relation."""

    relation: str
    rows: int
    bytes: int
    columns: Dict[str, ColumnStatistics]

    @classmethod
    def of(cls, relation: Relation) -> "RelationStatistics":
        names = relation.schema.column_names
        nulls = [0] * len(names)
        for row in relation:
            for position, value in enumerate(row):
                if value is NULL:
                    nulls[position] += 1
        row_count = len(relation)
        # NDV comes from the relation: a catalog-bound one reads the live
        # value refcounts its column store maintains on every mutation
        # (exact, O(1)); unbound relations fall back to a memoized scan.
        columns = {
            name: ColumnStatistics(
                column=name,
                distinct_values=relation.distinct_count(name),
                null_count=null_count,
                row_count=row_count,
            )
            for name, null_count in zip(names, nulls)
        }
        return cls(
            relation=relation.name,
            rows=row_count,
            bytes=relation.data_size_bytes(),
            columns=columns,
        )

    def ndv(self, column: str) -> int:
        stats = self.columns.get(column)
        return stats.distinct_values if stats is not None else max(1, self.rows)

    def with_delta(
        self, relation: Relation, rows: Sequence[Sequence[Any]]
    ) -> "RelationStatistics":
        """A copy reflecting ``rows`` (coerced value tuples) appended, at a
        cost proportional to ``rows``.

        Cardinality and null counts move by exactly the delta; NDV and
        bytes are read back from ``relation``, which must already hold the
        write (its column store counts live occurrences per value and
        keeps the byte total).  The result therefore *equals* :meth:`of`
        on the same relation.
        """
        return self._folded(relation, rows, 1)

    def with_removals(
        self, relation: Relation, removed_rows: Sequence[Sequence[Any]]
    ) -> "RelationStatistics":
        """The deletion mirror of :meth:`with_delta`, read after the rows
        were tombstoned.  A count going negative means the delta and the
        relation disagree: that is a bookkeeping bug to surface (the write
        path rolls back), so it raises instead of clamping at zero.
        """
        return self._folded(relation, removed_rows, -1)

    def _folded(
        self, relation: Relation, rows: Sequence[Sequence[Any]], sign: int
    ) -> "RelationStatistics":
        row_count = self.rows + sign * len(rows)
        if row_count < 0:
            raise ValueError(f"{self.relation}: row count would fall to {row_count}")
        columns: Dict[str, ColumnStatistics] = {}
        for position, name in enumerate(relation.schema.column_names):
            nulls = self.columns[name].null_count + sign * sum(
                1 for row in rows if row[position] is NULL
            )
            if nulls < 0:
                raise ValueError(
                    f"{self.relation}.{name}: null count would fall to {nulls}"
                )
            columns[name] = ColumnStatistics(
                column=name,
                distinct_values=relation.distinct_count(name),
                null_count=nulls,
                row_count=row_count,
            )
        return replace(
            self, rows=row_count, bytes=relation.data_size_bytes(), columns=columns
        )


@dataclass
class CatalogStatistics:
    """Statistics of a whole catalog, collected once at load time.

    ``collect`` makes a single pass over every relation; the planner holds
    on to the resulting object for the life of the executor and refreshes
    it only when the catalog version changes (see
    :meth:`repro.relational.catalog.Catalog.version`).
    """

    catalog_name: str
    catalog_version: int
    relations: Dict[str, RelationStatistics] = field(default_factory=dict)
    collection_seconds: float = 0.0

    @classmethod
    def collect(cls, catalog: Catalog) -> "CatalogStatistics":
        started = time.perf_counter()
        relations = {relation.name: RelationStatistics.of(relation) for relation in catalog}
        return cls(
            catalog_name=catalog.name,
            catalog_version=catalog.version,
            relations=relations,
            collection_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def apply(self, catalog: Catalog, delta: Any) -> None:
        """Fold a write's :class:`~repro.incremental.delta.Delta` in, in place.

        Must run *after* the relation tombstoned the delta's deleted rows
        and appended its inserted ones (NDV and bytes are read back from
        it).  Stamps the catalog's *current* version, so a following
        :func:`refreshed_statistics` call short-circuits instead of
        rescanning.  Because the cost-based planners hold a reference to
        this object, their cost inputs are fresh the moment this returns.
        """
        relation = catalog.relation(delta.relation)
        stats = self.relations.get(delta.relation)
        if stats is None:
            stats = RelationStatistics.of(relation)
        else:
            if delta.deleted_rows:
                stats = stats.with_removals(relation, delta.deleted_rows)
            if delta.inserted_rows:
                stats = stats.with_delta(relation, delta.inserted_rows)
        self.relations[delta.relation] = stats
        self.catalog_version = catalog.version

    # ------------------------------------------------------------------
    def cardinality(self, table: str) -> int:
        stats = self.relations.get(table)
        return stats.rows if stats is not None else 1

    def distinct_count(self, table: str, column: str) -> int:
        stats = self.relations.get(table)
        if stats is None:
            return 1
        return max(1, stats.ndv(column))

    def equality_selectivity(self, table: str, column: str) -> float:
        """Fraction of rows matching ``column = literal`` under uniformity."""
        return 1.0 / self.distinct_count(table, column)

    # ------------------------------------------------------------------
    # predicate selectivity estimation (System-R style heuristics)
    # ------------------------------------------------------------------
    def predicate_selectivity(self, table: str, predicate: Expression) -> float:
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(table, predicate)
        if isinstance(predicate, Between):
            return BETWEEN_SELECTIVITY
        if isinstance(predicate, Like):
            return 1.0 - LIKE_SELECTIVITY if predicate.negated else LIKE_SELECTIVITY
        if isinstance(predicate, InList):
            column = _single_column(predicate.operand)
            if column is not None:
                ndv = self.distinct_count(table, column)
                fraction = min(1.0, len(predicate.values) / ndv)
            else:
                fraction = DEFAULT_PREDICATE_SELECTIVITY
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, IsNull):
            fraction = self._null_fraction(table, predicate.operand)
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, And):
            product = 1.0
            for part in predicate.operands:
                product *= self.predicate_selectivity(table, part)
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for part in predicate.operands:
                miss *= 1.0 - self.predicate_selectivity(table, part)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return 1.0 - self.predicate_selectivity(table, predicate.operand)
        return DEFAULT_PREDICATE_SELECTIVITY

    def _comparison_selectivity(self, table: str, predicate: Comparison) -> float:
        column = _single_column(predicate.left) or _single_column(predicate.right)
        if predicate.op == "=":
            if column is not None and _is_constant(predicate.left, predicate.right):
                return self.equality_selectivity(table, column)
            return DEFAULT_PREDICATE_SELECTIVITY
        if predicate.op in ("!=", "<>"):
            if column is not None and _is_constant(predicate.left, predicate.right):
                return 1.0 - self.equality_selectivity(table, column)
            return 1.0 - DEFAULT_PREDICATE_SELECTIVITY
        if predicate.op in ("<", "<=", ">", ">="):
            return RANGE_SELECTIVITY
        return DEFAULT_PREDICATE_SELECTIVITY

    def _null_fraction(self, table: str, operand: Expression) -> float:
        column = _single_column(operand)
        stats = self.relations.get(table)
        if column is None or stats is None:
            return DEFAULT_PREDICATE_SELECTIVITY
        column_stats = stats.columns.get(column)
        return column_stats.null_fraction if column_stats is not None else 0.0

    def estimated_rows(
        self, table: str, predicates: Sequence[Expression] = ()
    ) -> float:
        """Cardinality of ``table`` after applying pushed-down ``predicates``."""
        rows = float(self.cardinality(table))
        for predicate in predicates:
            rows *= self.predicate_selectivity(table, predicate)
        return max(rows, 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "catalog": self.catalog_name,
            "version": self.catalog_version,
            "collection_seconds": self.collection_seconds,
            "relations": {
                name: {"rows": stats.rows, "bytes": stats.bytes}
                for name, stats in self.relations.items()
            },
        }


def refreshed_statistics(
    catalog: Catalog, cached: Optional[CatalogStatistics]
) -> CatalogStatistics:
    """Return ``cached`` if still valid for ``catalog``, else re-collect.

    The single source of the invalidation rule (catalog version comparison),
    shared by the TAG cost-based planner and the RDBMS baseline planner so
    their refresh semantics cannot diverge.
    """
    if cached is None or cached.catalog_version != catalog.version:
        return CatalogStatistics.collect(catalog)
    return cached


def _single_column(expression: Expression) -> Optional[str]:
    """The bare column name when ``expression`` is a single column reference."""
    if isinstance(expression, ColumnRef):
        return expression.column
    return None


def _is_constant(left: Expression, right: Expression) -> bool:
    """True when exactly one side is a constant (literal or bound parameter).

    Query parameters count as constants: a prepared ``column = :v`` filter
    has the same shape as ``column = literal`` for estimation purposes even
    though the value is only known at execution time.
    """

    def constant(expression: Expression) -> bool:
        return isinstance(expression, (Literal, ParameterRef))

    return constant(left) != constant(right)
