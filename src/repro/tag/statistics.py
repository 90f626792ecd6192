"""Size, shape and value statistics backing the TAG-join planner.

Backs the reproduction of Figure 14 (loaded data sizes) and Tables 1/2
(loading times), and provides the degree/selectivity statistics the
TAG-join planner uses to pick traversal orders and heavy/light thresholds.

The second half of the module is the catalog-level view the cost-based
planner consumes: per-relation cardinalities plus per-column
distinct-value counts (NDV), null counts and derived selectivities, read
live from the catalog's column stores.  These numbers feed the
message-volume cost model of :mod:`repro.planner.cost` and the
cardinality estimates of the baseline engine's join-order planner.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Or,
)
from ..algebra.parameters import ParameterRef
from ..relational.catalog import Catalog
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
class CatalogStatistics:
    """The planners' cost inputs, read live from a catalog.

    A stateless view: row counts are ``len(relation)``, and NDV and NULL
    counts come from each relation's encoded column store, which every
    mutation keeps exact in O(1).  There is nothing to collect, fold on
    a write or refresh on a catalog version change, so every holder sees
    the catalog as it is now.
    """

    catalog: Catalog

    @classmethod
    def collect(cls, catalog: Catalog) -> "CatalogStatistics":
        return cls(catalog)

    # ------------------------------------------------------------------
    def cardinality(self, table: str) -> int:
        return len(self.catalog.relation(table))

    def distinct_count(self, table: str, column: str) -> int:
        return max(1, self.catalog.relation(table).distinct_count(column))

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
        if column is None:
            return DEFAULT_PREDICATE_SELECTIVITY
        relation = self.catalog.relation(table)
        rows = len(relation)
        return relation.encoded_store.null_count(column) / rows if rows else 0.0

    def estimated_rows(
        self, table: str, predicates: Sequence[Expression] = ()
    ) -> float:
        """Cardinality of ``table`` after applying pushed-down ``predicates``."""
        rows = float(self.cardinality(table))
        for predicate in predicates:
            rows *= self.predicate_selectivity(table, predicate)
        return max(rows, 0.0)


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
