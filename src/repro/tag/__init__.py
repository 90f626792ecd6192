"""TAG encoding: Tuple-Attribute Graph representation of relational data."""

from .encoder import (
    LoadReport,
    TagEncoder,
    TagGraph,
    attribute_label,
    attribute_vertex_id,
    edge_label,
    encode_catalog,
    tuple_vertex_id,
)
from .statistics import (
    TagStatistics,
    column_selectivity,
    edge_label_degrees,
    heavy_value_count,
    storage_comparison,
)

__all__ = [
    "LoadReport",
    "TagEncoder",
    "TagGraph",
    "TagStatistics",
    "attribute_label",
    "attribute_vertex_id",
    "column_selectivity",
    "edge_label",
    "edge_label_degrees",
    "encode_catalog",
    "heavy_value_count",
    "storage_comparison",
    "tuple_vertex_id",
]
