"""Vertex-centric BSP substrate: graph store, Pregel-style engine, aggregators."""

from .aggregators import (
    Aggregator,
    AggregatorRegistry,
    CollectAggregator,
    CountAggregator,
    GroupAggregator,
    MaxAggregator,
    MinAggregator,
    SumAggregator,
)
from .engine import BSPEngine, BSPError, RunState, SuperstepContext, VertexProgram
from .graph import Graph, GraphError, Vertex, VertexId
from .metrics import RunMetrics, SuperstepMetrics, payload_size_bytes
from .partition import (
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    SinglePartitioner,
)

__all__ = [
    "Aggregator",
    "AggregatorRegistry",
    "BSPEngine",
    "BSPError",
    "CollectAggregator",
    "CountAggregator",
    "Graph",
    "GraphError",
    "GroupAggregator",
    "HashPartitioner",
    "MaxAggregator",
    "MinAggregator",
    "Partitioner",
    "RoundRobinPartitioner",
    "RunMetrics",
    "RunState",
    "SinglePartitioner",
    "SumAggregator",
    "SuperstepContext",
    "SuperstepMetrics",
    "Vertex",
    "VertexId",
    "VertexProgram",
    "payload_size_bytes",
]
