"""Vertex-centric BSP substrate: graph store, Pregel-style engine, aggregators."""

from .aggregators import (
    Aggregator,
    AggregatorRegistry,
    GroupAggregator,
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
    "Graph",
    "GraphError",
    "GroupAggregator",
    "HashPartitioner",
    "Partitioner",
    "RoundRobinPartitioner",
    "RunMetrics",
    "RunState",
    "SinglePartitioner",
    "SuperstepContext",
    "SuperstepMetrics",
    "Vertex",
    "VertexId",
    "VertexProgram",
    "payload_size_bytes",
]
