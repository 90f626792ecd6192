"""Benchmark harness, reporting and memory measurement."""

from .harness import (
    QueryRun,
    WorkloadReport,
    default_engines,
    parameterized_execution_report,
    repeated_execution_report,
    result_checksum,
    run_query,
    run_workload,
)
from .memory import peak_memory_bytes, workload_peak_memory
from .reporting import (
    aggregate_runtime_table,
    category_breakdown_table,
    format_table,
    network_table,
    per_query_table,
    speedup_table,
    win_count_table,
)

__all__ = [
    "QueryRun",
    "WorkloadReport",
    "aggregate_runtime_table",
    "category_breakdown_table",
    "default_engines",
    "format_table",
    "network_table",
    "parameterized_execution_report",
    "peak_memory_bytes",
    "per_query_table",
    "repeated_execution_report",
    "result_checksum",
    "run_query",
    "run_workload",
    "speedup_table",
    "win_count_table",
]
