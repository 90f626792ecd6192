"""Benchmark harness, reporting and memory measurement for ``benchmarks/``.

The paper's tables and figures are regenerated by ``benchmarks/`` through
these helpers; the perf ledger (``perf/`` + ``BENCHMARK.json``) is the
per-commit trajectory.  Write-path gates live in the test suite: the
timing bounds in ``tests/stress/test_write_path_gates.py`` (``-m stress``)
and the correctness checks in tier-1.  ``recovery`` is the one CLI bench
left here (``make bench-recovery``).
"""

from .harness import (
    QueryRun,
    WorkloadReport,
    default_engines,
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
    "peak_memory_bytes",
    "per_query_table",
    "result_checksum",
    "run_query",
    "run_workload",
    "speedup_table",
    "win_count_table",
]
