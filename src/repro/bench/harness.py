"""Benchmark harness: run a workload on every engine and collect the paper's measures.

The harness is what the ``benchmarks/`` targets call to regenerate each
table and figure: it executes a workload's queries on the TAG-join executor
and the baseline engines, records wall time, message counts, network bytes
and result checksums, and offers the groupings the paper reports
(aggregate runtimes, per-category breakdowns, win/competitive/worse counts,
speedup tables).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..api.registry import EngineContext, create_engine
from ..core.executor import QueryResult
from ..relational.catalog import Catalog
from ..sql import parse_and_bind
from ..tag.encoder import TagGraph, encode_catalog
from ..workloads.base import QueryDef, Workload


@dataclass
class QueryRun:
    """One (engine, query) execution."""

    engine: str
    query: str
    category: str
    seconds: float
    row_count: int
    messages: int = 0
    network_bytes: int = 0
    compute: int = 0
    supersteps: int = 0
    compile_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    checksum: Optional[Tuple] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class WorkloadReport:
    """All runs of one workload across the configured engines."""

    workload: str
    scale: float
    runs: List[QueryRun] = field(default_factory=list)

    # ------------------------------------------------------------------
    def engines(self) -> List[str]:
        seen: List[str] = []
        for run in self.runs:
            if run.engine not in seen:
                seen.append(run.engine)
        return seen

    def queries(self) -> List[str]:
        seen: List[str] = []
        for run in self.runs:
            if run.query not in seen:
                seen.append(run.query)
        return seen

    def run_for(self, engine: str, query: str) -> Optional[QueryRun]:
        for run in self.runs:
            if run.engine == engine and run.query == query:
                return run
        return None

    # ------------------------------------------------------------------
    # the paper's summary views
    # ------------------------------------------------------------------
    def aggregate_seconds(self) -> Dict[str, float]:
        """Figure 13 / 16: total runtime per engine summed over all queries."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            if run.ok:
                totals[run.engine] = totals.get(run.engine, 0.0) + run.seconds
        return totals

    def aggregate_network_bytes(self) -> Dict[str, int]:
        """Figure 16: total network traffic per engine."""
        totals: Dict[str, int] = {}
        for run in self.runs:
            if run.ok:
                totals[run.engine] = totals.get(run.engine, 0) + run.network_bytes
        return totals

    def category_seconds(self) -> Dict[str, Dict[str, float]]:
        """Figure 15: aggregate runtime per engine, per aggregation category."""
        breakdown: Dict[str, Dict[str, float]] = {}
        for run in self.runs:
            if not run.ok:
                continue
            per_engine = breakdown.setdefault(run.category, {})
            per_engine[run.engine] = per_engine.get(run.engine, 0.0) + run.seconds
        return breakdown

    def speedups(self, reference: str, baseline: str) -> Dict[str, float]:
        """Tables 3/6: per-query speedup of ``reference`` over ``baseline``."""
        result: Dict[str, float] = {}
        for query in self.queries():
            reference_run = self.run_for(reference, query)
            baseline_run = self.run_for(baseline, query)
            if reference_run and baseline_run and reference_run.ok and baseline_run.ok:
                if reference_run.seconds > 0:
                    result[query] = baseline_run.seconds / reference_run.seconds
        return result

    def win_counts(
        self, reference: str, competitive_band: float = 0.2
    ) -> Dict[str, Dict[str, int]]:
        """Table 5: for each baseline, how many queries the reference engine
        outperforms / is competitive with / loses to.

        "Competitive" means within ``competitive_band`` (default ±20%) of the
        baseline's runtime, mirroring the paper's qualitative grouping.
        """
        counts: Dict[str, Dict[str, int]] = {}
        for engine in self.engines():
            if engine == reference:
                continue
            tally = {"outperforms": 0, "competitive": 0, "worse": 0}
            for query in self.queries():
                reference_run = self.run_for(reference, query)
                other_run = self.run_for(engine, query)
                if not (reference_run and other_run and reference_run.ok and other_run.ok):
                    continue
                if reference_run.seconds <= other_run.seconds * (1 - competitive_band):
                    tally["outperforms"] += 1
                elif reference_run.seconds <= other_run.seconds * (1 + competitive_band):
                    tally["competitive"] += 1
                else:
                    tally["worse"] += 1
            counts[engine] = tally
        return counts

    def agreement_failures(self, reference: str) -> List[str]:
        """Queries whose result checksum differs between engines (should be empty)."""
        failures = []
        for query in self.queries():
            reference_run = self.run_for(reference, query)
            if reference_run is None or not reference_run.ok:
                continue
            for engine in self.engines():
                if engine == reference:
                    continue
                other = self.run_for(engine, query)
                if other is None or not other.ok or other.checksum is None:
                    continue
                if reference_run.checksum != other.checksum:
                    failures.append(f"{query}: {reference} != {engine}")
        return failures


# ----------------------------------------------------------------------
# engine construction
# ----------------------------------------------------------------------
EngineFactory = Callable[[], Any]


def default_engines(
    catalog: Catalog,
    graph: Optional[TagGraph] = None,
    num_workers: int = 1,
    include: Sequence[str] = ("tag", "rdbms_hash", "rdbms_sortmerge", "spark_like"),
    plan_cache: Optional[Any] = None,
) -> Dict[str, Any]:
    """Instantiate the engines compared throughout the paper's experiments.

    Engines are built through the :mod:`repro.api.registry` — any name or
    alias registered there works, including engines registered by callers.
    ``tag`` is the vertex-centric TAG-join executor (the paper's TAG_tg),
    ``rdbms_hash`` / ``rdbms_sortmerge`` stand in for the hash-join and
    sort-merge-join configurations of the reference RDBMSs, and
    ``spark_like`` is the distributed shuffle baseline.  The returned dict
    is keyed by the *requested* names so existing reports keep their labels.
    """
    shared: Dict[str, Optional[TagGraph]] = {"graph": graph}

    def tag_graph() -> TagGraph:
        if shared["graph"] is None:
            shared["graph"] = encode_catalog(catalog)
        return shared["graph"]

    engines: Dict[str, Any] = {}
    for name in include:
        context = EngineContext(
            catalog=catalog,
            tag_graph=tag_graph,
            plan_cache=plan_cache,
            num_workers=num_workers,
        )
        engines[name] = create_engine(name, context)
    return engines


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def result_checksum(result: QueryResult) -> Tuple:
    """Order-insensitive fingerprint of a result (rounded floats)."""

    def normalise(value: Any) -> Any:
        if isinstance(value, float):
            return round(value, 4)
        return value

    rows = []
    for row in result.rows:
        rows.append(tuple(sorted((key, normalise(value)) for key, value in row.items())))
    rows.sort()
    return (len(rows), tuple(rows))


def run_query(
    engine_name: str,
    engine: Any,
    catalog: Catalog,
    query: QueryDef,
    with_checksum: bool = True,
) -> QueryRun:
    """Execute one query on one engine, capturing time, cost measures and errors."""
    try:
        spec = parse_and_bind(query.sql, catalog, name=query.name)
        started = time.perf_counter()
        result = engine.execute(spec)
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        return QueryRun(
            engine=engine_name,
            query=query.name,
            category=query.category,
            seconds=elapsed,
            row_count=len(result.rows),
            messages=metrics.total_messages,
            network_bytes=metrics.total_network_bytes,
            compute=metrics.total_compute,
            supersteps=metrics.superstep_count,
            compile_seconds=metrics.compile_seconds,
            plan_cache_hits=metrics.plan_cache_hits,
            plan_cache_misses=metrics.plan_cache_misses,
            checksum=result_checksum(result) if with_checksum else None,
        )
    except Exception as exc:  # pragma: no cover - surfaced in reports
        return QueryRun(
            engine=engine_name,
            query=query.name,
            category=query.category,
            seconds=0.0,
            row_count=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_workload(
    workload: Workload,
    engines: Optional[Dict[str, Any]] = None,
    queries: Optional[Sequence[str]] = None,
    num_workers: int = 1,
    with_checksum: bool = True,
) -> WorkloadReport:
    """Run (a subset of) a workload's queries on every engine."""
    if engines is None:
        engines = default_engines(workload.catalog, num_workers=num_workers)
    selected = [
        query
        for query in workload.queries
        if queries is None or query.name in set(queries)
    ]
    report = WorkloadReport(workload=workload.name, scale=workload.scale)
    for query in selected:
        for engine_name, engine in engines.items():
            report.runs.append(
                run_query(engine_name, engine, workload.catalog, query, with_checksum)
            )
    return report
