"""Fast smoke benchmark: exercises the bench harness end-to-end for CI.

Runs a tiny-scale-factor subset of the TPC-H-like workload on the TAG-join
executor and the RDBMS baseline, cross-checks their result checksums,
re-executes a Q3-style query repeatedly to demonstrate the plan cache's
compile-time amortization, runs a concurrent batch through
``Database.execute_many`` against a serial loop, and writes everything as
a JSON report (the CI artifact).
A non-zero exit code means a query crashed, engines disagreed, the plan
cache failed to produce hits, or concurrent execution diverged from the
serial baseline — so CI catches harness rot and planner/cache/concurrency
regressions without paying for the full benchmark suite.

Usage::

    python -m repro.bench.smoke --scale 0.03 --out benchmarks/results/smoke.json
    repro-bench-smoke            # console entry point (installed package)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence

from ..api import Database
from ..core.executor import TagJoinExecutor
from ..tag.encoder import encode_catalog
from ..workloads import tpch_workload
from .harness import (
    concurrent_execution_report,
    default_engines,
    parameterized_execution_report,
    repeated_execution_report,
    run_workload,
)

#: queries covering every aggregation class the paper drills into
SMOKE_QUERIES = ("q1", "q3", "q5", "q6", "q10")
#: the Q3-style query used to measure the plan cache's effect
REPEATED_QUERY = "q3"
#: a parameterized Q3 variant: one prepared plan, executed per market segment
PARAMETERIZED_SQL = """
    SELECT o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY,
           SUM(l.L_EXTENDEDPRICE) AS revenue
    FROM CUSTOMER c, ORDERS o, LINEITEM l
    WHERE c.C_MKTSEGMENT = :segment AND c.C_CUSTKEY = o.O_CUSTKEY
      AND l.L_ORDERKEY = o.O_ORDERKEY
    GROUP BY o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY
"""
PARAMETER_SETS = (
    {"segment": "BUILDING"},
    {"segment": "AUTOMOBILE"},
    {"segment": "MACHINERY"},
    {"segment": "HOUSEHOLD"},
)
#: worker count and batch size of the concurrent-execution section
CONCURRENT_WORKERS = 4
CONCURRENT_BATCH = 32


def run_smoke(
    scale: float = 0.03,
    queries: Sequence[str] = SMOKE_QUERIES,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Run the smoke suite and return the JSON-serialisable report."""
    started = time.perf_counter()
    repeats = max(2, repeats)  # the cache demonstration needs at least one warm run
    workload = tpch_workload(scale=scale)
    known = {query.name for query in workload.queries}
    unknown = [name for name in queries if name not in known]
    if unknown:
        raise ValueError(
            f"unknown workload queries: {unknown} (available: {sorted(known)})"
        )
    graph = encode_catalog(workload.catalog)
    engines = default_engines(
        workload.catalog, graph=graph, include=("tag", "rdbms_hash")
    )
    report = run_workload(workload, engines, queries=queries, with_checksum=True)

    failures = [
        f"{run.engine}/{run.query}: {run.error}" for run in report.runs if not run.ok
    ]
    disagreements = report.agreement_failures("tag")

    executor = TagJoinExecutor(graph, workload.catalog, cross_check_plans=True)
    repeated = repeated_execution_report(
        executor,
        workload.catalog,
        workload.query(REPEATED_QUERY).sql,
        repeats=repeats,
        name=REPEATED_QUERY,
    )
    cache_stats = repeated["plan_cache"] or {}
    cache_ok = cache_stats.get("hits", 0) >= max(1, repeats - 1)

    # prepared-statement path: same plan, different parameter values — every
    # execution after the first must hit the shared parameter-generic cache
    database = Database(
        workload.catalog,
        graph=graph,
        engine_options={"tag": {"cross_check_plans": True}},
    )
    parameterized = parameterized_execution_report(
        database,
        PARAMETERIZED_SQL,
        PARAMETER_SETS,
        name="q3_parameterized",
    )
    parameterized_ok = (
        parameterized["cold_misses"] >= 1
        and parameterized["warm_hits"] == len(PARAMETER_SETS) - 1
    )

    # concurrent batched execution: run-scoped vertex state lets N workers
    # share one immutable encoded graph; every mode must equal the serial loop
    concurrent = concurrent_execution_report(
        database,
        PARAMETERIZED_SQL,
        PARAMETER_SETS,
        threads=CONCURRENT_WORKERS,
        batch_size=CONCURRENT_BATCH,
        name="q3_concurrent",
    )
    concurrent_ok = concurrent["results_match"]

    ok = not failures and not disagreements and cache_ok and parameterized_ok and concurrent_ok
    return {
        "workload": workload.name,
        "scale": scale,
        "queries": list(queries),
        "elapsed_seconds": time.perf_counter() - started,
        "aggregate_seconds": report.aggregate_seconds(),
        "compile_time_summary": report.compile_time_summary(),
        "repeated_execution": repeated,
        "parameterized_execution": parameterized,
        "concurrent_execution": concurrent,
        "failures": failures,
        "agreement_failures": disagreements,
        "plan_cache_ok": cache_ok,
        "parameterized_cache_ok": parameterized_ok,
        "concurrent_ok": concurrent_ok,
        "ok": ok,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.03, help="mini scale factor")
    parser.add_argument(
        "--repeats", type=int, default=3, help="repeated executions of the cached query"
    )
    parser.add_argument(
        "--queries",
        nargs="*",
        default=list(SMOKE_QUERIES),
        help="workload query names to run",
    )
    parser.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results", "smoke.json"),
        help="path of the JSON report artifact",
    )
    args = parser.parse_args(argv)

    result = run_smoke(scale=args.scale, queries=args.queries, repeats=args.repeats)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, default=str)
    print(json.dumps(result, indent=2, default=str))
    print(f"\nsmoke report written to {args.out}")
    if not result["ok"]:
        print("SMOKE FAILURE", file=sys.stderr)
        for line in result["failures"] + result["agreement_failures"]:
            print(f"  {line}", file=sys.stderr)
        if not result["plan_cache_ok"]:
            print("  plan cache produced no hits on repeated execution", file=sys.stderr)
        if not result["parameterized_cache_ok"]:
            print(
                "  parameterized executions missed the cache "
                "(fingerprint is not parameter-generic?)",
                file=sys.stderr,
            )
        if not result["concurrent_ok"]:
            print(
                "  concurrent executions diverged from the serial baseline",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
