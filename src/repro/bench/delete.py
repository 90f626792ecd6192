"""Tombstone-delete benchmark: delete deltas vs. scorched-earth rebuild.

The deletion mirror of :mod:`repro.bench.incremental`: the bench warms a
database (TAG graph, plan cache, engines, statistics), deletes a batch of
rows through ``Database.delete_rows`` — the tombstone delta path — and
compares its wall-clock cost against what the pre-delete invalidation
model would have paid on the same mutation: a full re-encode of the
catalog plus a fresh statistics collection (what ``note_data_change``
forces lazily).  It also measures counting view maintenance under
deletion against recomputing the view, and asserts the acceptance
properties of first-class deletes:

* deleting 1% of the base rows must beat the full rebuild by
  ``MIN_SPEEDUP`` (10x — tombstoning touches only the dead rows, the
  rebuild touches everything);
* a one-row by-value delete costs O(1): its median latency at the full
  base may be at most ``MAX_SCALING`` (3x) its median at a tenth of the
  base.  The gate above compares against a full re-encode, which is so
  much slower that a per-delete rescan of the table hides inside it;
  this one sees it;
* deletes cause **zero** plan recompilations (cache keys depend only on
  the schema version, which a delete never moves);
* the patched graph is shape-identical to a cold re-encode of the
  surviving rows, and the maintained view matches re-execution.

A non-zero exit code means one of those properties failed.

Usage::

    python -m repro.bench.delete --base-rows 20000 \\
        --out benchmarks/results/BENCH_delete.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Dict, Optional, Sequence

from ..api import Database
from ..tag.encoder import encode_catalog
from ..tag.statistics import CatalogStatistics
from .incremental import VIEW_SQL, WARM_QUERY, build_bench_catalog, graph_shape

#: delete batch sizes: one row, and 1% of the default base (the gated case)
DEFAULT_BATCHES = (1, 200)
#: a 1% delete must beat the full rebuild at least this many times over
MIN_SPEEDUP = 10.0
#: a 1-row by-value delete at the full base vs. at a tenth of it
MAX_SCALING = 3.0
SCALING_SAMPLES = 31
DATA_SEED = 20260808


def victim_ids(catalog: Any, count: int, rng: random.Random) -> set:
    """A seeded sample of live ORDERS primary keys to delete."""
    ids = [row[0] for row in catalog.relation("ORDERS")]
    return set(rng.sample(ids, min(count, len(ids))))


def measure_delete(base_rows: int, batch: int, rng: random.Random) -> Dict[str, Any]:
    """Time one tombstone delete against a full rebuild of derived state."""
    database = Database(build_bench_catalog(base_rows, rng))
    graph = database.tag_graph()
    session = database.connect()
    session.sql(WARM_QUERY)  # warm plan cache + executor
    cache_before = database.plan_cache.stats
    misses_before, stores_before = cache_before.misses, cache_before.stores

    victims = victim_ids(database.catalog, batch, rng)
    started = time.perf_counter()
    deleted = database.delete_rows("ORDERS", lambda row: row[0] in victims)
    delta_seconds = time.perf_counter() - started

    # what note_data_change's scorched-earth invalidation would have paid
    # on the same mutation: re-encode everything, recollect every statistic
    started = time.perf_counter()
    rebuilt = encode_catalog(database.catalog)
    reencode_seconds = time.perf_counter() - started
    started = time.perf_counter()
    CatalogStatistics.collect(database.catalog)
    recollect_seconds = time.perf_counter() - started
    full_seconds = reencode_seconds + recollect_seconds

    session.sql(WARM_QUERY)  # must replay from the retained plan
    cache_after = database.plan_cache.stats
    maintenance = database.cache_stats()["maintenance"]
    fraction = batch / base_rows
    speedup = full_seconds / delta_seconds if delta_seconds > 0 else float("inf")
    return {
        "base_rows": base_rows,
        "batch_rows": deleted,
        "batch_fraction": round(fraction, 6),
        "delta_seconds": round(delta_seconds, 6),
        "full_reencode_seconds": round(reencode_seconds, 6),
        "statistics_recollect_seconds": round(recollect_seconds, 6),
        "full_rebuild_seconds": round(full_seconds, 6),
        "speedup_vs_full": round(speedup, 3),
        "speedup_required": fraction >= 0.01,
        "speedup_ok": fraction < 0.01 or speedup >= MIN_SPEEDUP,
        "plan_misses_added": cache_after.misses - misses_before,
        "plan_stores_added": cache_after.stores - stores_before,
        "plans_retained": maintenance["plans_retained"],
        "graph_matches_rebuild": graph_shape(graph) == graph_shape(rebuilt),
        "maintenance": maintenance,
    }


def measure_single_delete(base_rows: int, rng: random.Random) -> Dict[str, Any]:
    """Median latency of a one-row by-value delete on a warm database."""
    database = Database(build_bench_catalog(base_rows, rng))
    database.tag_graph()
    database.connect().sql(WARM_QUERY)  # engine + statistics live, so deletes fold
    orders = database.catalog.relation("ORDERS")
    victims = rng.sample(list(orders), SCALING_SAMPLES + 1)
    database.delete_rows("ORDERS", [victims.pop()])  # warm: builds the match index
    seconds = []
    for victim in victims:
        started = time.perf_counter()
        database.delete_rows("ORDERS", [victim])
        seconds.append(time.perf_counter() - started)
    return {
        "base_rows": base_rows,
        "samples": len(seconds),
        "median_seconds": round(statistics.median(seconds), 7),
        "max_seconds": round(max(seconds), 7),
        "full_rebuilds": database.cache_stats()["maintenance"]["full_rebuilds"],
    }


def measure_view_delete(base_rows: int, batch: int, rng: random.Random) -> Dict[str, Any]:
    """Counting view maintenance under deletion vs. recomputing the view."""
    database = Database(build_bench_catalog(base_rows, rng))
    database.materialize(VIEW_SQL, name="spend")

    victims = victim_ids(database.catalog, batch, rng)
    refresh_before = database.cache_stats()["maintenance"]["view_refresh_seconds"]
    database.delete_rows("ORDERS", lambda row: row[0] in victims)
    maintenance = database.cache_stats()["maintenance"]
    refresh_seconds = maintenance["view_refresh_seconds"] - refresh_before

    started = time.perf_counter()
    recomputed = database.connect().sql(VIEW_SQL)
    recompute_seconds = time.perf_counter() - started

    served = database.query_view("spend")
    rows_match = sorted(
        tuple(sorted(row.items())) for row in served.rows
    ) == sorted(tuple(sorted(row.items())) for row in recomputed.rows)
    return {
        "base_rows": base_rows,
        "batch_rows": batch,
        "view_rows": len(served.rows),
        "refresh_seconds": round(refresh_seconds, 6),
        "recompute_seconds": round(recompute_seconds, 6),
        "speedup_vs_recompute": round(
            recompute_seconds / refresh_seconds if refresh_seconds > 0 else float("inf"),
            3,
        ),
        "views_delete_refreshed": maintenance["views_delete_refreshed"],
        "views_recomputed": maintenance["views_recomputed"],
        "rows_match_recompute": rows_match,
    }


def run_bench(
    base_rows: int = 20_000, batches: Optional[Sequence[int]] = None
) -> Dict[str, Any]:
    started = time.perf_counter()
    if batches is None:
        # the gated case is always 1% of the base, whatever the base is
        batches = (1, max(1, base_rows // 100))
    rng = random.Random(DATA_SEED)
    deletes = [measure_delete(base_rows, batch, rng) for batch in batches]
    view = measure_view_delete(base_rows, max(1, base_rows // 100), rng)
    small, large = (
        measure_single_delete(rows, rng) for rows in (max(100, base_rows // 10), base_rows)
    )
    scaling = large["median_seconds"] / small["median_seconds"]

    speedup_ok = all(entry["speedup_ok"] for entry in deletes)
    zero_recompilation = all(
        entry["plan_misses_added"] == 0 and entry["plan_stores_added"] == 0
        for entry in deletes
    )
    graphs_ok = all(entry["graph_matches_rebuild"] for entry in deletes)
    no_full_rebuilds = all(
        entry["maintenance"]["full_rebuilds"] == 0 for entry in deletes
    ) and not (small["full_rebuilds"] or large["full_rebuilds"])
    scaling_ok = scaling <= MAX_SCALING
    ok = (
        speedup_ok
        and scaling_ok
        and zero_recompilation
        and graphs_ok
        and no_full_rebuilds
        and view["rows_match_recompute"]
    )
    return {
        "base_rows": base_rows,
        "batches": list(batches),
        "min_speedup_required": MIN_SPEEDUP,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "deletes": deletes,
        "view_delete": view,
        "single_delete_scaling": {
            "sizes": [small, large],
            "latency_ratio": round(scaling, 3),
            "max_ratio_allowed": MAX_SCALING,
        },
        "speedup_ok": speedup_ok,
        "scaling_ok": scaling_ok,
        "zero_recompilation_ok": zero_recompilation,
        "graph_equivalence_ok": graphs_ok,
        "no_full_rebuilds_ok": no_full_rebuilds,
        "view_ok": view["rows_match_recompute"],
        "ok": ok,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-rows", type=int, default=20_000, help="ORDERS rows before any delete"
    )
    parser.add_argument(
        "--batches",
        type=int,
        nargs="*",
        default=None,
        help="delete batch sizes to measure (default: 1 and 1%% of the base)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results", "BENCH_delete.json"),
        help="path of the JSON report artifact",
    )
    args = parser.parse_args(argv)

    result = run_bench(base_rows=args.base_rows, batches=args.batches)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, default=str)
    print(json.dumps(result, indent=2, default=str))
    print(f"\ndelete report written to {args.out}")
    if not result["ok"]:
        print("DELETE BENCH FAILURE", file=sys.stderr)
        if not result["speedup_ok"]:
            print(
                f"  a 1% delete failed to beat the full rebuild {MIN_SPEEDUP}x",
                file=sys.stderr,
            )
        if not result["scaling_ok"]:
            print(
                "  a 1-row by-value delete slowed more than "
                f"{MAX_SCALING}x over a 10x larger table",
                file=sys.stderr,
            )
        if not result["zero_recompilation_ok"]:
            print("  a delete caused plan recompilation", file=sys.stderr)
        if not result["graph_equivalence_ok"]:
            print("  patched graph diverged from a cold re-encode", file=sys.stderr)
        if not result["no_full_rebuilds_ok"]:
            print("  a delete degenerated into a full rebuild", file=sys.stderr)
        if not result["view_ok"]:
            print("  materialized view diverged from recomputation", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
