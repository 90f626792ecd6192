"""The server side of ``serve_mixed``: one ``QueryServer`` in its own process.

Started by ``workloads/serve.py``; builds the tenant, starts listening on
an ephemeral port, prints one ``READY {json}`` line and serves until
SIGTERM (or its stdin closes), then stops the server — which closes the
tenant and, when durable, takes its final snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import signal
import sys
import time
from typing import List

from harness import add_src_to_path

add_src_to_path()

from repro import Database  # noqa: E402
from repro.serve import QueryServer, ServerConfig  # noqa: E402
from repro.workloads import generate_tpch  # noqa: E402

from workloads.base import shuffled_catalog, timed_encode  # noqa: E402

#: fixed serving configuration of the workload (stated in perf/README.md)
POOL_SIZE = 2
MAX_QUEUE_DEPTH = 64
RESULT_CACHE_ENTRIES = 256
#: smaller than the distinct ad-hoc statements of one run, so the plan
#: cache evicts; the other four workloads fit in the default 256
PLAN_CACHE_ENTRIES = 64


async def serve(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    catalog, load_seconds = shuffled_catalog(generate_tpch(args.scale), random.Random(args.seed))
    graph, encode_seconds = timed_encode(catalog)
    database = Database(
        catalog,
        engine="tag",
        graph=graph,
        plan_cache_entries=PLAN_CACHE_ENTRIES,
        data_dir=None if args.memory_only else args.data_dir,
        wal_fsync=False,  # buffered group-commit: the workload's stated flush policy
    )
    server = QueryServer(
        database,
        ServerConfig(
            port=0,
            pool_size=POOL_SIZE,
            max_queue_depth=MAX_QUEUE_DEPTH,
            result_cache_entries=RESULT_CACHE_ENTRIES,
        ),
    )
    await server.start()
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)

    def parent_went_away() -> None:
        # stdin is a pipe held open by the benchmark process; EOF means it
        # died without sending SIGTERM, and an orphan server must not linger
        if not sys.stdin.buffer.read1(1):
            loop.remove_reader(sys.stdin.fileno())
            stopping.set()

    loop.add_reader(sys.stdin.fileno(), parent_went_away)
    ready = {
        "port": server.port,
        "startup_s": time.perf_counter() - started,
        "storage.load_encode_s": load_seconds,
        "tag.encode_s": encode_seconds,
        "tag.vertices": graph.vertex_count,
        "tag.edges": graph.edge_count,
        "recovered": bool(database.recovery_report and database.recovery_report["recovered"]),
    }
    print("READY " + json.dumps(ready), flush=True)
    try:
        await stopping.wait()
    finally:
        await server.stop()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--memory-only", action="store_true")
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
