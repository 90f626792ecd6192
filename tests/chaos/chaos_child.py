"""Subprocess body of the chaos crash matrix.

Runs standalone (``python tests/chaos/chaos_child.py --mode ... --data-dir
...``) so the parent test can ``kill -9`` it — or, more precisely, so an
armed ``crash``-mode failpoint can ``os._exit(137)`` it — at any point of
a deterministic write workload.  Three modes:

``workload``
    Open a durable :class:`Database` on ``--data-dir`` and apply a fixed
    sequence of batches with stable request ids (``batch-<i>``), printing
    an ``ACK`` JSON line after each acknowledged receipt.  Batches are
    followed by deterministic deletes/updates of their own rows
    (``delete-<i>`` / ``update-<i>``) so the ``delta.apply.*``
    failpoints fire on every write shape of the workload path.  Interleaves tag-engine
    queries (BSP supersteps → ``bsp.superstep``), a checkpoint after every
    other batch (``snapshot.*`` / ``wal.compact.before_swap``) and a short served
    phase over TCP (``serve.dispatch``).  Crash-mode failpoints are
    armed by the parent via the ``REPRO_FAILPOINTS`` environment variable.

``verify``
    Recover from ``--data-dir`` (no faults armed), then re-apply EVERY
    batch and mutation with its original request id.  Writes the
    workload run already acknowledged (``--acked 0,2,delete-1``) must
    come back ``deduplicated`` — an acknowledged write that was lost,
    or one applied twice, fails here.  Prints the golden query results
    as a ``GOLDEN`` JSON line.

``clean``
    Memory-only database, every batch applied exactly once, same
    ``GOLDEN`` line.  The parent asserts verify-golden == clean-golden.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.api import Database
from repro.relational import Catalog, Column, DataType, ForeignKey, Relation, Schema

BATCHES = 12
SERVE_BATCH = BATCHES  # one extra batch routed over TCP through QueryServer

JOIN_SQL = (
    "SELECT n.N_NAME FROM NATION n, CUSTOMER c, ORDERS o "
    "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY"
)
COUNT_SQL = "SELECT COUNT(*) AS n FROM ORDERS o"
SUM_SQL = "SELECT SUM(o.O_TOTAL) AS s FROM ORDERS o"


def build_catalog() -> Catalog:
    """NATION / CUSTOMER / ORDERS, same shape as the test-suite mini catalog
    (inlined: this script must run without the test package on sys.path)."""
    catalog = Catalog("chaos")
    catalog.add(
        Relation(
            Schema(
                "NATION",
                [
                    Column("N_NATIONKEY", DataType.INT, nullable=False),
                    Column("N_NAME", DataType.STRING),
                ],
                primary_key=["N_NATIONKEY"],
            ),
            [[1, "USA"], [2, "FRANCE"], [3, "JAPAN"]],
        )
    )
    catalog.add(
        Relation(
            Schema(
                "CUSTOMER",
                [
                    Column("C_CUSTKEY", DataType.INT, nullable=False),
                    Column("C_NATIONKEY", DataType.INT),
                    Column("C_ACCTBAL", DataType.FLOAT),
                ],
                primary_key=["C_CUSTKEY"],
                foreign_keys=[ForeignKey(("C_NATIONKEY",), "NATION", ("N_NATIONKEY",))],
            ),
            [[10, 1, 100.0], [11, 1, 250.0], [12, 2, 50.0], [13, 3, 75.0]],
        )
    )
    catalog.add(
        Relation(
            Schema(
                "ORDERS",
                [
                    Column("O_ORDERKEY", DataType.INT, nullable=False),
                    Column("O_CUSTKEY", DataType.INT),
                    Column("O_TOTAL", DataType.FLOAT),
                    Column("O_PRIORITY", DataType.STRING),
                ],
                primary_key=["O_ORDERKEY"],
                foreign_keys=[ForeignKey(("O_CUSTKEY",), "CUSTOMER", ("C_CUSTKEY",))],
            ),
            [[100, 10, 50.0, "HIGH"], [101, 12, 20.0, "LOW"]],
        )
    )
    return catalog


def batch_rows(seed: int, batch: int) -> list:
    """Deterministic FK-valid ORDERS rows for batch ``batch``."""
    rng = random.Random(f"{seed}/{batch}")
    count = rng.randint(1, 4)
    return [
        [
            1000 + batch * 10 + i,
            rng.choice((10, 11, 12, 13)),
            round(rng.uniform(1.0, 500.0), 2),
            rng.choice(("HIGH", "LOW")),
        ]
        for i in range(count)
    ]


def all_batches(seed: int) -> list:
    return [(i, batch_rows(seed, i)) for i in range(BATCHES + 1)]


def batch_mutations(seed: int, batch: int) -> list:
    """Deterministic deletes/updates of batch ``batch``'s own rows.

    ``(kind, request_id, victim_row, replacement_row_or_None)`` tuples,
    applied right after the batch lands so the victims always exist.
    Deletes take the batch's first row, updates rewrite the second row's
    O_TOTAL (key untouched) — disjoint victims, FK-safe (nothing
    references ORDERS).  The serve batch gets none, and neither verify
    nor clean mode needs any other source of truth than this function.
    """
    if batch >= BATCHES:
        return []
    rows = batch_rows(seed, batch)
    mutations = []
    if batch % 3 == 1:
        mutations.append(("delete", f"delete-{batch}", rows[0], None))
    if batch % 4 == 2 and len(rows) > 1:
        replacement = list(rows[1])
        replacement[2] = round(replacement[2] + 111.11, 2)
        mutations.append(("update", f"update-{batch}", rows[1], replacement))
    return mutations


def apply_mutation(database: Database, mutation: tuple) -> dict:
    kind, request_id, victim, replacement = mutation
    if kind == "delete":
        return database.apply_delete("ORDERS", [victim], request_id=request_id)
    return database.apply_update(
        "ORDERS", [victim], [replacement], request_id=request_id
    )


def golden(database: Database) -> dict:
    session = database.connect(engine="tag")
    return {
        "join": sorted(r["N_NAME"] for r in session.sql(JOIN_SQL).rows),
        "count": session.sql(COUNT_SQL).single_value(),
        "sum": round(session.sql(SUM_SQL).single_value(), 2),
    }


def ack(batch: int, receipt: dict) -> None:
    print(json.dumps({"ack": batch, **{k: receipt[k] for k in ("appended", "lsn")}}))
    sys.stdout.flush()


async def serve_phase(database: Database, seed: int) -> None:
    """Route the final batch over TCP so ``serve.dispatch`` is on the path."""
    from repro.serve import QueryServer, ServerConfig, connect

    config = ServerConfig(pool_size=1, close_databases_on_stop=False)
    server = QueryServer(database, config)
    await server.start()
    try:
        client = await connect(server.host, server.port)
        try:
            rows = batch_rows(seed, SERVE_BATCH)
            receipt = await client.load_rows(
                "ORDERS", rows, request_id=f"batch-{SERVE_BATCH}"
            )
            ack(SERVE_BATCH, receipt)
            await client.execute(COUNT_SQL)
        finally:
            await client.close()
    finally:
        await server.stop()


def run_workload(data_dir: str, seed: int) -> None:
    database = Database(build_catalog(), data_dir=data_dir)
    for batch, rows in all_batches(seed)[:BATCHES]:
        receipt = database.apply_write("ORDERS", rows, request_id=f"batch-{batch}")
        ack(batch, receipt)
        for mutation in batch_mutations(seed, batch):
            result = apply_mutation(database, mutation)
            print(json.dumps({"ack": mutation[1], "lsn": result["lsn"]}))
            sys.stdout.flush()
        if batch % 3 == 2:
            database.connect(engine="tag").sql(JOIN_SQL)  # BSP supersteps
        if batch % 2 == 1:
            # six checkpoints plus the closing one: every seeded crash
            # trigger (1-5) of a snapshot.* / wal.compact.* failpoint is hit
            database.checkpoint()
    asyncio.run(serve_phase(database, seed))
    final = golden(database)
    database.close()  # final snapshot + WAL compaction
    print(json.dumps({"done": True, "golden": final}))


def run_verify(data_dir: str, seed: int, acked: set) -> None:
    database = Database(build_catalog(), data_dir=data_dir)  # recovery happens here
    for batch, rows in all_batches(seed):
        receipt = database.apply_write("ORDERS", rows, request_id=f"batch-{batch}")
        if str(batch) in acked and not receipt["deduplicated"]:
            print(
                json.dumps({"error": f"acknowledged batch {batch} was lost"}),
                file=sys.stderr,
            )
            sys.exit(3)
        for mutation in batch_mutations(seed, batch):
            result = apply_mutation(database, mutation)
            if mutation[1] in acked and not result["deduplicated"]:
                print(
                    json.dumps(
                        {"error": f"acknowledged mutation {mutation[1]} was lost"}
                    ),
                    file=sys.stderr,
                )
                sys.exit(3)
    final = golden(database)
    database.close()
    print(json.dumps({"golden": final}))


def run_clean(seed: int) -> None:
    database = Database(build_catalog())
    for batch, rows in all_batches(seed):
        database.apply_write("ORDERS", rows, request_id=f"batch-{batch}")
        for mutation in batch_mutations(seed, batch):
            apply_mutation(database, mutation)
    print(json.dumps({"golden": golden(database)}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("workload", "verify", "clean"), required=True)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--acked", default="", help="comma-separated batch ids the workload ACKed"
    )
    args = parser.parse_args()
    if args.mode == "workload":
        run_workload(args.data_dir, args.seed)
    elif args.mode == "verify":
        acked = {b for b in args.acked.split(",") if b != ""}
        run_verify(args.data_dir, args.seed, acked)
    else:
        run_clean(args.seed)


if __name__ == "__main__":
    main()
