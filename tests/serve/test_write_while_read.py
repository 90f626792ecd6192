"""Concurrent write-while-read on the serving layer.

Readers hammer COUNT queries (and a materialized view) while writers
interleave ``load_rows`` batches.  Three properties must hold on every
frame that comes back:

* no error frames — in particular no ``StaleEngineError`` escaping as an
  ``execution_error`` (sessions rebind under the read lock);
* no invalid frames (schema-checked by the client);
* no torn results — every observed count corresponds to a prefix of
  whole batches, never a partially applied delta.

Each write batch appends ``BATCH`` rows atomically under the write lock,
so a count of the base table is valid iff it is ``base + BATCH * i``.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.api import Database
from repro.serve import QueryServer, ServeClient, ServerConfig, connect

from tests.conftest import make_mini_catalog

ORDER_COUNT_SQL = "SELECT COUNT(*) AS n FROM ORDERS o"
JOIN_COUNT_SQL = (
    "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY"
)
VIEW_SQL = (
    "SELECT c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok "
    "FROM CUSTOMER c JOIN ORDERS o ON c.C_CUSTKEY = o.O_CUSTKEY"
)

BASE_ORDERS = 6
BASE_JOINED = 5  # one seed order dangles (O_CUSTKEY=99)
BATCH = 2
BATCHES = 8
READERS = 4
READS_PER_READER = 12


def order_batch(batch_index: int) -> list:
    """Two new orders per batch; both join existing customers (keys 10-14)."""
    base_key = 1000 + batch_index * BATCH
    return [
        [base_key + offset, 10 + (batch_index + offset) % 5, 1.0, "HIGH"]
        for offset in range(BATCH)
    ]


def serving(scenario: Callable[[QueryServer, ServeClient], Awaitable[None]]) -> None:
    async def body() -> None:
        database = Database(make_mini_catalog())
        server = QueryServer(database, ServerConfig(max_queue_depth=256, warm_start=False))
        await server.start()
        try:
            client = await connect(server.host, server.port)
            try:
                await scenario(server, client)
                assert client.invalid_frames == []
            finally:
                await client.close()
        finally:
            await server.stop()

    asyncio.run(body())


class TestWriteWhileRead:
    def test_counts_are_never_torn(self):
        valid_orders = {BASE_ORDERS + BATCH * i for i in range(BATCHES + 1)}
        valid_joined = {BASE_JOINED + BATCH * i for i in range(BATCHES + 1)}
        observed = []

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            async def writer() -> None:
                for batch_index in range(BATCHES):
                    report = await client.load_rows("ORDERS", order_batch(batch_index))
                    assert report["appended"] == BATCH
                    await asyncio.sleep(0)

            async def reader(sql: str, valid: set) -> None:
                for _ in range(READS_PER_READER):
                    result = await client.execute(sql, use_cache=False)
                    count = result.rows[0]["n"]
                    observed.append(count)
                    assert count in valid, f"torn count {count} for {sql!r}"
                    await asyncio.sleep(0)

            await asyncio.gather(
                writer(),
                *(reader(ORDER_COUNT_SQL, valid_orders) for _ in range(READERS // 2)),
                *(reader(JOIN_COUNT_SQL, valid_joined) for _ in range(READERS // 2)),
            )
            # after the writer drains, both counts settle at the final prefix
            final = await client.execute(ORDER_COUNT_SQL, use_cache=False)
            assert final.rows[0]["n"] == BASE_ORDERS + BATCH * BATCHES

        serving(scenario)
        # the readers genuinely raced the writer: more than one prefix observed
        assert len(set(observed)) > 1 or BATCHES == 0

    def test_cached_counts_are_never_torn(self):
        """The twin of the test above with the result cache on: readers on
        their own connections race the writer, and a cached reply may never
        be torn, go backwards, or miss a write acknowledged before it was
        sent."""
        acked = [0]  # write batches acknowledged so far

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            async def writer() -> None:
                for batch_index in range(BATCHES):
                    await client.load_rows("ORDERS", order_batch(batch_index))
                    acked[0] = batch_index + 1
                    await asyncio.sleep(0)

            async def reader(sql: str, base: int) -> None:
                connection = await connect(server.host, server.port)
                try:
                    last = base
                    for _ in range(READS_PER_READER):
                        floor = base + BATCH * acked[0]
                        count = (await connection.execute(sql)).rows[0]["n"]
                        assert (count - base) % BATCH == 0, f"torn count {count}"
                        assert base <= count <= base + BATCH * BATCHES, count
                        assert count >= last, f"count went back from {last} to {count}"
                        assert count >= floor, f"{count} misses an acknowledged write"
                        last = count
                        await asyncio.sleep(0)
                finally:
                    await connection.close()

            await asyncio.gather(
                writer(),
                *(reader(ORDER_COUNT_SQL, BASE_ORDERS) for _ in range(READERS // 2)),
                *(reader(JOIN_COUNT_SQL, BASE_JOINED) for _ in range(READERS // 2)),
            )
            final = await client.execute(ORDER_COUNT_SQL)
            assert final.rows[0]["n"] == BASE_ORDERS + BATCH * BATCHES
            again = await client.request("execute", sql=ORDER_COUNT_SQL)
            assert again["result"]["cached"] is True
            assert server.result_cache.stats.hits >= 1

        serving(scenario)

    def test_mixed_engines_race_the_writer(self):
        valid_joined = {BASE_JOINED + BATCH * i for i in range(BATCHES + 1)}

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            async def writer() -> None:
                for batch_index in range(BATCHES):
                    await client.load_rows("ORDERS", order_batch(batch_index))
                    await asyncio.sleep(0)

            async def reader(engine: str) -> None:
                for _ in range(READS_PER_READER):
                    result = await client.execute(
                        JOIN_COUNT_SQL, engine=engine, use_cache=False
                    )
                    count = result.rows[0]["n"]
                    assert count in valid_joined, (engine, count)
                    await asyncio.sleep(0)

            await asyncio.gather(writer(), reader("tag"), reader("rdbms"), reader("spark"))

        serving(scenario)

    def test_view_reads_race_the_writer(self):
        valid_sizes = {BASE_JOINED + BATCH * i for i in range(BATCHES + 1)}

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            info = await client.materialize(VIEW_SQL, view="live_join")
            assert info["rows"] == BASE_JOINED

            async def writer() -> None:
                for batch_index in range(BATCHES):
                    await client.load_rows("ORDERS", order_batch(batch_index))
                    await asyncio.sleep(0)

            async def view_reader() -> None:
                for _ in range(READS_PER_READER):
                    result = await client.query_view("live_join", use_cache=False)
                    size = len(result.rows)
                    assert size in valid_sizes, f"torn view of {size} rows"
                    # a torn refresh could also surface as duplicate keys
                    keys = [row["ok"] for row in result.rows]
                    assert len(keys) == len(set(keys))
                    await asyncio.sleep(0)

            await asyncio.gather(writer(), view_reader(), view_reader())
            final = await client.query_view("live_join", use_cache=False)
            assert len(final.rows) == BASE_JOINED + BATCH * BATCHES

        serving(scenario)
