"""The result cache keys entries by what they read.

An entry holds its statement's read set (every base relation of the
bound query, subquery blocks included) and the read stamp taken before
the statement ran.  A write to one relation must leave entries of other
relations serving, must turn every entry that reads it (in any block)
into a miss, and no interleaving — an in-process write, an out-of-band
``note_data_change``, a view dropped and created again — may ever hand
back rows older than the data.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Union

import pytest

from repro.api import Database
from repro.core.executor import QueryResult
from repro.serve import QueryServer, ServeClient, ServerConfig, connect

from tests.conftest import make_mini_catalog

CUSTOMER_SQL = "SELECT COUNT(*) AS n, SUM(c.C_ACCTBAL) AS bal FROM CUSTOMER c"
ORDERS_SQL = "SELECT COUNT(*) AS n FROM ORDERS o"
NATION_SQL = "SELECT n.N_NAME AS name FROM NATION n"

#: the outer block reads CUSTOMER only; the subquery block reads ORDERS
SUBQUERY_SQL = {
    "in": "SELECT COUNT(*) AS n FROM CUSTOMER c "
    "WHERE c.C_CUSTKEY IN (SELECT o.O_CUSTKEY FROM ORDERS o WHERE o.O_TOTAL > 40.0)",
    "exists": "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE EXISTS "
    "(SELECT o.O_ORDERKEY FROM ORDERS o WHERE o.O_CUSTKEY = c.C_CUSTKEY)",
    "scalar": "SELECT COUNT(*) AS n FROM CUSTOMER c "
    "WHERE c.C_ACCTBAL > (SELECT MAX(o.O_TOTAL) FROM ORDERS o)",
}
#: each count before and after inserting NEW_ORDER (customer 11, total 120)
SUBQUERY_COUNTS = {"in": (1, 2), "exists": (4, 5), "scalar": (3, 1)}
NEW_ORDER = [900, 11, 120.0, "HIGH"]


def serving(
    scenario: Callable[[QueryServer, ServeClient], Awaitable[None]],
    databases: Union[Database, Mapping[str, Database], None] = None,
) -> None:
    async def body() -> None:
        served = databases if databases is not None else Database(make_mini_catalog())
        server = QueryServer(served, ServerConfig(warm_start=False))
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


async def read(client: ServeClient, sql: str, **fields: Any) -> Dict[str, Any]:
    """One ``execute`` reply's payload (``result_set`` + ``cached``)."""
    frame = await client.request("execute", sql=sql, **fields)
    assert frame["ok"], frame
    return frame["result"]


def value(payload: Dict[str, Any]) -> Any:
    return QueryResult.from_json(payload["result_set"]).single_value()


class TestReadSetInvalidation:
    def test_orders_writes_keep_customer_reads_and_drop_orders_reads(self):
        async def scenario(server: QueryServer, client: ServeClient) -> None:
            first = await read(client, CUSTOMER_SQL)
            assert first["cached"] is False
            await read(client, ORDERS_SQL)
            writes = (
                client.load_rows("ORDERS", [NEW_ORDER]),
                client.update_rows("ORDERS", [NEW_ORDER], [[900, 12, 121.0, "LOW"]]),
                client.delete_rows("ORDERS", [[900, 12, 121.0, "LOW"]]),
            )
            for write, orders in zip(writes, (7, 7, 6)):
                await write
                again = await read(client, CUSTOMER_SQL)
                assert again["cached"] is True, "an ORDERS write evicted a CUSTOMER read"
                assert again["result_set"] == first["result_set"]
                fresh = await read(client, CUSTOMER_SQL, use_cache=False)
                assert fresh["result_set"]["rows"] == again["result_set"]["rows"]
                after = await read(client, ORDERS_SQL)
                assert after["cached"] is False
                assert value(after) == orders
            # each write dropped the one ORDERS entry, never the CUSTOMER one
            assert server.result_cache.stats.invalidations == 3

        serving(scenario)

    @pytest.mark.parametrize("kind", sorted(SUBQUERY_SQL))
    def test_subquery_over_written_relation_misses(self, kind):
        sql = SUBQUERY_SQL[kind]
        before, after = SUBQUERY_COUNTS[kind]

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            assert value(await read(client, sql)) == before
            assert (await read(client, sql))["cached"] is True
            await client.load_rows("ORDERS", [NEW_ORDER])
            reply = await read(client, sql)
            assert reply["cached"] is False, f"{kind} subquery read served stale"
            assert value(reply) == after
            assert server.result_cache.stats.invalidations == 1

        serving(scenario)

    def test_prepared_statement_entries_follow_their_read_set(self):
        async def scenario(server: QueryServer, client: ServeClient) -> None:
            statement = await client.prepare(
                "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE c.C_ACCTBAL > :b"
            )
            nation_via_customer = await client.prepare(
                "SELECT COUNT(*) AS n FROM NATION n WHERE n.N_NATIONKEY IN "
                "(SELECT c.C_NATIONKEY FROM CUSTOMER c WHERE c.C_ACCTBAL > :b)"
            )

            async def run(handle: Any, bound: float) -> Dict[str, Any]:
                frame = await client.request(
                    "execute_prepared", statement=handle.statement_id, params={"b": bound}
                )
                return frame["result"]

            for handle in (statement, nation_via_customer):
                await run(handle, 60.0)
                assert (await run(handle, 60.0))["cached"] is True
            await client.load_rows("ORDERS", [NEW_ORDER])
            assert (await run(statement, 60.0))["cached"] is True
            assert (await run(nation_via_customer, 60.0))["cached"] is True
            await client.load_rows("CUSTOMER", [[15, 2, 500.0]])
            miss = await run(statement, 60.0)
            assert miss["cached"] is False and value(miss) == 4
            nested = await run(nation_via_customer, 60.0)
            assert nested["cached"] is False and value(nested) == 3

        serving(scenario)


class TestStampsAgainstChangesTheServerNeverSees:
    def test_note_data_change_invalidates_every_entry_of_the_tenant(self):
        database = Database(make_mini_catalog())
        other = Database(make_mini_catalog())

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            statements = (CUSTOMER_SQL, ORDERS_SQL, NATION_SQL)
            for tenant in ("default", "other"):
                for sql in statements:
                    await read(client, sql, tenant=tenant)
            database.note_data_change()
            for sql in statements:
                assert (await read(client, sql))["cached"] is False, sql
                assert (await read(client, sql, tenant="other"))["cached"] is True, sql
            assert server.result_cache.stats.stale == len(statements)

        serving(scenario, {"default": database, "other": other})

    def test_write_between_read_and_store_is_never_served_stale(self):
        class WriteAfterReadDatabase(Database):
            """Sessions apply the pending ORDERS rows right after a read
            returns: after execution, before the server stores the entry."""

            pending: list = []

            def connect(self, engine: Optional[str] = None) -> Any:
                session = super().connect(engine)
                original = session.execute

                def execute_then_write(query: Any, params: Any = None, name: str = "query") -> Any:
                    result = original(query, params=params, name=name)
                    while self.pending:
                        self.load_rows("ORDERS", [self.pending.pop()])
                    return result

                session.execute = execute_then_write  # type: ignore[method-assign]
                return session

        database = WriteAfterReadDatabase(make_mini_catalog())

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            database.pending = [NEW_ORDER]
            first = await read(client, ORDERS_SQL)
            assert value(first) == 6  # executed before the write landed
            assert database.catalog.relation("ORDERS").cardinality() == 7
            second = await read(client, ORDERS_SQL)
            assert value(second) == 7, "served the rows from before the write"
            assert second["cached"] is False
            assert (await read(client, ORDERS_SQL))["cached"] is True

        serving(scenario, database)

    def test_in_process_write_turns_entries_stale(self):
        database = Database(make_mini_catalog())

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            await read(client, CUSTOMER_SQL)
            await read(client, ORDERS_SQL)
            database.load_rows("CUSTOMER", [[15, 3, 500.0]])
            reply = await read(client, CUSTOMER_SQL)
            assert reply["cached"] is False
            assert QueryResult.from_json(reply["result_set"]).rows[0]["n"] == 6
            assert (await read(client, ORDERS_SQL))["cached"] is True
            stats = (await client.stats())["result_cache"]
            assert stats["stale"] == 1
            assert stats["invalidations"] == 0

        serving(scenario, database)


class TestDeduplicatedReplay:
    def test_replayed_write_keeps_the_hits(self, tmp_path):
        database = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            await client.load_rows("ORDERS", [NEW_ORDER], request_id="replay-1")
            await read(client, ORDERS_SQL)
            assert (await read(client, ORDERS_SQL))["cached"] is True
            retry = await client.load_rows("ORDERS", [NEW_ORDER], request_id="replay-1")
            assert retry["deduplicated"] is True
            reply = await read(client, ORDERS_SQL)
            assert reply["cached"] is True
            assert value(reply) == 7
            assert server.result_cache.stats.invalidations == 0

        serving(scenario, database)


class TestViewEntries:
    def test_dropped_and_recreated_view_is_not_served_from_its_predecessor(self):
        database = Database(make_mini_catalog())

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            await client.materialize("SELECT COUNT(*) AS n FROM ORDERS o", view="v")
            first = await client.query_view("v")
            assert first.single_value() == 6
            await client.query_view("v")  # now cached
            database.drop_view("v")
            database.materialize("SELECT COUNT(*) AS n FROM CUSTOMER c", name="v")
            frame = await client.request("query_view", view="v")
            assert frame["result"]["cached"] is False
            assert QueryResult.from_json(frame["result"]["result_set"]).single_value() == 5

        serving(scenario, database)

    def test_view_entry_follows_the_relations_the_view_reads(self):
        async def scenario(server: QueryServer, client: ServeClient) -> None:
            await client.materialize("SELECT COUNT(*) AS n FROM CUSTOMER c", view="cust")
            await client.materialize("SELECT COUNT(*) AS n FROM ORDERS o", view="ord")
            for name in ("cust", "ord"):
                await client.query_view(name)
            await client.load_rows("ORDERS", [NEW_ORDER])
            cust = await client.request("query_view", view="cust")
            assert cust["result"]["cached"] is True
            ord_ = await client.request("query_view", view="ord")
            assert ord_["result"]["cached"] is False
            assert QueryResult.from_json(ord_["result"]["result_set"]).single_value() == 7

        serving(scenario)


class TestStatsOp:
    def test_stats_separate_stale_entries_from_cold_misses(self):
        database = Database(make_mini_catalog())

        async def scenario(server: QueryServer, client: ServeClient) -> None:
            await read(client, CUSTOMER_SQL)  # cold miss
            await read(client, ORDERS_SQL)  # cold miss
            await read(client, CUSTOMER_SQL)  # hit
            await client.load_rows("ORDERS", [NEW_ORDER])  # drops the ORDERS entry
            await read(client, ORDERS_SQL)  # cold miss again: the entry is gone
            database.load_rows("CUSTOMER", [[15, 3, 500.0]])  # behind the server
            await read(client, CUSTOMER_SQL)  # stale miss
            stats = (await client.stats())["result_cache"]
            assert stats["hits"] == 1
            assert stats["misses"] == 4
            assert stats["stale"] == 1
            assert stats["invalidations"] == 1
            assert stats["hit_rate"] == round(1 / 5, 4)

        serving(scenario, database)
