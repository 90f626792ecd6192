"""Seeded differential of the result cache through a live server.

Each seed drives one connection through a script that mixes writes to
CUSTOMER and ORDERS (inserts, updates, deletes) with repeated reads:
single-relation reads, joins, subqueries whose inner block reads a
written relation, and prepared statements with parameters.  Every read
is sent twice — through the cache, then with ``use_cache=False`` — and
the two replies must hold the same rows.  A cache that forgot a relation
of some block (say, a read set without the subquery's tables) answers
from an entry older than the data and fails here.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List

import pytest

from repro.api import Database
from repro.core.executor import QueryResult
from repro.serve import QueryServer, ServerConfig, connect

from tests.conftest import make_mini_catalog

SEEDS = (0, 1, 2, 3)
ENGINES = ("tag", "rdbms")
STEPS = 120
WRITE_SHARE = 0.2

READ_SQL = (
    "SELECT COUNT(*) AS n FROM ORDERS o",
    "SELECT c.C_NATIONKEY AS nk, COUNT(*) AS n FROM CUSTOMER c GROUP BY c.C_NATIONKEY",
    "SELECT n.N_NAME AS name FROM NATION n",
    "SELECT c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY",
    "SELECT n.N_NAME AS name, COUNT(*) AS n FROM NATION n, CUSTOMER c, ORDERS o "
    "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY GROUP BY n.N_NAME",
    # the outer block reads one relation, the subquery block another
    "SELECT c.C_CUSTKEY AS ck FROM CUSTOMER c "
    "WHERE c.C_CUSTKEY IN (SELECT o.O_CUSTKEY FROM ORDERS o WHERE o.O_TOTAL > 40.0)",
    "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE c.C_CUSTKEY NOT IN "
    "(SELECT o.O_CUSTKEY FROM ORDERS o)",
    "SELECT n.N_NAME AS name FROM NATION n WHERE EXISTS (SELECT c.C_CUSTKEY "
    "FROM CUSTOMER c WHERE c.C_NATIONKEY = n.N_NATIONKEY AND c.C_ACCTBAL > 80.0)",
    "SELECT COUNT(*) AS n FROM CUSTOMER c "
    "WHERE c.C_ACCTBAL > (SELECT MAX(o.O_TOTAL) FROM ORDERS o)",
)
PREPARED_SQL = (
    ("SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :t", "t", (10.0, 60.0)),
    (
        "SELECT COUNT(*) AS n FROM NATION n WHERE n.N_NATIONKEY IN "
        "(SELECT c.C_NATIONKEY FROM CUSTOMER c WHERE c.C_ACCTBAL > :b)",
        "b",
        (40.0, 95.0),
    ),
)

ACCTBALS = (0.0, 30.0, 60.0, 90.0, 300.0)
TOTALS = (5.0, 25.0, 45.0, 75.0, 120.0)


class Script:
    """The seed's writes, drawn against a model of the live rows so every
    update and delete names a row that exists."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        catalog = make_mini_catalog()
        self.rows: Dict[str, List[List[Any]]] = {
            name: [list(row) for row in catalog.relation(name).rows]
            for name in ("CUSTOMER", "ORDERS")
        }
        self.next_key = {"CUSTOMER": 100, "ORDERS": 1000}

    def fresh_row(self, relation: str, key: int) -> List[Any]:
        rng = self.rng
        if relation == "CUSTOMER":
            return [key, rng.randint(1, 3), rng.choice(ACCTBALS)]
        customers = [row[0] for row in self.rows["CUSTOMER"]]
        return [key, rng.choice(customers), rng.choice(TOTALS), rng.choice(("HIGH", "LOW"))]

    def write(self) -> Dict[str, Any]:
        rng = self.rng
        relation = rng.choice(("CUSTOMER", "ORDERS"))
        live = self.rows[relation]
        kind = rng.choice(("load_rows", "update_rows", "delete_rows"))
        if kind == "load_rows" or len(live) <= 3:
            key = self.next_key[relation]
            self.next_key[relation] += 1
            row = self.fresh_row(relation, key)
            live.append(row)
            return {"op": "load_rows", "relation": relation, "rows": [row]}
        victim = live.pop(rng.randrange(len(live)))
        if kind == "delete_rows":
            return {"op": "delete_rows", "relation": relation, "rows": [victim]}
        replacement = self.fresh_row(relation, victim[0])
        live.append(replacement)
        return {
            "op": "update_rows",
            "relation": relation,
            "rows": [victim],
            "updates": [replacement],
        }


def rows_of(frame: Dict[str, Any]) -> List[tuple]:
    assert frame["ok"], frame
    result = QueryResult.from_json(frame["result"]["result_set"])
    return sorted(result.to_tuples(), key=repr)


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_replies_equal_uncached_replies(seed):
    engine = ENGINES[seed % len(ENGINES)]
    script = Script(seed)
    rng = random.Random(seed + 1000)
    tally = {"reads": 0, "cached": 0}

    async def body() -> None:
        server = QueryServer(Database(make_mini_catalog()), ServerConfig(warm_start=False))
        await server.start()
        client = await connect(server.host, server.port)
        try:
            prepared = [
                (await client.prepare(sql, engine=engine), name, values)
                for sql, name, values in PREPARED_SQL
            ]
            for step in range(STEPS):
                if rng.random() < WRITE_SHARE:
                    write = script.write()
                    frame = await client.request(**write)
                    assert frame["ok"], (step, write, frame)
                    continue
                which = rng.randrange(len(READ_SQL) + len(prepared))
                if which < len(READ_SQL):
                    request = {"op": "execute", "sql": READ_SQL[which], "engine": engine}
                else:
                    statement, name, values = prepared[which - len(READ_SQL)]
                    request = {
                        "op": "execute_prepared",
                        "statement": statement.statement_id,
                        "params": {name: rng.choice(values)},
                    }
                cached = await client.request(**request)
                fresh = await client.request(**request, use_cache=False)
                assert rows_of(cached) == rows_of(fresh), (step, request)
                tally["reads"] += 1
                tally["cached"] += cached["result"]["cached"]
            stats = server.result_cache.stats
            assert stats.invalidations > 0
        finally:
            await client.close()
            await server.stop()

    asyncio.run(body())
    # the comparison only means something if the cache answered often
    assert tally["cached"] >= tally["reads"] // 5, tally
