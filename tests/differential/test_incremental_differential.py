"""Differential testing of incremental maintenance: randomized interleaved writes.

Each round a deterministic RNG picks relations along the FK chain and
appends freshly generated, FK-valid rows through ``Database.load_rows``
— the incremental path that patches the TAG graph, indexes
and engines in place.  After every round the harness asserts:

* every execution path of the *incrementally maintained* database still
  agrees with the others on a fixed query battery (``run_case``);
* the incrementally maintained database agrees with a **from-scratch
  reference** — a fresh ``build_catalog()`` with the same delta rows
  extended into its relations before first use, so every structure is
  built cold.

Separate tests drive materialized views through randomized write
sequences and check they stay identical to cold re-execution — the
acceptance property of seminaïve view maintenance: a join view under
``load_rows``, and aggregate views (grouped and global, single-table and
join) beside a DISTINCT join view and a filtered self-join view under
interleaved inserts, updates and deletes, checked after every write.  ``-m differential`` runs the aggregate script for
``DIFFERENTIAL_EXAMPLES`` writes.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import random
from collections import Counter
from typing import Dict, List

import pytest

from differential_dataset import (
    CUST_COUNT,
    ITEM_COUNT,
    ORD_COUNT,
    REGION_COUNT,
    STATUSES,
    TAGS,
    TIERS,
    build_catalog,
    near_unique_ref,
    unicode_note,
)
from differential_harness import (
    QueryCase,
    canonical_rows,
    make_database,
    run_case,
)
from repro.api import Database

ROUNDS = 6
DEEP_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "500"))
DEEP_DERANDOMIZE = os.environ.get("DIFFERENTIAL_SEED_MODE", "fixed") != "random"

#: fixed battery spanning the FK chain: counts, grouped aggregates, plain
#: projections, NULL-sensitive filters — all sensitive to appended rows
QUERY_BATTERY = [
    QueryCase(sql="SELECT COUNT(*) AS n FROM ORD t0"),
    QueryCase(
        sql=(
            "SELECT COUNT(*) AS n FROM REGION t0, CUST t1, ORD t2 "
            "WHERE t0.R_ID = t1.C_REGION AND t1.C_ID = t2.O_CUST"
        )
    ),
    QueryCase(
        sql=(
            "SELECT t0.O_STATUS AS g0, COUNT(*) AS a0, SUM(t0.O_TOTAL) AS a1 "
            "FROM ORD t0 GROUP BY t0.O_STATUS"
        )
    ),
    QueryCase(
        sql=(
            "SELECT t0.I_ID AS c0, t1.O_STATUS AS c1 FROM ITEM t0, ORD t1 "
            "WHERE t0.I_ORD = t1.O_ID AND t0.I_QTY > 20"
        )
    ),
    QueryCase(sql="SELECT t0.C_ID AS c0 FROM CUST t0 WHERE t0.C_TIER IS NULL"),
    QueryCase(
        sql=(
            "SELECT t0.R_NAME AS g0, COUNT(DISTINCT t1.C_ID) AS a0 "
            "FROM REGION t0, CUST t1 WHERE t0.R_ID = t1.C_REGION "
            "GROUP BY t0.R_NAME"
        )
    ),
]


class DeltaGenerator:
    """FK-valid random rows for any table of the differential dataset.

    Tracks how many rows each table holds (seed + applied deltas) so
    generated foreign keys always reference an existing parent — in both
    the incrementally maintained database and the reference rebuild.
    """

    BASE_COUNTS = {
        "REGION": REGION_COUNT,
        "CUST": CUST_COUNT,
        "ORD": ORD_COUNT,
        "ITEM": ITEM_COUNT,
    }

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counts: Dict[str, int] = dict(self.BASE_COUNTS)

    def rows_for(self, table: str, count: int) -> List[list]:
        rng = self.rng
        rows = []
        for _ in range(count):
            ident = self.counts[table]
            self.counts[table] += 1
            if table == "REGION":
                rows.append([ident, f"region-{ident}"])
            elif table == "CUST":
                rows.append(
                    [
                        ident,
                        rng.randrange(self.counts["REGION"]),
                        f"cust-{ident:03d}",
                        None if rng.random() < 0.2 else round(rng.uniform(0, 100), 2),
                        dt.date(2020, 1, 1) + dt.timedelta(days=rng.randrange(1500)),
                        None if rng.random() < 0.25 else rng.choice(TIERS),
                        # fresh unicode note: every delta row grows the dictionary
                        unicode_note(rng, ident),
                    ]
                )
            elif table == "ORD":
                rows.append(
                    [
                        ident,
                        rng.randrange(self.counts["CUST"]),
                        rng.choice(STATUSES),
                        round(rng.uniform(5, 2000), 2),
                        None if rng.random() < 0.3 else rng.randrange(1, 6),
                        near_unique_ref(rng),
                    ]
                )
            else:  # ITEM
                rows.append(
                    [
                        ident,
                        rng.randrange(self.counts["ORD"]),
                        rng.randint(1, 40),
                        round(rng.uniform(0.5, 300), 2),
                        None if rng.random() < 0.2 else rng.choice(TAGS),
                        None,  # I_MEMO stays all-NULL through every delta
                    ]
                )
        return rows


def reference_database(applied: List[tuple]) -> Database:
    """A cold database: same rows, but extended before anything is built."""
    catalog = build_catalog()
    for relation_name, rows in applied:
        catalog.relation(relation_name).extend(rows)
    return Database(catalog)


def assert_matches_reference(database: Database, applied: List[tuple]) -> None:
    reference = reference_database(applied)
    for case in QUERY_BATTERY:
        warm = database.connect(engine="tag").sql(case.sql)
        cold = reference.connect(engine="tag").sql(case.sql)
        columns = list(cold.columns)
        assert canonical_rows(warm, columns) == canonical_rows(cold, columns), (
            f"incremental database diverged from cold rebuild on:\n  {case.sql}"
            f"\n  after deltas: {[(name, len(rows)) for name, rows in applied]}"
        )


@pytest.mark.parametrize("seed", [0, 1, 20260808])
def test_interleaved_writes_match_cold_rebuild(seed):
    rng = random.Random(seed)
    generator = DeltaGenerator(rng)
    database = make_database()
    # warm every structure before the first write so deltas patch, not build
    for case in QUERY_BATTERY:
        run_case(database, case)

    applied: List[tuple] = []
    for _ in range(ROUNDS):
        for _ in range(rng.randint(1, 3)):
            table = rng.choice(("REGION", "CUST", "ORD", "ITEM"))
            rows = generator.rows_for(table, rng.randint(1, 5))
            appended = database.load_rows(table, rows)
            assert appended == len(rows)
            applied.append((table, rows))
        # every execution path of the warm database still agrees with the others
        for case in QUERY_BATTERY:
            run_case(database, case)
        # ... and with a database that never saw a delta
        assert_matches_reference(database, applied)

    maintenance = database.cache_stats()["maintenance"]
    assert maintenance["rows_applied"] == sum(len(rows) for _, rows in applied)
    assert maintenance["full_rebuilds"] == 0, "a delta fell back to scorched earth"


@pytest.mark.parametrize("seed", [3, 20260808])
def test_interleaved_mutations_match_cold_rebuild(seed):
    """Inserts, deletes and updates interleaved, FK-safe by construction.

    Deletes target only delta-inserted ITEM rows (the FK leaf — nothing
    references them); updates rewrite non-key columns of delta-inserted
    ORD rows (O_ID untouched, so ITEM children stay valid).  The shadow
    lists track the surviving delta rows, which is exactly what the cold
    reference extends its relations with.
    """
    rng = random.Random(seed)
    generator = DeltaGenerator(rng)
    database = make_database()
    for case in QUERY_BATTERY:
        run_case(database, case)

    # surviving delta rows per table — the reference's extension set
    shadow: Dict[str, List[list]] = {"REGION": [], "CUST": [], "ORD": [], "ITEM": []}

    def applied() -> List[tuple]:
        return [(table, rows) for table, rows in shadow.items() if rows]

    for _ in range(ROUNDS):
        # 1) grow: ORD/ITEM get fresh FK-valid rows to mutate later
        for table in ("ORD", "ITEM"):
            rows = generator.rows_for(table, rng.randint(2, 5))
            database.load_rows(table, rows)
            shadow[table].extend(rows)
        if rng.random() < 0.5:
            table = rng.choice(("REGION", "CUST"))
            rows = generator.rows_for(table, rng.randint(1, 3))
            database.load_rows(table, rows)
            shadow[table].extend(rows)

        # 2) delete up to two delta-inserted ITEM rows by value
        victims = [
            shadow["ITEM"].pop(rng.randrange(len(shadow["ITEM"])))
            for _ in range(min(rng.randint(1, 2), len(shadow["ITEM"])))
        ]
        if victims:
            assert database.delete_rows("ITEM", victims) == len(victims)

        # 3) update a delta-inserted ORD row's non-key columns
        if shadow["ORD"] and rng.random() < 0.8:
            index = rng.randrange(len(shadow["ORD"]))
            victim = shadow["ORD"][index]
            replacement = list(victim)
            replacement[2] = rng.choice(STATUSES)
            replacement[3] = round(rng.uniform(5, 2000), 2)
            receipt = database.apply_update("ORD", [victim], [replacement])
            assert receipt["deleted"] == 1 and receipt["inserted"] == 1
            shadow["ORD"][index] = replacement

        # every execution path of the warm database still agrees with the others
        for case in QUERY_BATTERY:
            run_case(database, case)
        # ... and with a database that never saw a delta or a tombstone
        assert_matches_reference(database, applied())

    maintenance = database.cache_stats()["maintenance"]
    assert maintenance["delete_deltas_applied"] > 0
    assert maintenance["full_rebuilds"] == 0, "a mutation fell back to scorched earth"


@pytest.mark.parametrize("seed", [7, 20260808])
def test_materialized_view_matches_cold_reexecution(seed):
    view_sql = (
        "SELECT t0.C_ID AS cid, t1.O_ID AS oid, t1.O_TOTAL AS total "
        "FROM CUST t0, ORD t1 WHERE t0.C_ID = t1.O_CUST AND t1.O_TOTAL > 100"
    )
    rng = random.Random(seed)
    generator = DeltaGenerator(rng)
    database = make_database()
    info = database.materialize(view_sql, name="spend")
    assert info["mode"] == "delta"

    applied: List[tuple] = []
    for _ in range(ROUNDS):
        table = rng.choice(("REGION", "CUST", "ORD", "ITEM"))
        rows = generator.rows_for(table, rng.randint(1, 5))
        database.load_rows(table, rows)
        applied.append((table, rows))

        served = Counter(
            tuple(sorted(row.items())) for row in database.query_view("spend").rows
        )
        cold = Counter(
            tuple(sorted(row.items()))
            for row in reference_database(applied).connect().sql(view_sql).rows
        )
        assert served == cold, (
            "materialized view diverged from cold re-execution after "
            f"{[(name, len(rows)) for name, rows in applied]}"
        )


# ----------------------------------------------------------------------
# aggregate views under random inserts, updates and deletes
# ----------------------------------------------------------------------
#: grouped and global, single-table and join; every aggregate the view
#: state folds, over int, float, string and date arguments with NULLs
AGGREGATE_VIEWS = {
    "by_status": (
        "SELECT t0.O_STATUS AS g0, COUNT(*) AS n, COUNT(t0.O_PRIO) AS prios, "
        "SUM(t0.O_PRIO) AS sum_int, SUM(t0.O_TOTAL) AS sum_float, AVG(t0.O_TOTAL) AS mean, "
        "MIN(t0.O_TOTAL) AS lo, MAX(t0.O_REF) AS hi, COUNT(DISTINCT t0.O_CUST) AS custs "
        "FROM ORD t0 GROUP BY t0.O_STATUS"
    ),
    "items": (
        "SELECT COUNT(*) AS n, SUM(t0.I_QTY) AS sum_int, SUM(t0.I_PRICE) AS sum_float, "
        "AVG(t0.I_QTY) AS mean, MIN(t0.I_PRICE) AS lo, MAX(t0.I_TAG) AS hi, "
        "COUNT(DISTINCT t0.I_TAG) AS tags FROM ITEM t0"
    ),
    "by_region": (
        "SELECT t0.C_REGION AS g0, COUNT(*) AS n, SUM(t1.O_TOTAL) AS sum_float, "
        "AVG(t1.O_PRIO) AS mean, MIN(t0.C_SINCE) AS first, MAX(t1.O_TOTAL) AS hi, "
        "COUNT(DISTINCT t1.O_STATUS) AS statuses "
        "FROM CUST t0, ORD t1 WHERE t0.C_ID = t1.O_CUST GROUP BY t0.C_REGION"
    ),
    "big_order_items": (
        "SELECT COUNT(*) AS n, SUM(t1.I_QTY) AS sum_int, SUM(t1.I_PRICE) AS sum_float, "
        "AVG(t1.I_PRICE) AS mean, MAX(t0.O_TOTAL) AS hi "
        "FROM ORD t0, ITEM t1 WHERE t0.O_ID = t1.I_ORD AND t0.O_TOTAL > 500"
    ),
}

#: keyed-bag views maintained beside the aggregate ones: DISTINCT is
#: applied at serve time over the bag, and a self-join is where the
#: exclusion sets on earlier aliases decide whether a write touching both
#: aliases' relation is counted once
DELTA_VIEWS = {
    "region_statuses": (
        "SELECT DISTINCT t0.C_REGION AS region, t1.O_STATUS AS status "
        "FROM CUST t0, ORD t1 WHERE t0.C_ID = t1.O_CUST"
    ),
    "co_orders": (
        "SELECT t0.O_ID AS first, t1.O_ID AS second, t1.O_TOTAL AS total "
        "FROM ORD t0, ORD t1 WHERE t0.O_CUST = t1.O_CUST AND t1.O_TOTAL > 500"
    ),
}

#: per table, the non-key columns an update may rewrite (keys stay put so
#: the surviving delta rows remain FK-valid)
_UPDATABLE = {"CUST": (1, 3, 5), "ORD": (2, 3, 4), "ITEM": (2, 3, 4)}


def assert_aggregates_close(served, cold, context: str) -> None:
    """Row-for-row equality; floats within a 1e-9 relative tolerance."""
    columns = list(cold.columns)
    assert list(served.columns) == columns
    got, want = served.to_tuples(columns), cold.to_tuples(columns)
    assert len(got) == len(want), context
    for got_row, want_row in zip(got, want):
        for got_value, want_value in zip(got_row, want_row):
            if isinstance(want_value, float):
                assert math.isclose(got_value, want_value, rel_tol=1e-9), (
                    got_row, want_row, context,
                )
            else:
                assert got_value == want_value, (got_row, want_row, context)


def bag(result) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in result.rows)


def run_aggregate_view_script(seed: int, writes: int) -> None:
    """``writes`` random writes; every view equals cold re-execution after each."""
    rng = random.Random(seed)
    generator = DeltaGenerator(rng)
    database = make_database()
    for name, sql in AGGREGATE_VIEWS.items():
        assert database.materialize(sql, name=name)["mode"] == "aggregate"
    for name, sql in DELTA_VIEWS.items():
        assert database.materialize(sql, name=name)["mode"] == "delta"
    # surviving delta rows per table: the reference's extension set
    shadow: Dict[str, List[list]] = {"CUST": [], "ORD": [], "ITEM": []}
    fresh = {"CUST": generator.rows_for("CUST", 8), "ORD": generator.rows_for("ORD", 8)}

    for step in range(writes):
        table = rng.choice(("CUST", "ORD", "ITEM", "ORD", "ITEM"))
        live = shadow[table]
        kind = rng.choice(("insert", "insert", "update", "delete")) if live else "insert"
        if kind == "insert":
            rows = generator.rows_for(table, rng.randint(1, 4))
            assert database.load_rows(table, rows) == len(rows)
            live.extend(rows)
        elif kind == "delete":
            count = rng.randint(1, min(3, len(live)))
            victims = [live.pop(rng.randrange(len(live))) for _ in range(count)]
            assert database.delete_rows(table, victims) == len(victims)
        else:
            index = rng.randrange(len(live))
            replacement = list(live[index])
            # a fresh row's value for each rewritten column: random group
            # moves, NULLs in and out, new extremes
            donor = generator.rows_for(table, 1)[0] if table == "ITEM" else fresh[table][step % 8]
            for column in rng.sample(_UPDATABLE[table], rng.randint(1, 2)):
                replacement[column] = donor[column]
            assert database.update_rows(table, [live[index]], [replacement]) == 1
            live[index] = replacement

        reference = reference_database([(name, rows) for name, rows in shadow.items() if rows])
        for name, sql in AGGREGATE_VIEWS.items():
            assert_aggregates_close(
                database.query_view(name),
                reference.connect().sql(sql),
                f"view {name} after write {step} ({kind} {table}), seed {seed}",
            )
        for name, sql in DELTA_VIEWS.items():
            assert bag(database.query_view(name)) == bag(reference.connect().sql(sql)), (
                f"view {name} after write {step} ({kind} {table}), seed {seed}"
            )

    maintenance = database.cache_stats()["maintenance"]
    assert maintenance["views_recomputed"] == 0
    assert maintenance["full_rebuilds"] == 0


@pytest.mark.parametrize("seed", [11, 20260808])
def test_aggregate_views_match_cold_reexecution(seed):
    run_aggregate_view_script(seed, writes=30)


@pytest.mark.differential
def test_aggregate_views_match_cold_reexecution_deep():
    seed = 20260808 if DEEP_DERANDOMIZE else random.SystemRandom().randrange(2**32)
    run_aggregate_view_script(seed, writes=DEEP_EXAMPLES)
