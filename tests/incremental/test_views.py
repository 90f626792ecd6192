"""Materialized views: registration, seminaïve delta maintenance, serving.

The invariant every test here drives at: after any sequence of
``load_rows`` calls, ``query_view`` returns exactly what cold re-execution
of the view's SQL returns — delta maintenance is an optimisation, never a
semantic.
"""

from collections import Counter

import pytest

from repro.api.database import Database
from repro.incremental.views import ViewError, view_refresh_mode
from repro.sql import parse_and_bind

from conftest import make_mini_catalog

JOIN_SQL = (
    "SELECT c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok, o.O_TOTAL AS total "
    "FROM CUSTOMER c JOIN ORDERS o ON c.C_CUSTKEY = o.O_CUSTKEY"
)


SUBQUERY_SQL = (
    "SELECT c.C_CUSTKEY AS ck FROM CUSTOMER c WHERE EXISTS "
    "(SELECT o.O_ORDERKEY FROM ORDERS o WHERE o.O_CUSTKEY = c.C_CUSTKEY)"
)
#: every aggregate the view state folds, grouped on a non-NULL key
AGG_SQL = (
    "SELECT o.O_CUSTKEY AS cust, COUNT(*) AS n, COUNT(o.O_PRIORITY) AS prios, "
    "SUM(o.O_TOTAL) AS total, AVG(o.O_TOTAL) AS mean, MIN(o.O_TOTAL) AS lo, "
    "MAX(o.O_TOTAL) AS hi, COUNT(DISTINCT o.O_PRIORITY) AS kinds "
    "FROM ORDERS o GROUP BY o.O_CUSTKEY"
)


def bag(rows):
    return Counter(tuple(sorted(r.items())) for r in rows)


@pytest.fixture()
def db():
    return Database(make_mini_catalog(), engine="tag")


def assert_view_matches_cold(db, name, sql):
    view_rows = db.query_view(name).rows
    cold_rows = db.connect().sql(sql).rows
    assert bag(view_rows) == bag(cold_rows)


def assert_aggregates_match_cold(db, name, sql):
    """Ints (and everything else) compare with ``==``, floats within 1e-9."""
    served = db.query_view(name)
    columns = served.columns
    view_rows = served.to_tuples(columns)
    cold_rows = db.connect().sql(sql).to_tuples(columns)
    assert len(view_rows) == len(cold_rows)
    for view_row, cold_row in zip(view_rows, cold_rows):
        for got, want in zip(view_row, cold_row):
            assert type(got) is type(want), (view_row, cold_row)
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-9)
            else:
                assert got == want


class TestRegistration:
    def test_materialize_reports_mode_and_rows(self, db):
        info = db.materialize(JOIN_SQL, name="joined")
        assert info["mode"] == "delta"
        assert info["rows"] == 5
        assert db.views()[0]["name"] == "joined"

    def test_duplicate_name_rejected(self, db):
        db.materialize(JOIN_SQL, name="joined")
        with pytest.raises(ViewError):
            db.materialize(JOIN_SQL, name="joined")

    def test_parameterized_rejected(self, db):
        with pytest.raises(ViewError):
            db.materialize("SELECT c.C_ACCTBAL AS b FROM CUSTOMER c WHERE c.C_ACCTBAL > :v")

    def test_unknown_view_raises(self, db):
        with pytest.raises(ViewError):
            db.query_view("ghost")

    def test_drop_view(self, db):
        db.materialize(JOIN_SQL, name="joined")
        db.drop_view("joined")
        assert db.views() == []
        with pytest.raises(ViewError):
            db.query_view("joined")

    def test_refresh_mode_classification(self, db):
        catalog = db.catalog
        delta = parse_and_bind(JOIN_SQL, catalog)
        assert view_refresh_mode(delta) == "delta"
        agg = parse_and_bind("SELECT COUNT(*) AS n FROM ORDERS o", catalog)
        assert view_refresh_mode(agg) == "aggregate"
        subquery = parse_and_bind(SUBQUERY_SQL, catalog)
        assert view_refresh_mode(subquery) == "recompute"
        disconnected = parse_and_bind(
            "SELECT n.N_NAME AS name, o.O_ORDERKEY AS ok FROM NATION n, ORDERS o",
            catalog,
        )
        assert view_refresh_mode(disconnected) == "recompute"


class TestDeltaMaintenance:
    def test_single_table_growth(self, db):
        db.materialize(JOIN_SQL, name="joined")
        db.load_rows("ORDERS", [[106, 10, 75.0, "HIGH"], [107, 13, 2.0, "LOW"]])
        assert_view_matches_cold(db, "joined", JOIN_SQL)
        assert db.views()[0]["refresh_count"] == 1
        assert db.views()[0]["last_delta_rows"] == 2

    def test_both_sides_growing_interleaved(self, db):
        db.materialize(JOIN_SQL, name="joined")
        db.load_rows("CUSTOMER", [[15, 1, 5.0]])
        db.load_rows("ORDERS", [[106, 15, 9.0, "LOW"]])   # joins the new customer
        db.load_rows("CUSTOMER", [[16, 2, 6.0]])
        db.load_rows("ORDERS", [[107, 10, 3.0, "HIGH"]])  # joins an old customer
        assert_view_matches_cold(db, "joined", JOIN_SQL)

    def test_delta_touching_no_base_table_is_skipped(self, db):
        db.materialize(JOIN_SQL, name="joined")
        db.load_rows("NATION", [[4, "PERU"]])
        assert db.views()[0]["refresh_count"] == 0  # NATION is not a base table
        assert_view_matches_cold(db, "joined", JOIN_SQL)

    def test_filtered_view(self, db):
        sql = JOIN_SQL + " WHERE o.O_TOTAL > 20"
        db.materialize(sql, name="big")
        db.load_rows("ORDERS", [[106, 10, 75.0, "HIGH"], [107, 13, 2.0, "LOW"]])
        assert_view_matches_cold(db, "big", sql)

    def test_self_join_view(self, db):
        # pairs of orders by the same customer: both aliases grow together
        sql = (
            "SELECT a.O_ORDERKEY AS left_key, b.O_ORDERKEY AS right_key "
            "FROM ORDERS a JOIN ORDERS b ON a.O_CUSTKEY = b.O_CUSTKEY "
            "WHERE a.O_ORDERKEY < b.O_ORDERKEY"
        )
        db.materialize(sql, name="pairs")
        db.load_rows("ORDERS", [[106, 10, 1.0, "LOW"], [107, 10, 2.0, "HIGH"]])
        assert_view_matches_cold(db, "pairs", sql)
        db.load_rows("ORDERS", [[108, 12, 3.0, "LOW"]])
        assert_view_matches_cold(db, "pairs", sql)

    def test_distinct_view_dedups_at_serve_time(self, db):
        sql = "SELECT DISTINCT o.O_PRIORITY AS prio FROM ORDERS o"
        db.materialize(sql, name="prios")
        assert bag(db.query_view("prios").rows) == bag(
            [{"prio": "HIGH"}, {"prio": "LOW"}]
        )
        db.load_rows("ORDERS", [[106, 10, 1.0, "HIGH"], [107, 10, 2.0, "RUSH"]])
        assert bag(db.query_view("prios").rows) == bag(
            [{"prio": "HIGH"}, {"prio": "LOW"}, {"prio": "RUSH"}]
        )

    def test_three_way_chain(self, db):
        sql = (
            "SELECT n.N_NAME AS nation, o.O_ORDERKEY AS ok "
            "FROM NATION n JOIN CUSTOMER c ON n.N_NATIONKEY = c.C_NATIONKEY "
            "JOIN ORDERS o ON c.C_CUSTKEY = o.O_CUSTKEY"
        )
        db.materialize(sql, name="chain")
        db.load_rows("CUSTOMER", [[15, 3, 5.0]])
        db.load_rows("ORDERS", [[106, 15, 9.0, "LOW"]])
        db.load_rows("NATION", [[4, "PERU"]])
        db.load_rows("CUSTOMER", [[16, 4, 1.0]])
        db.load_rows("ORDERS", [[107, 16, 2.0, "HIGH"]])
        assert_view_matches_cold(db, "chain", sql)


class TestRecomputeMaintenance:
    def test_subquery_view_recomputes_on_write(self, db):
        info = db.materialize(SUBQUERY_SQL, name="buyers")
        assert info["mode"] == "recompute"
        db.load_rows("ORDERS", [[106, 11, 1.0, "HIGH"]])  # customer 11's first order
        assert_view_matches_cold(db, "buyers", SUBQUERY_SQL)
        assert db.views()[0]["recompute_count"] == 2  # initial + refresh
        assert db.cache_stats()["maintenance"]["views_recomputed"] == 1

    def test_out_of_band_change_rebuilds_views(self, db):
        db.materialize(JOIN_SQL, name="joined")
        db.catalog.relation("ORDERS").insert([106, 10, 75.0, "HIGH"])
        db.note_data_change()
        assert_view_matches_cold(db, "joined", JOIN_SQL)


class TestAggregateMaintenance:
    def test_aggregate_view_folds_writes(self, db):
        sql = "SELECT o.O_PRIORITY AS prio, COUNT(*) AS n FROM ORDERS o GROUP BY o.O_PRIORITY"
        info = db.materialize(sql, name="counts")
        assert info["mode"] == "aggregate"
        db.load_rows("ORDERS", [[106, 10, 1.0, "HIGH"]])
        assert_view_matches_cold(db, "counts", sql)
        assert db.views()[0]["recompute_count"] == 1  # the initial population only
        assert db.views()[0]["refresh_count"] == 1
        assert db.cache_stats()["maintenance"]["views_recomputed"] == 0

    def test_every_aggregate_through_inserts_updates_and_deletes(self, db):
        db.materialize(AGG_SQL, name="spend")
        assert_aggregates_match_cold(db, "spend", AGG_SQL)
        db.load_rows("ORDERS", [[106, 10, 2.5, "RUSH"], [107, 13, 99.0, None]])
        assert_aggregates_match_cold(db, "spend", AGG_SQL)
        db.update_rows("ORDERS", lambda row: row[0] == 101, {"O_TOTAL": 0.1})
        assert_aggregates_match_cold(db, "spend", AGG_SQL)
        db.delete_rows("ORDERS", lambda row: row[0] in (102, 106))
        assert_aggregates_match_cold(db, "spend", AGG_SQL)
        assert db.maintenance.views_recomputed == 0

    def test_group_emptied_then_refilled(self, db):
        db.materialize(AGG_SQL, name="spend")
        groups = db.views()[0]["groups"]
        db.delete_rows("ORDERS", lambda row: row[1] == 10)
        assert 10 not in {row["cust"] for row in db.query_view("spend").rows}
        assert db.views()[0]["groups"] == groups - 1
        db.load_rows("ORDERS", [[106, 10, 4.0, "LOW"]])
        row = next(r for r in db.query_view("spend").rows if r["cust"] == 10)
        assert (row["n"], row["total"], row["lo"], row["kinds"]) == (1, 4.0, 4.0, 1)
        assert_aggregates_match_cold(db, "spend", AGG_SQL)

    def test_update_moves_a_row_between_groups(self, db):
        db.materialize(AGG_SQL, name="spend")
        db.update_rows("ORDERS", lambda row: row[0] == 103, {"O_CUSTKEY": 12})
        served = {row["cust"]: row for row in db.query_view("spend").rows}
        assert 13 not in served  # its only order moved away
        assert (served[12]["n"], served[12]["total"]) == (2, 40.0)
        assert_aggregates_match_cold(db, "spend", AGG_SQL)

    def test_count_column_skips_nulls(self, db):
        sql = (
            "SELECT o.O_CUSTKEY AS cust, COUNT(*) AS n, COUNT(o.O_PRIORITY) AS prios, "
            "COUNT(o.O_TOTAL) AS priced FROM ORDERS o GROUP BY o.O_CUSTKEY"
        )
        db.materialize(sql, name="nulls")
        db.load_rows("ORDERS", [[106, 11, None, None], [107, 11, 3.0, None]])
        row = next(r for r in db.query_view("nulls").rows if r["cust"] == 11)
        assert (row["n"], row["prios"], row["priced"]) == (2, 0, 1)
        db.delete_rows("ORDERS", [[107, 11, 3.0, None]])
        row = next(r for r in db.query_view("nulls").rows if r["cust"] == 11)
        assert (row["n"], row["prios"], row["priced"]) == (1, 0, 0)
        assert_aggregates_match_cold(db, "nulls", sql)

    def test_two_way_join_group_by(self, db):
        sql = (
            "SELECT c.C_NATIONKEY AS nation, COUNT(*) AS n, SUM(o.O_TOTAL) AS total, "
            "MAX(c.C_ACCTBAL) AS richest FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY GROUP BY c.C_NATIONKEY"
        )
        db.materialize(sql, name="by_nation")
        assert db.views()[0]["mode"] == "aggregate"
        db.load_rows("CUSTOMER", [[15, 3, 500.0]])
        db.load_rows("ORDERS", [[106, 15, 8.0, "LOW"], [107, 11, 1.5, "HIGH"]])
        assert_aggregates_match_cold(db, "by_nation", sql)
        db.delete_rows("CUSTOMER", lambda row: row[0] == 15)  # leaves order 106 dangling
        db.update_rows("ORDERS", lambda row: row[0] == 104, {"O_CUSTKEY": 13})
        assert_aggregates_match_cold(db, "by_nation", sql)
        assert db.maintenance.views_recomputed == 0

    def test_float_sum_is_exact_over_the_live_rows(self, db):
        sql = "SELECT COUNT(*) AS n, SUM(o.O_TOTAL) AS total FROM ORDERS o"
        db.materialize(sql, name="sum")
        db.load_rows("ORDERS", [[106, 10, 1e16, "LOW"], [107, 10, 1.0, "LOW"]])
        db.delete_rows("ORDERS", lambda row: row[0] == 106)
        # 1e16 + 1.0 rounds the 1.0 away; subtracting 1e16 back must not
        # leave a sum that lost it
        assert db.query_view("sum").rows[0]["total"] == 123.0


class TestViewInfo:
    def test_distinct_view_reports_served_rows(self, db):
        info = db.materialize("SELECT DISTINCT o.O_PRIORITY AS prio FROM ORDERS o", name="p")
        assert info["rows"] == 2 == len(db.query_view("p").rows)
        assert "groups" not in info

    def test_aggregate_view_reports_rows_and_groups(self, db):
        info = db.materialize(AGG_SQL, name="spend")
        assert info["rows"] == info["groups"] == len(db.query_view("spend").rows) == 5


class TestServing:
    def test_query_view_returns_queryresult_shape(self, db):
        db.materialize(JOIN_SQL, name="joined")
        result = db.query_view("joined")
        assert result.columns == ["ck", "ok", "total"]
        assert len(result.rows) == 5

    def test_view_survives_schema_recompile(self, db):
        db.materialize(JOIN_SQL, name="joined")
        # a schema change (new relation) bumps the schema version; the view
        # recompiles its fragment on the next refresh instead of crashing
        from repro.relational import Column, DataType, Relation, Schema

        db.catalog.add(Relation(Schema("EXTRA", [Column("X", DataType.INT)]), [[1]]))
        db.load_rows("ORDERS", [[106, 10, 75.0, "HIGH"]])
        assert_view_matches_cold(db, "joined", JOIN_SQL)
