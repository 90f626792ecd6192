"""Database facade + Session: shared cache, engine parity, EXPLAIN, invalidation."""

import pytest

from repro.api import Database
from repro.workloads import tpch_workload

TPCH = tpch_workload(scale=0.05, seed=7)
TPCH_DB = Database.from_catalog(TPCH.catalog)
TPCH_SUBSET = ("q1", "q3", "q5", "q6", "q10")


def rounded(tuples):
    """Tuples with floats rounded, for float-tolerant cross-engine comparison."""
    return [
        tuple(round(value, 6) if isinstance(value, float) else value for value in row)
        for row in tuples
    ]


@pytest.fixture()
def db(mini_catalog):
    return Database.from_catalog(mini_catalog)


class TestFacadeBasics:
    def test_connect_returns_session_on_default_engine(self, db):
        with db.connect() as session:
            assert session.engine_name == "tag"
            result = session.sql("SELECT COUNT(*) AS n FROM ORDERS o")
            assert result.single_value() == 6

    def test_engine_instances_are_cached(self, db):
        assert db.engine("tag") is db.engine("tag")
        assert db.engine("rdbms") is db.engine("rdbms_hash")

    def test_default_engine_selectable_at_construction(self, mini_catalog):
        rdbms_db = Database(mini_catalog, engine="rdbms")
        with rdbms_db.connect() as session:
            assert session.engine_name == "rdbms"
            assert session.sql("SELECT COUNT(*) AS n FROM NATION n").single_value() == 3

    def test_tag_graph_encoded_once(self, db):
        assert db.tag_graph() is db.tag_graph()

    def test_statistics_shared_across_engines(self, db):
        views = [
            db.engine("tag").planner.statistics,
            db.engine("rdbms").planner.statistics,
            db.statistics,
        ]
        # every planner reads the one catalog, so they agree on every count
        assert all(view.catalog is db.catalog for view in views)
        for relation in db.catalog:
            for column in relation.schema.column_names:
                counts = {
                    (view.cardinality(relation.name), view.distinct_count(relation.name, column))
                    for view in views
                }
                assert len(counts) == 1, (relation.name, column)


class TestUnifiedExecute:
    """Session.execute accepts SQL text or a bound QuerySpec interchangeably."""

    def test_execute_accepts_sql_text(self, db):
        session = db.connect()
        result = session.execute(
            "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :v", params={"v": 15.0}
        )
        assert result.single_value() == 3

    def test_execute_accepts_query_spec(self, db):
        from repro.sql import parse_and_bind

        spec = parse_and_bind("SELECT COUNT(*) AS n FROM NATION n", db.catalog)
        session = db.connect()
        assert session.execute(spec).single_value() == 3

    def test_text_and_spec_paths_share_the_plan_cache(self, mini_catalog):
        from repro.sql import parse_and_bind

        db = Database.from_catalog(mini_catalog)
        sql = "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY"
        session = db.connect()
        session.execute(sql)
        stores_after_text = db.plan_cache.stats.stores
        session.execute(parse_and_bind(sql, db.catalog))
        assert db.plan_cache.stats.stores == stores_after_text


class TestDatabaseLifecycle:
    def test_context_manager_closes(self, mini_catalog):
        with Database.from_catalog(mini_catalog) as db:
            assert not db.closed
            db.connect().sql("SELECT COUNT(*) AS n FROM NATION n")
        assert db.closed
        with pytest.raises(RuntimeError, match="closed"):
            db.connect()

    def test_close_retires_live_engines(self, mini_catalog):
        db = Database.from_catalog(mini_catalog)
        engine = db.engine("tag")
        db.close()
        from repro.api import StaleEngineError

        with pytest.raises(StaleEngineError):
            engine.execute_sql("SELECT COUNT(*) AS n FROM NATION n")


class TestAcceptance:
    """The PR's acceptance criterion, verbatim."""

    def test_parameterized_requery_one_miss_then_hits(self, mini_catalog):
        db = Database.from_catalog(mini_catalog)
        session = db.connect()
        sql = (
            "SELECT c.C_CUSTKEY FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :v"
        )
        first = session.sql(sql, params={"v": 25.0})
        second = session.sql(sql, params={"v": 45.0})
        stats = db.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert len(first.rows) > len(second.rows)  # different values, different rows

    @pytest.mark.parametrize("query_name", TPCH_SUBSET)
    def test_all_engines_reachable_and_identical_on_tpch(self, query_name):
        sql = TPCH.query(query_name).sql
        results = {
            engine: TPCH_DB.connect(engine=engine).sql(sql, name=query_name)
            for engine in ("tag", "rdbms", "spark")
        }
        reference = results["rdbms"]
        for engine, result in results.items():
            assert result.columns == reference.columns, engine
            assert rounded(result.to_tuples()) == rounded(reference.to_tuples()), engine


class TestSharedPlanCache:
    def test_identical_sql_across_sessions_shares_one_entry(self, db):
        sql = "SELECT n.N_NAME FROM NATION n, CUSTOMER c WHERE n.N_NATIONKEY = c.C_NATIONKEY"
        db.connect().sql(sql)
        db.connect().sql(sql)
        stats = db.cache_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_cache_stats_shape(self, db):
        db.connect().sql(
            "SELECT n.N_NAME FROM NATION n, CUSTOMER c WHERE n.N_NATIONKEY = c.C_NATIONKEY"
        )
        stats = db.cache_stats()
        assert stats["shared"] is True
        assert "tag" in stats["engines"]
        assert stats["entries"] <= stats["max_entries"]
        assert set(stats) >= {"hits", "misses", "stores", "evictions", "hit_rate"}


class TestInvalidation:
    def test_load_rows_patches_statistics_and_graph_in_place(self, mini_catalog_copy):
        """The delta path maintains shared state instead of rebuilding it."""
        db = Database.from_catalog(mini_catalog_copy)
        session = db.connect()
        sql = "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :v"
        assert session.sql(sql, params={"v": 0.0}).single_value() == 6
        version_before = mini_catalog_copy.version
        stats_before = db.statistics
        graph_before = db.tag_graph()

        loaded = db.load_rows("ORDERS", [[106, 10, 99.0, "HIGH"], [107, 11, 98.0, "LOW"]])
        assert loaded == 2
        assert mini_catalog_copy.version > version_before
        # executions see the new rows through the *same* patched objects
        assert session.sql(sql, params={"v": 0.0}).single_value() == 8
        # a statistics view taken before the write reads it
        assert stats_before.cardinality("ORDERS") == 8
        assert stats_before.distinct_count("ORDERS", "O_ORDERKEY") == 8
        assert db.tag_graph() is graph_before
        assert db.cache_stats()["maintenance"]["deltas_applied"] == 1

    def test_empty_load_is_a_complete_noop(self, mini_catalog_copy):
        db = Database.from_catalog(mini_catalog_copy)
        db.connect().sql("SELECT COUNT(*) AS n FROM ORDERS o")
        version_before = mini_catalog_copy.version
        graph_before = db.tag_graph()
        engine_before = db.engine("tag")
        assert db.load_rows("ORDERS", iter(())) == 0
        assert mini_catalog_copy.version == version_before
        assert db.tag_graph() is graph_before
        assert db.engine("tag") is engine_before
        assert db.cache_stats()["entries"] == 1
        assert db.cache_stats()["maintenance"]["empty_loads_ignored"] == 1

    def test_note_data_change_retains_plans_but_rebuilds_engines(self, mini_catalog_copy):
        db = Database.from_catalog(mini_catalog_copy)
        db.connect().sql("SELECT COUNT(*) AS n FROM ORDERS o")
        engine_before = db.engine("tag")
        assert db.cache_stats()["entries"] == 1
        db.note_data_change()
        # plans depend only on the schema, which did not change ...
        assert db.cache_stats()["entries"] == 1
        # ... but the executors are retired and rebuilt over a fresh encoding
        assert db.engine("tag") is not engine_before


class TestExplain:
    def test_tag_explain_shows_rooted_tree_and_costs(self, db):
        rendered = db.connect().explain(
            "SELECT n.N_NAME FROM NATION n, CUSTOMER c, ORDERS o "
            "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY"
        )
        assert "engine: tag" in rendered
        assert "join tree (root = " in rendered
        assert "cost model:" in rendered
        assert "rootings considered:" in rendered

    def test_rdbms_explain_shows_operator_tree(self, db):
        rendered = db.connect(engine="rdbms").explain(
            "SELECT n.N_NAME FROM NATION n, CUSTOMER c WHERE n.N_NATIONKEY = c.C_NATIONKEY"
        )
        assert "engine: rdbms" in rendered
        assert "HashJoin" in rendered and "SeqScan" in rendered

    def test_spark_explain_shows_join_strategies(self, db):
        rendered = db.connect(engine="spark").explain(
            "SELECT n.N_NAME FROM NATION n, CUSTOMER c WHERE n.N_NATIONKEY = c.C_NATIONKEY"
        )
        assert "engine: spark" in rendered
        assert "scan" in rendered and "hash join" in rendered

    def test_explain_analyze_appends_actuals_on_every_engine(self, db):
        sql = "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY"
        for engine in ("tag", "rdbms", "spark"):
            rendered = db.connect(engine=engine).explain(sql, analyze=True)
            assert "actual:" in rendered, engine

    def test_explain_parameterized_without_values_on_every_engine(self, db):
        """EXPLAIN (no analyze) must not require parameter values."""
        sql = (
            "SELECT c.C_CUSTKEY FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :v"
        )
        for engine in ("tag", "rdbms", "spark"):
            rendered = db.connect(engine=engine).explain(sql)
            assert f"engine: {engine}" in rendered

    def test_explain_with_parameters(self, db):
        rendered = db.connect().explain(
            "SELECT c.C_CUSTKEY FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :v",
            params={"v": 10.0},
            analyze=True,
        )
        assert "actual:" in rendered


class TestDeprecatedShimRemoved:
    def test_top_level_executor_import_is_gone(self):
        import repro

        with pytest.raises(AttributeError):
            repro.TagJoinExecutor
        assert "TagJoinExecutor" not in repro.__all__

    def test_direct_construction_still_works(self, mini_graph, mini_catalog):
        from repro.core import TagJoinExecutor

        executor = TagJoinExecutor(mini_graph, mini_catalog)
        result = executor.execute_sql("SELECT COUNT(*) AS n FROM NATION n")
        assert result.single_value() == 3
