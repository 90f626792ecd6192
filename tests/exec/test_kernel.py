"""The production TAG-join kernel: column batches, the regime switch, goldens.

One suite for the one kernel.  ``tag`` (:class:`TagJoinKernel`) is checked
against the independent dict-row reference (``tag_dict``) **exactly** and
against the rdbms baseline modulo float rounding, under every table-size
regime (see ``KERNEL_REGIMES`` in ``tests/conftest.py``) — plus unit tests
of the columnar building blocks the above-threshold form is made of.
"""

import inspect

import numpy as np
import pytest

from repro.algebra.expressions import Between, Comparison, InList, IsNull, Like, col, lit
from repro.algebra.parameters import bind_parameters
from repro.api import Database, EngineError, available_engines, builtin_engine_names
from repro.core import TagJoinExecutor
from repro.exec import program as kernel_program
from repro.exec.program import TagJoinKernel
from repro.exec.schema import RowSchema
from repro.exec.vectorized import (
    ColumnBatch,
    column_array,
    compile_batch_expression,
    compile_batch_predicates,
    factorize_groups,
    full_column,
)
from repro.relational import Catalog, Column, DataType, ForeignKey, Relation, Schema
from repro.sql import parse_and_bind
from repro.workloads import tpcds_workload, tpch_workload


# ----------------------------------------------------------------------
# ColumnBatch fundamentals
# ----------------------------------------------------------------------
class TestColumnBatch:
    def test_native_dtypes_for_clean_columns(self):
        batch = ColumnBatch.from_rows([(1, 1.5, "a"), (2, 2.5, "b")])
        kinds = [array.dtype.kind for array in batch.arrays]
        assert kinds == ["i", "f", "O"]

    def test_object_fallback_for_nulls_and_mixed(self):
        assert column_array([1, None, 3]).dtype == object
        assert column_array([1.0, None]).dtype == object  # None->nan is NOT allowed
        assert column_array([True, None]).dtype == object  # None->False is NOT allowed
        assert column_array([2**70, 1]).dtype == object  # int64 overflow

    def test_boundary_values_are_pure_python(self):
        batch = ColumnBatch.from_rows([(1, 2.5, True, None, "x")])
        (row,) = batch.to_tuples()
        assert [type(part) for part in row] == [int, float, bool, type(None), str]
        assert batch.row(0) == row

    def test_concat_mixed_dtype_slot_stays_pure(self):
        left = ColumnBatch.from_rows([(1,), (2,)])  # int64 column
        right = ColumnBatch.from_rows([(None,)])  # object column
        merged = ColumnBatch.concat([left, right])
        assert merged.arrays[0].dtype == object
        values = merged.column_list(0)
        assert values == [1, 2, None]
        assert all(not isinstance(value, np.generic) for value in values)

    def test_mask_and_full_column(self):
        batch = ColumnBatch.from_rows([(1, "a"), (2, "b"), (3, "c")])
        kept = batch.mask(np.array([True, False, True]))
        assert kept.to_tuples() == [(1, "a"), (3, "c")]
        widened = kept.with_appended([full_column(2, 9.5)])
        assert widened.to_tuples() == [(1, "a", 9.5), (3, "c", 9.5)]

    def test_zero_width_tables_keep_their_row_count(self):
        batch = ColumnBatch((), 3)
        assert batch.to_tuples() == [(), (), ()]


# ----------------------------------------------------------------------
# batch expression compiler: NULL-aware masks
# ----------------------------------------------------------------------
SCHEMA = RowSchema(("t.num", "t.txt", "t.opt"))


def _batch(rows):
    return ColumnBatch.from_rows(rows)


class TestBatchExpressions:
    def test_comparison_native(self):
        predicate = compile_batch_expression(
            Comparison("<", col("t.num"), lit(3)), SCHEMA
        )
        batch = _batch([(1, "a", 1), (5, "b", 2)])
        assert predicate(batch).tolist() == [True, False]

    def test_null_comparisons_are_false_even_negated(self):
        batch = _batch([(1, "a", None), (2, "b", 7)])
        eq = compile_batch_expression(Comparison("=", col("t.opt"), lit(7)), SCHEMA)
        ne = compile_batch_expression(Comparison("!=", col("t.opt"), lit(7)), SCHEMA)
        assert eq(batch).tolist() == [False, True]
        # SQL three-valued logic: NULL != 7 is *not* true
        assert ne(batch).tolist() == [False, False]

    def test_null_scalar_side(self):
        batch = _batch([(1, "a", 1)])
        predicate = compile_batch_expression(
            Comparison(">", col("t.num"), lit(None)), SCHEMA
        )
        assert predicate(batch).tolist() == [False]

    def test_between_in_like_isnull(self):
        batch = _batch([(1, "alpha", None), (4, "beta", 5), (9, "gamma", 6)])
        between = compile_batch_expression(
            Between(col("t.num"), lit(2), lit(8)), SCHEMA
        )
        assert between(batch).tolist() == [False, True, False]
        in_list = compile_batch_expression(
            InList(col("t.txt"), ("alpha", "gamma")), SCHEMA
        )
        assert in_list(batch).tolist() == [True, False, True]
        not_in = compile_batch_expression(
            InList(col("t.opt"), (5,), negated=True), SCHEMA
        )
        # NULL NOT IN (...) is False, not True
        assert not_in(batch).tolist() == [False, False, True]
        like = compile_batch_expression(Like(col("t.txt"), "%a"), SCHEMA)
        assert like(batch).tolist() == [True, True, True]
        like2 = compile_batch_expression(Like(col("t.txt"), "al%"), SCHEMA)
        assert like2(batch).tolist() == [True, False, False]
        is_null = compile_batch_expression(IsNull(col("t.opt")), SCHEMA)
        assert is_null(batch).tolist() == [True, False, False]

    def test_mixed_type_in_list_on_native_column(self):
        """np.isin must not let a stray string member promote the whole
        member list to strings (which silently matched nothing)."""
        predicate = compile_batch_expression(
            InList(col("t.num"), (3, "x")), SCHEMA
        )
        batch = _batch([(3, "a", 0), (4, "b", 0)])
        assert predicate(batch).tolist() == [True, False]
        negated = compile_batch_expression(
            InList(col("t.num"), (3, "x"), negated=True), SCHEMA
        )
        assert negated(batch).tolist() == [False, True]

    def test_type_mismatched_equality_is_false_not_an_error(self):
        """= / != between a native column and a string must follow Python
        == semantics (False / True), not raise a numpy UFuncTypeError."""
        batch = _batch([(1, "a", 0), (2, "b", 0)])
        eq = compile_batch_expression(Comparison("=", col("t.num"), lit("x")), SCHEMA)
        assert eq(batch).tolist() == [False, False]
        ne = compile_batch_expression(Comparison("!=", col("t.num"), lit("x")), SCHEMA)
        assert ne(batch).tolist() == [True, True]

    def test_incomparable_ordering_still_raises_like_the_reference(self):
        batch = _batch([(1, "a", 0)])
        lt = compile_batch_expression(Comparison("<", col("t.num"), lit("x")), SCHEMA)
        with pytest.raises(TypeError):
            lt(batch)

    def test_predicate_conjunction(self):
        predicate = compile_batch_predicates(
            [
                Comparison(">", col("t.num"), lit(1)),
                Comparison("<", col("t.num"), lit(9)),
            ],
            SCHEMA,
        )
        batch = _batch([(1, "a", 0), (4, "b", 0), (9, "c", 0)])
        assert predicate(batch).tolist() == [False, True, False]

    def test_arithmetic_propagates_null(self):
        from repro.algebra.expressions import Arithmetic

        expression = compile_batch_expression(
            Comparison(">", Arithmetic("+", col("t.opt"), lit(1)), lit(5)), SCHEMA
        )
        batch = _batch([(0, "a", None), (0, "b", 10)])
        assert expression(batch).tolist() == [False, True]


# ----------------------------------------------------------------------
# group factorization
# ----------------------------------------------------------------------
class TestFactorize:
    def test_native_single_key_uses_unique(self):
        column = np.array([3, 1, 3, 2, 1, 3])
        groups = factorize_groups([column], 6)
        as_dict = {key: indices.tolist() for key, indices in groups}
        assert as_dict == {(1,): [1, 4], (2,): [3], (3,): [0, 2, 5]}

    def test_object_multi_key_hash_path(self):
        key_a = np.array(["x", "y", "x", None], dtype=object)
        key_b = np.array([1, 1, 1, 2], dtype=object)
        groups = factorize_groups([key_a, key_b], 4)
        as_dict = {key: indices.tolist() for key, indices in groups}
        assert as_dict == {("x", 1): [0, 2], ("y", 1): [1], (None, 2): [3]}

    def test_empty_key_is_one_group(self):
        groups = factorize_groups([], 5)
        assert len(groups) == 1 and groups[0][0] == ()
        assert groups[0][1].tolist() == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# one kernel, one oracle: the public surface
# ----------------------------------------------------------------------
class TestOneKernelOneOracle:
    def test_no_row_representation_knobs_on_the_executor(self):
        parameters = inspect.signature(TagJoinExecutor.__init__).parameters
        for removed in (
            "use_slotted_rows",
            "use_vectorized_kernel",
            "vectorized_batch_threshold",
            "cross_check_rows",
            "use_encoded_columns",
        ):
            assert removed not in parameters
        with pytest.raises(TypeError):
            TagJoinExecutor(None, None, use_slotted_rows=False)

    def test_engine_lineup(self, mini_catalog_copy):
        builtins = ["rdbms", "rdbms_sortmerge", "spark", "tag", "tag_dict"]
        assert sorted(builtin_engine_names()) == builtins
        # (other suites may have registered third-party engines by now)
        assert set(builtins) <= set(available_engines())
        database = Database(mini_catalog_copy)
        for removed in ("tag_vectorized", "vectorized", "tag_slotted", "tag_dict_rows"):
            with pytest.raises(EngineError, match="tag, tag_dict"):
                database.connect(engine=removed)
        assert type(database.engine("tag")) is TagJoinExecutor
        assert database.engine("tag_dict").name == "tag_dict"

    def test_explain_prints_no_row_representation_line(self, tag_executor, mini_catalog):
        spec = parse_and_bind(
            "SELECT c.C_CUSTKEY FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY",
            mini_catalog,
        )
        plan = tag_executor.explain(spec)
        assert "join tree" in plan
        assert "row representation" not in plan


# ----------------------------------------------------------------------
# kernel == reference on the mini catalog, in every regime
# ----------------------------------------------------------------------
NCO_SQL = """
    SELECT n.N_NAME, c.C_CUSTKEY, o.O_ORDERKEY, o.O_TOTAL
    FROM NATION n, CUSTOMER c, ORDERS o
    WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY
"""

MINI_QUERIES = {
    "join": NCO_SQL,
    "distinct_filter": """
        SELECT DISTINCT o.O_PRIORITY
        FROM CUSTOMER c, ORDERS o
        WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > 10
    """,
    # local aggregation (GROUP BY a materialised key attribute)
    "local_agg": """
        SELECT c.C_CUSTKEY, SUM(o.O_TOTAL) AS total, MIN(o.O_TOTAL) AS lo, COUNT(*) AS cnt
        FROM CUSTOMER c, ORDERS o
        WHERE c.C_CUSTKEY = o.O_CUSTKEY
        GROUP BY c.C_CUSTKEY
    """,
    # global aggregation grouped on non-key columns
    "global_agg": """
        SELECT n.N_NAME, o.O_PRIORITY, COUNT(*) AS cnt, AVG(o.O_TOTAL) AS mean,
               MIN(c.C_ACCTBAL) AS low
        FROM NATION n, CUSTOMER c, ORDERS o
        WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY
        GROUP BY n.N_NAME, o.O_PRIORITY
    """,
    "scalar_agg": """
        SELECT COUNT(*) AS orders, MAX(o.O_TOTAL) AS biggest
        FROM CUSTOMER c, ORDERS o
        WHERE c.C_CUSTKEY = o.O_CUSTKEY
    """,
    "scalar_agg_over_nothing": """
        SELECT COUNT(*) AS orders, SUM(o.O_TOTAL) AS total
        FROM ORDERS o WHERE o.O_TOTAL > 1000000
    """,
    "subquery_filter": """
        SELECT c.C_CUSTKEY FROM CUSTOMER c
        WHERE c.C_CUSTKEY IN (SELECT o.O_CUSTKEY FROM ORDERS o WHERE o.O_TOTAL > 15)
    """,
}


@pytest.fixture(scope="module")
def mini_database(mini_catalog, mini_graph):
    return Database(mini_catalog, graph=mini_graph)


class TestKernelEqualsReference:
    @pytest.mark.parametrize("query", sorted(MINI_QUERIES))
    def test_mini_queries(self, mini_database, kernel_regime, query):
        sql = MINI_QUERIES[query]
        kernel = mini_database.connect(engine="tag").sql(sql)
        reference = mini_database.connect(engine="tag_dict").sql(sql)
        assert kernel.to_tuples() == reference.to_tuples()
        assert kernel.columns == reference.columns
        assert kernel.aggregation_class == reference.aggregation_class

    def test_lazy_partial_aggregation(self, mini_catalog, mini_graph, kernel_regime):
        """Ablation A03 ships raw rows to the aggregator in both forms."""
        database = Database(
            mini_catalog,
            graph=mini_graph,
            engine_options={
                name: {"eager_partial_aggregation": False} for name in ("tag", "tag_dict")
            },
        )
        sql = MINI_QUERIES["global_agg"]
        kernel = database.connect(engine="tag").sql(sql)
        assert kernel.to_tuples() == database.connect(engine="tag_dict").sql(sql).to_tuples()

    def test_distinct_and_parameters(self, mini_database, mini_catalog, kernel_regime):
        spec = parse_and_bind(
            "SELECT DISTINCT o.O_PRIORITY FROM ORDERS o WHERE o.O_TOTAL > :floor",
            mini_catalog,
        )
        with bind_parameters({"floor": 6.0}):
            kernel = mini_database.engine("tag").execute(spec)
            reference = mini_database.engine("tag_dict").execute(spec)
        assert kernel.to_tuples() == reference.to_tuples()

    def test_prepared_statement_reuses_the_compiled_plan(self, mini_catalog_copy):
        session = Database(mini_catalog_copy).connect()
        statement = session.prepare(
            "SELECT o.O_ORDERKEY FROM ORDERS o WHERE o.O_TOTAL > :floor"
        )
        high = statement.execute({"floor": 25.0})
        low = statement.execute({"floor": 5.0})
        assert len(high.rows) < len(low.rows)
        assert low.metrics.plan_cache_hits >= 1


# ----------------------------------------------------------------------
# the regime switch: the only selection left
# ----------------------------------------------------------------------
def star_catalog(children_per_parent, parents_per_grand=1) -> Catalog:
    """GRAND <- PARENT <- CHILD with a chosen child count per parent."""
    parent_count = len(children_per_parent)
    grand = Relation(
        Schema("GRAND", [Column("G_ID", DataType.INT, nullable=False)], primary_key=["G_ID"]),
        [[index] for index in range(-(-parent_count // parents_per_grand))],
    )
    parent = Relation(
        Schema(
            "PARENT",
            [
                Column("P_ID", DataType.INT, nullable=False),
                Column("P_GRAND", DataType.INT),
                Column("P_NAME", DataType.STRING),
            ],
            primary_key=["P_ID"],
            foreign_keys=[ForeignKey(("P_GRAND",), "GRAND", ("G_ID",))],
        ),
        [[index, index // parents_per_grand, f"p{index}"] for index in range(parent_count)],
    )
    child_rows = []
    for parent_id, count in enumerate(children_per_parent):
        for _ in range(count):
            index = len(child_rows)
            child_rows.append([index, parent_id, index % 7, 0.25 + index * 1.1])
    child = Relation(
        Schema(
            "CHILD",
            [
                Column("C_ID", DataType.INT, nullable=False),
                Column("C_PARENT", DataType.INT),
                Column("C_QTY", DataType.INT),
                Column("C_PRICE", DataType.FLOAT),
            ],
            primary_key=["C_ID"],
            foreign_keys=[ForeignKey(("C_PARENT",), "PARENT", ("P_ID",))],
        ),
        child_rows,
    )
    catalog = Catalog("star")
    for relation in (grand, parent, child):
        catalog.add(relation)
    return catalog


#: heuristic rooting puts the first FROM table at the root, so tables flow
#: CHILD -> PARENT -> GRAND and their sizes are the child counts
ROOT_AT_FIRST_TABLE = {
    name: {"use_cost_based_planner": False} for name in ("tag", "tag_dict")
}

#: no pushed-down filters (they would shrink the tables before they form);
#: the cross-alias predicates are residuals, evaluated at assembly
BOUNDARY_QUERIES = [
    "SELECT p.P_NAME, c.C_ID, c.C_PRICE FROM PARENT p, CHILD c "
    "WHERE c.C_PARENT = p.P_ID AND c.C_QTY <> p.P_ID",
    "SELECT p.P_NAME, COUNT(*) AS n, SUM(c.C_PRICE) AS total, MAX(c.C_QTY) AS top "
    "FROM PARENT p, CHILD c WHERE c.C_PARENT = p.P_ID GROUP BY p.P_NAME",
    "SELECT g.G_ID, p.P_NAME, c.C_ID FROM GRAND g, PARENT p, CHILD c "
    "WHERE p.P_GRAND = g.G_ID AND c.C_PARENT = p.P_ID AND c.C_QTY >= g.G_ID",
]


class TestRegimeSwitch:
    def _spy_from_rows(self, monkeypatch):
        sizes = []
        original = ColumnBatch.from_rows.__func__

        def counting(cls, rows):
            sizes.append(len(rows))
            return original(cls, rows)

        monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(counting))
        return sizes

    @pytest.mark.parametrize("sql", BOUNDARY_QUERIES)
    def test_tables_one_below_at_and_one_above_the_threshold(self, monkeypatch, sql):
        threshold = kernel_program.COLUMNAR_THRESHOLD
        database = Database(
            star_catalog([threshold - 1, threshold, threshold + 1]),
            engine_options=ROOT_AT_FIRST_TABLE,
        )
        reference = database.connect(engine="tag_dict").sql(sql)
        sizes = self._spy_from_rows(monkeypatch)
        kernel = database.connect(engine="tag").sql(sql)
        assert kernel.to_tuples() == reference.to_tuples()
        assert len(kernel.rows) > 0
        # the table one below the threshold stayed tuples; the other two
        # were columnarised, each in one call
        assert sorted(sizes) == [threshold, threshold + 1]

    def test_receive_mixing_columnar_and_tuple_messages(self, monkeypatch):
        threshold = kernel_program.COLUMNAR_THRESHOLD
        # two parents per grand: one sends a column batch, its sibling a
        # two-row tuple table, and the G_ID attribute vertex unions them
        database = Database(
            star_catalog([threshold + 1, 2, 2, threshold + 3], parents_per_grand=2),
            engine_options=ROOT_AT_FIRST_TABLE,
        )
        mixed = []
        original = TagJoinKernel._combine

        def spying(self, messages):
            forms = {type(message) is ColumnBatch for message in messages}
            if len(forms) == 2:
                mixed.append(len(messages))
            return original(self, messages)

        monkeypatch.setattr(TagJoinKernel, "_combine", spying)
        for sql in (
            "SELECT g.G_ID, p.P_NAME, c.C_ID, c.C_PRICE FROM GRAND g, PARENT p, CHILD c "
            "WHERE p.P_GRAND = g.G_ID AND c.C_PARENT = p.P_ID",
            "SELECT g.G_ID, COUNT(*) AS n, SUM(c.C_PRICE) AS total "
            "FROM GRAND g, PARENT p, CHILD c "
            "WHERE p.P_GRAND = g.G_ID AND c.C_PARENT = p.P_ID GROUP BY g.G_ID",
        ):
            mixed.clear()
            kernel = database.connect(engine="tag").sql(sql)
            assert mixed, "no receive mixed a column batch with tuple tables"
            assert kernel.to_tuples() == database.connect(engine="tag_dict").sql(sql).to_tuples()

    def test_many_small_messages_columnarise_in_one_call(self, monkeypatch):
        """A receive of n one-row tables crossing the threshold must build
        one batch from n rows, not n one-row batches (the per-array cost
        is what the threshold exists to avoid)."""
        threshold = kernel_program.COLUMNAR_THRESHOLD
        fanout = 4 * threshold
        database = Database(star_catalog([fanout]), engine_options=ROOT_AT_FIRST_TABLE)
        sql = (
            "SELECT p.P_NAME, COUNT(*) AS n, SUM(c.C_PRICE) AS total "
            "FROM PARENT p, CHILD c WHERE c.C_PARENT = p.P_ID GROUP BY p.P_NAME"
        )
        reference = database.connect(engine="tag_dict").sql(sql)
        session = database.connect(engine="tag")
        session.sql(sql)  # compile outside the counted window
        sizes = self._spy_from_rows(monkeypatch)
        assert session.sql(sql).to_tuples() == reference.to_tuples()
        assert sizes == [fanout]

    def test_combine_preserves_message_order_across_forms(self, mini_graph, mini_catalog):
        """Float SUMs accumulate left to right, so a mixed receive must keep
        rows in message order whichever form each message arrived in."""
        compiled = TagJoinExecutor(mini_graph, mini_catalog)._compile(
            parse_and_bind(NCO_SQL, mini_catalog), {}, []
        )
        program = TagJoinKernel(mini_graph, compiled.config, compiled.slotted, compiled.vectorized)
        program.columnar_threshold = 4
        tables = [[(1, 1.5)], ColumnBatch.from_rows([(2, 2.5), (3, 3.5)]), [(4, 4.5)], [(5, 5.5)]]
        expected = [(1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5), (5, 5.5)]
        assert program._combine(tables).to_tuples() == expected
        # below the threshold and all tuples: stays a plain list
        assert program._combine([[(1, 1.5)], [(2, 2.5)]]) == [(1, 1.5), (2, 2.5)]
        assert type(program._combine([[(1, 1.5)], [(2, 2.5)], [(3, 3.5), (4, 4.5)]])) is ColumnBatch


# ----------------------------------------------------------------------
# golden equality on the paper's workloads, in every regime
# ----------------------------------------------------------------------
TPCH = tpch_workload(scale=0.05, seed=7)
TPCDS = tpcds_workload(scale=0.05, seed=7)


def _engines(workload):
    database = Database(workload.catalog)
    return {name: database.engine(name) for name in ("tag", "tag_dict", "rdbms")}


TPCH_ENGINES = _engines(TPCH)
TPCDS_ENGINES = _engines(TPCDS)


def _rounded(tuples):
    return [
        tuple(round(part, 6) if isinstance(part, float) else part for part in row)
        for row in tuples
    ]


def _assert_golden(workload, engines, query_name):
    query = workload.query(query_name)
    spec = parse_and_bind(query.sql, workload.catalog, name=query.name)
    results = {name: engine.execute(spec) for name, engine in engines.items()}
    kernel = results["tag"]
    # kernel and reference must agree *exactly*: same plan, same
    # accumulation order — only the rows' in-memory shape differs
    assert kernel.to_tuples() == results["tag_dict"].to_tuples(), (
        f"kernel and reference rows diverge on {query_name}"
    )
    assert kernel.columns == results["tag_dict"].columns
    # the baseline agrees modulo float rounding (different summation orders)
    baseline = results["rdbms"]
    assert _rounded(kernel.to_tuples(baseline.columns)) == _rounded(
        baseline.to_tuples(baseline.columns)
    ), f"TAG result diverges from the rdbms baseline on {query_name}"


@pytest.mark.parametrize("query_name", [query.name for query in TPCH.queries])
def test_tpch_golden_equality(kernel_regime, query_name):
    _assert_golden(TPCH, TPCH_ENGINES, query_name)


@pytest.mark.parametrize("query_name", [query.name for query in TPCDS.queries])
def test_tpcds_golden_equality(kernel_regime, query_name):
    _assert_golden(TPCDS, TPCDS_ENGINES, query_name)
