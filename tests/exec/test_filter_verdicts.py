"""A cached plan decides each pushed-down filter once per tuple.

The ``tag`` kernel memoises an alias filter's verdict per physical
position on the cached plan's :class:`~repro.exec.fragment.AliasFilter`,
keyed on the relation's layout epoch, the graph's generation and the
values bound to the parameters the filter reads.  These tests pin both
halves of that contract:

* reuse — a warm plan runs the compiled test 0 times, after ``k``
  appended rows at most ``k`` times, after a delete 0 times, and gives
  the rows and BSP totals of a cold run;
* soundness — every write that can put another row at a judged position
  (a rolled-back append whose positions are reused, ``delete_where``, an
  in-place edit behind the write API) and every new parameter binding
  gets verdicts of its own, so answers stay those of ``rdbms``.  A memo
  keyed on the relation alone fails each of these cases.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.algebra.parameters import bind_parameters
from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.exec.fragment import FAIL, PASS, AliasFilter
from tests.conftest import make_mini_catalog

#: ORDERS totals are 50, 20, 30, 10, 5, 7: the filter admits the first three
SQL = (
    "SELECT o.O_ORDERKEY AS k, c.C_CUSTKEY AS c FROM ORDERS o, CUSTOMER c "
    "WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_TOTAL > 15"
)
SCAN_SQL = "SELECT o.O_ORDERKEY AS k FROM ORDERS o WHERE o.O_TOTAL > 15"
PARAM_SQL = (
    "SELECT o.O_ORDERKEY AS k, c.C_CUSTKEY AS c FROM ORDERS o, CUSTOMER c "
    "WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_TOTAL > :t"
)
PARAM_SCAN_SQL = "SELECT o.O_ORDERKEY AS k FROM ORDERS o WHERE o.O_TOTAL > :t"


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def answer(db, sql, engine="tag", params=None):
    return sorted(db.connect(engine=engine).sql(sql, params).to_tuples())


def assert_like_rdbms(db, sql, params=None):
    assert answer(db, sql, params=params) == answer(db, sql, "rdbms", params)


def assert_view_like_rdbms(db, name, sql):
    served = Counter(db.query_view(name).to_tuples())
    assert served == Counter(db.connect(engine="rdbms").sql(sql).to_tuples())


def bsp_totals(result):
    metrics = result.metrics
    return (
        metrics.superstep_count,
        metrics.total_messages,
        metrics.total_message_bytes,
        metrics.total_compute,
    )


def count_filter_tests(db):
    """Wrap the compiled test of every alias filter in the plan cache with
    a call counter; returns the one-element list it counts in."""
    calls = [0]
    for compiled, _choice in db.plan_cache._entries.values():
        for alias_filter in compiled.slotted.filters.values():

            def counted(row, test=alias_filter.test):
                calls[0] += 1
                return test(row)

            alias_filter.test = counted
    return calls


class TestReuse:
    @pytest.mark.parametrize("sql", [SQL, SCAN_SQL], ids=["join", "scan"])
    def test_warm_runs_judge_only_new_rows(self, sql):
        db = Database(make_mini_catalog())
        session = db.connect()
        first = session.sql(sql)
        calls = count_filter_tests(db)
        assert calls[0] == 0

        second = session.sql(sql)
        assert calls[0] == 0
        assert second.to_tuples() == first.to_tuples()
        assert bsp_totals(second) == bsp_totals(first)
        assert sorted(second.to_tuples()) == answer(db, sql, "rdbms")

        appended = [[200, 11, 60.0, "LOW"], [201, 12, 1.0, "HIGH"], [202, 10, 16.0, "LOW"]]
        db.load_rows("ORDERS", appended)
        calls[0] = 0
        after_load = session.sql(sql)
        assert 0 < calls[0] <= len(appended)
        assert sorted(after_load.to_tuples()) == answer(db, sql, "rdbms")

        db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"], [201, 12, 1.0, "HIGH"]])
        calls[0] = 0
        after_delete = session.sql(sql)
        assert calls[0] == 0
        assert sorted(after_delete.to_tuples()) == answer(db, sql, "rdbms")

        # a cold plan (fresh memo) answers and costs exactly the same
        db.plan_cache.clear()
        cold = session.sql(sql)
        assert cold.to_tuples() == after_delete.to_tuples()
        assert bsp_totals(cold) == bsp_totals(after_delete)
        assert [
            (step.active_vertices, step.messages_sent, step.compute_units)
            for step in cold.metrics.supersteps
        ] == [
            (step.active_vertices, step.messages_sent, step.compute_units)
            for step in after_delete.metrics.supersteps
        ]


class TestPositionRewrites:
    def test_rolled_back_append_then_reused_positions(self):
        """(a) the view's insert term judged the appended position, the
        apply rolled back, and a different row lands there next."""
        db = Database(make_mini_catalog())
        db.materialize(SQL, name="big")
        assert_like_rdbms(db, SQL)

        install("delta.apply.after_apply=raise@1")
        with pytest.raises(FaultInjected):
            db.load_rows("ORDERS", [[200, 11, 99.0, "LOW"]])
        clear()
        db.load_rows("ORDERS", [[201, 11, 1.0, "LOW"]])

        assert_like_rdbms(db, SQL)
        assert_view_like_rdbms(db, "big", SQL)
        assert 201 not in {key for key, _ in db.query_view("big").to_tuples()}

    def test_delete_where_then_note_data_change(self):
        """(b) compaction shifts every later row to a lower position."""
        db = Database(make_mini_catalog())
        assert_like_rdbms(db, SQL)
        assert_like_rdbms(db, SCAN_SQL)

        db.catalog.relation("ORDERS").delete_where(lambda row: row[0] in (100, 101))
        db.note_data_change()

        assert_like_rdbms(db, SQL)
        assert_like_rdbms(db, SCAN_SQL)

    def test_in_place_edit_then_note_data_change(self):
        """(c) a row edited behind the write API keeps its position;
        ``note_data_change`` re-encodes the relation (a new epoch) and
        the graph."""
        db = Database(make_mini_catalog())
        assert_like_rdbms(db, SQL)
        assert_like_rdbms(db, SCAN_SQL)

        orders = db.catalog.relation("ORDERS")
        orders.rows[3] = (103, 13, 99.0, "LOW")  # was 10.0: now passes
        orders.rows[0] = (100, 10, 1.0, "HIGH")  # was 50.0: now fails
        db.note_data_change()

        assert_like_rdbms(db, SQL)
        assert_like_rdbms(db, SCAN_SQL)
        assert 103 in {key for (key,) in answer(db, SCAN_SQL)}

    def test_update_across_the_filter_of_a_delta_view(self):
        """(d) updates move rows in and out of the view; a torn update's
        insert term judged a position a later update appends to again."""
        db = Database(make_mini_catalog())
        db.materialize(SQL, name="big")
        assert db.views()[0]["mode"] == "delta"
        assert_like_rdbms(db, SQL)

        db.update_rows("ORDERS", [[101, 10, 20.0, "LOW"]], [[101, 10, 5.0, "LOW"]])
        db.update_rows("ORDERS", [[103, 13, 10.0, "LOW"]], [[103, 13, 40.0, "LOW"]])
        assert_like_rdbms(db, SQL)
        assert_view_like_rdbms(db, "big", SQL)

        install("delta.apply.after_apply=raise@1")
        with pytest.raises(FaultInjected):
            db.update_rows("ORDERS", [[102, 12, 30.0, "HIGH"]], [[102, 12, 80.0, "HIGH"]])
        clear()
        db.update_rows("ORDERS", [[102, 12, 30.0, "HIGH"]], [[102, 12, 1.0, "HIGH"]])

        assert_like_rdbms(db, SQL)
        assert_view_like_rdbms(db, "big", SQL)
        assert 102 not in {key for key, _ in db.query_view("big").to_tuples()}


class TestParameters:
    @pytest.mark.parametrize("sql", [PARAM_SQL, PARAM_SCAN_SQL], ids=["join", "scan"])
    def test_alternating_bindings(self, sql):
        db = Database(make_mini_catalog())
        statement = db.connect().prepare(sql)
        reference = db.connect(engine="rdbms").prepare(sql)
        answers = []
        for threshold in (15.0, 40.0, 15.0, 8.0, 40.0):
            got = sorted(statement.execute({"t": threshold}).to_tuples())
            assert got == sorted(reference.execute({"t": threshold}).to_tuples())
            answers.append(got)
        assert answers[0] == answers[2] != answers[1] == answers[4]

    def test_concurrent_sessions_never_see_each_others_rows(self):
        """More threads than cores, each with its own binding of one
        prepared statement, switching often: every answer is its own."""
        db = Database(make_mini_catalog())
        # enough rows that runs overlap in time
        db.load_rows(
            "ORDERS", [[1000 + i, 10 + i % 5, float(i % 97), "LOW"] for i in range(400)]
        )
        thresholds = (15.0, 35.0, 60.0, 80.0)
        reference = db.connect(engine="rdbms")
        expected = {
            threshold: sorted(reference.sql(PARAM_SQL, {"t": threshold}).to_tuples())
            for threshold in thresholds
        }
        assert len({tuple(rows) for rows in expected.values()}) == len(thresholds)
        barrier = threading.Barrier(len(thresholds))
        done = []
        wrong = []
        errors = []

        def worker(threshold):
            try:
                statement = db.connect().prepare(PARAM_SQL)
                barrier.wait(timeout=30)
                for _ in range(50):
                    got = sorted(statement.execute({"t": threshold}).to_tuples())
                    if got != expected[threshold]:
                        wrong.append(threshold)
                done.append(threshold)
            except Exception as error:  # surfaced below, in the test thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in thresholds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not wrong
        assert sorted(done) == sorted(thresholds)


class TestMemoKey:
    def test_one_array_per_key_and_none_shared_for_mutable_values(self):
        alias_filter = AliasFilter(("O_TOTAL",), lambda row: True, ("t",))
        with bind_parameters({"t": 15.0}):
            key = (1, 1, alias_filter.bound_values())
        shared = alias_filter.verdicts(key)
        shared.append(PASS)
        assert alias_filter.verdicts(key) is shared
        assert alias_filter.verdicts((1, 2) + key[2:]) == bytearray()
        # the key moved on: a reader of the old one gets a fresh array,
        # and the array it held before is left as it was
        assert alias_filter.verdicts(key) is not shared
        assert shared == bytearray([PASS])

        with bind_parameters({"t": [15.0]}):
            mutable = (1, 1, alias_filter.bound_values())
        private = alias_filter.verdicts(mutable)
        private.append(FAIL)
        assert alias_filter.verdicts(mutable) is not private


class TestLayoutEpoch:
    """The relation half of the key: it moves exactly where a position
    may come to hold another row or other codes."""

    def test_moves_only_where_positions_are_rewritten(self):
        catalog = make_mini_catalog()
        orders = catalog.relation("ORDERS")
        epoch = orders.layout_epoch

        orders.extend([[200, 11, 1.0, "LOW"]])
        deleted = orders.delete_positions([0])
        orders.restore_positions([0])
        assert orders.layout_epoch == epoch

        orders.truncate(orders.physical_count)  # removes nothing
        assert orders.layout_epoch == epoch
        orders.truncate(orders.physical_count - 1)
        assert orders.layout_epoch != epoch

        for rewrite in (
            lambda: orders.delete_where(lambda row: row[0] == 101),
            lambda: orders.bind_encoding(catalog.encoding),
        ):
            epoch = orders.layout_epoch
            rewrite()
            assert orders.layout_epoch != epoch
        assert deleted == [(100, 10, 50.0, "HIGH")]
        assert catalog.relation("CUSTOMER").layout_epoch != orders.layout_epoch
