"""Guard: a single-row write on a warm database never walks the table.

The TAG encoding's promise under updates is that maintenance is local —
one tuple vertex and a few edges change.  The bookkeeping around it must
be local too: resolving a by-value victim reads the relation's match
index, and statistics read the column store's live value refcounts.  A
full pass over the relation (``Relation.live_items`` / ``__iter__``)
anywhere on that path is the O(table) cost this guard exists to catch.
"""

from __future__ import annotations

import pytest

from repro.algebra import col
from repro.algebra.expressions import IsNull
from repro.api import Database
from repro.relational.relation import Relation
from repro.workloads import generate_tpch

JOIN_VIEW = (
    "SELECT c.C_NAME, o.O_ORDERKEY FROM CUSTOMER c, ORDERS o "
    "WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_TOTALPRICE > 1000"
)


@pytest.fixture()
def warm_database():
    database = Database(generate_tpch(scale=0.05, seed=11), engine="tag")
    database.engine("tag")
    database.engine("rdbms")
    database.materialize(JOIN_VIEW, name="big_orders")
    # the first by-value match builds the index; warm means it exists
    orders = database.catalog.relation("ORDERS")
    victim = list(orders[0])
    assert database.delete_rows("ORDERS", [victim]) == 1
    assert database.load_rows("ORDERS", [victim]) == 1
    return database


@pytest.fixture()
def table_scans(monkeypatch):
    """Counts every full pass over any relation's rows."""
    calls = {"live_items": 0, "__iter__": 0}
    for name in calls:
        original = getattr(Relation, name)

        def counted(self, _original=original, _name=name):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(Relation, name, counted)
    return calls


def test_single_row_by_value_delete_and_update_scan_nothing(warm_database, table_scans):
    database = warm_database
    orders = database.catalog.relation("ORDERS")
    rebuilds = database.maintenance.full_rebuilds
    old = list(orders[5])
    new = list(old)
    new[3] = old[3] + 1.0

    assert database.update_rows("ORDERS", [old], [new]) == 1
    assert database.delete_rows("ORDERS", [new]) == 1
    assert database.load_rows("ORDERS", [old]) == 1
    # the planners' statistics read the column store, not the rows
    stats = database.statistics
    stats.estimated_rows("ORDERS", [IsNull(col("o.O_TOTALPRICE"))])
    assert stats.distinct_count("ORDERS", "O_CUSTKEY") > 1

    assert table_scans == {"live_items": 0, "__iter__": 0}
    # ...and it really was the delta path, not a skipped one
    assert database.maintenance.full_rebuilds == rebuilds


def test_the_guard_sees_a_scan(warm_database, table_scans):
    database = warm_database
    database.delete_rows("ORDERS", lambda row: row[0] == -1)  # predicate form scans
    assert table_scans["live_items"] == 1
