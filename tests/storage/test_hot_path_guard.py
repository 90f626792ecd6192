"""Guard: the TPC-H columnar hot path must never materialise object dtype.

With dictionary/sentinel encoding on, every column a q1-like plan touches
— string group keys, the date filter column, numeric measures, the hidden
provenance slot — arrives at :func:`~repro.exec.vectorized.batch.column_array`
as clean ints/floats and must columnarise native.  An object-dtype column
on this path means a decode leaked in before the result boundary (or a
non-native value crept into a slot) and silently reverts the kernel to
elementwise Python: these tests fail loudly instead.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.exec import program as kernel_program
from repro.exec.vectorized.batch import (
    OBJECT_COLUMN_STATS,
    reset_object_column_stats,
)
from repro.workloads.tpch import generate_tpch

Q1_SQL = (
    "SELECT l.L_RETURNFLAG, l.L_LINESTATUS, "
    "SUM(l.L_QUANTITY) AS sum_qty, "
    "SUM(l.L_EXTENDEDPRICE) AS sum_base_price, "
    "AVG(l.L_DISCOUNT) AS avg_disc, COUNT(*) AS count_order "
    "FROM LINEITEM l WHERE l.L_SHIPDATE <= DATE '1998-09-01' "
    "GROUP BY l.L_RETURNFLAG, l.L_LINESTATUS"
)

Q3_LIKE_SQL = (
    "SELECT o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY, "
    "SUM(l.L_EXTENDEDPRICE) AS revenue "
    "FROM CUSTOMER c, ORDERS o, LINEITEM l "
    "WHERE c.C_MKTSEGMENT = 'BUILDING' AND c.C_CUSTKEY = o.O_CUSTKEY "
    "AND l.L_ORDERKEY = o.O_ORDERKEY "
    "GROUP BY o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY"
)


@pytest.fixture(scope="module")
def session():
    return Database(generate_tpch(scale=0.1, seed=7)).connect(engine="tag")


@pytest.mark.parametrize("sql", [Q1_SQL, Q3_LIKE_SQL], ids=["q1", "q3_like"])
def test_tpch_plan_materialises_no_object_columns(session, sql, monkeypatch):
    # threshold 0: every table columnarises, so any object fallback
    # anywhere in the plan is observed, not skipped as "too small"
    monkeypatch.setattr(kernel_program, "COLUMNAR_THRESHOLD", 0)
    session.sql(sql)  # compile outside the counted window
    reset_object_column_stats()
    result = session.sql(sql)
    assert len(result.rows) > 0
    assert OBJECT_COLUMN_STATS["object_columns"] == 0, (
        "an object-dtype column leaked onto the columnar hot path: "
        f"{OBJECT_COLUMN_STATS}"
    )
    assert OBJECT_COLUMN_STATS["native_columns"] > 0, (
        "the plan never took the columnar kernel — the guard measured nothing"
    )
