"""Collection rows carry only live columns.

The compiler gives an alias's rows only the columns a later step reads: a
residual checked at a collection merge, an output, a GROUP BY key or an
aggregate argument.  A join column leaves the rows, because the topology
does that join, and so does a column only a pushed-down filter reads,
because admission reads it off the tuple.  An alias's own row carries a
provenance slot only when a later collection step re-ascends onto it.

So a row may be zero columns wide: it then stands for one combination of
tuples and still counts in every COUNT and every message.  The shapes
below run in both kernel forms (``COLUMNAR_THRESHOLD`` 0 and
``sys.maxsize``).  Each must answer as ``rdbms`` and ``tag_dict`` do,
and cost what ``tag_dict`` costs, superstep by superstep.
"""

import sys

import pytest

from repro.api import Database
from repro.bsp.metrics import SLOT_BYTES
from repro.core.vertex_program import Phase
from repro.exec import program as kernel_program
from repro.exec.vectorized.batch import ColumnBatch
from repro.relational import Catalog, Column, DataType, ForeignKey, Schema
from repro.sql import parse_and_bind
from repro.workloads import tpch_workload

TPCH = tpch_workload(scale=0.05, seed=7)

#: the ``fanout_agg`` ledger workload's three statements
AGG_RESIDUAL = (
    "SELECT p.P_NAME, COUNT(*) AS pairs, "
    "SUM(c1.C_PRICE * c2.C_QTY) AS volume, MAX(c3.C_PRICE) AS top_price "
    "FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_QTY < c2.C_QTY GROUP BY p.P_NAME"
)
ROWS_FILTERED = (
    "SELECT p.P_NAME, c1.C_ID AS first_id, c2.C_ID AS second_id, c3.C_ID AS third_id, "
    "c1.C_TAG AS first_tag, c2.C_PRICE AS second_price "
    "FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_QTY > c2.C_QTY + 40 AND c2.C_PRICE > c3.C_PRICE + 300.0"
)
GROUPBY_LIKE = (
    "SELECT c1.C_TAG, COUNT(*) AS n, SUM(c2.C_PRICE) AS total "
    "FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_TAG LIKE '%amber%' GROUP BY c1.C_TAG"
)

#: no alias carries a column: the filter and the join leave every row
NO_COLUMNS = (
    "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND c.C_MKTSEGMENT = 'BUILDING'"
)
#: the tour c3 -> c2 -> c1 -> p returns over c1 and then c2; c1 is only
#: filtered and joined, so its rows carry nothing but the provenance slot
PROVENANCE_ONLY = (
    "SELECT c2.C_ID, c3.C_ID AS third FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_TAG LIKE '%amber%'"
)
#: one relation, rows of zero width
SINGLE_RELATION = "SELECT COUNT(*) AS n FROM CHILD c WHERE c.C_QTY > 10"

WORDS = ("amber", "basil", "cedar", "delta", "ember", "fjord", "grove", "heron")


def fanout_catalog(parents=2, fanout=12):
    """``fanout_agg``'s PARENT x CHILD star at the ledger's smoke size."""
    catalog = Catalog("fanout")
    catalog.create(
        Schema(
            "PARENT",
            [Column("P_ID", DataType.INT, nullable=False), Column("P_NAME", DataType.STRING)],
            primary_key=["P_ID"],
        )
    ).extend([[index, f"{WORDS[index % 8]}-{index:03d}"] for index in range(parents)])
    catalog.create(
        Schema(
            "CHILD",
            [
                Column("C_ID", DataType.INT, nullable=False),
                Column("C_PARENT", DataType.INT),
                Column("C_QTY", DataType.INT),
                Column("C_PRICE", DataType.FLOAT),
                Column("C_TAG", DataType.STRING),
            ],
            primary_key=["C_ID"],
            foreign_keys=[ForeignKey(("C_PARENT",), "PARENT", ("P_ID",))],
        )
    ).extend(
        [
            [
                parent * fanout + slot,
                parent,
                (slot * 7 + parent * 5) % 48 + 1,
                round(5.0 + ((slot * 11 + parent * 3) % fanout) * 20.5, 2),
                f"{WORDS[slot % 8]} {WORDS[(slot // 8 + slot) % 8]}",
            ]
            for parent in range(parents)
            for slot in range(fanout)
        ]
    )
    return catalog


FANOUT = Database(fanout_catalog())
TPCH_DB = Database(TPCH.catalog)

CASES = {
    "no_columns": (TPCH_DB, NO_COLUMNS),
    "provenance_only": (FANOUT, PROVENANCE_ONLY),
    "agg_residual": (FANOUT, AGG_RESIDUAL),
    "rows_filtered": (FANOUT, ROWS_FILTERED),
    "groupby_like": (FANOUT, GROUPBY_LIKE),
    "single_relation": (FANOUT, SINGLE_RELATION),
}


def compiled(database, sql):
    spec = parse_and_bind(sql, database.catalog)
    return database.engine("tag")._compile(spec, {}, [])


def rounded(result):
    return sorted(
        tuple(round(value, 6) if isinstance(value, float) else value for value in row)
        for row in result.to_tuples()
    )


def cost(result):
    return [
        (step.active_vertices, step.messages_sent, step.compute_units)
        for step in result.metrics.supersteps
    ]


@pytest.mark.parametrize("threshold", [0, sys.maxsize], ids=["columnar", "tuples"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_narrow_rows_answer_and_cost_as_the_reference(monkeypatch, threshold, case):
    monkeypatch.setattr(kernel_program, "COLUMNAR_THRESHOLD", threshold)
    database, sql = CASES[case]
    kernel = database.connect(engine="tag").sql(sql)
    reference = database.connect(engine="tag_dict").sql(sql)
    baseline = database.connect(engine="rdbms").sql(sql)
    assert kernel.to_tuples() == reference.to_tuples()
    assert rounded(kernel) == rounded(baseline)
    # at this size no C_PRICE exceeds another by 300, as in the ledger's smoke run
    assert len(kernel.rows) > 0 or case == "rows_filtered"
    assert cost(kernel) == cost(reference)


def test_a_join_can_carry_no_column():
    own = compiled(TPCH_DB, NO_COLUMNS).slotted.own
    assert {alias: own[alias].schema.columns for alias in own} == {"c": (), "o": ()}


def test_a_return_crossing_reads_a_row_of_provenance_only():
    fragment = compiled(FANOUT, PROVENANCE_ONLY)
    own = fragment.slotted.own
    assert own["c1"].schema.columns == ("__vid.c1",)
    assert own["c2"].schema.columns == ("c2.C_ID", "__vid.c2")
    assert own["c3"].schema.columns == ("c3.C_ID",)
    assert own["p"].schema.columns == ()
    # each return crossing masks on the provenance slot of the alias it
    # returns to, found in the rows it receives
    masked = {
        fragment.slotted.step_schemas[index].columns[action.prov_slot]
        for index, action in fragment.slotted.collect.items()
        if action.prov_slot is not None
    }
    assert masked == {"__vid.c1", "__vid.c2"}


def test_agg_residual_sends_rows_of_its_live_columns_only():
    """The chain c3 -> c2 -> c1 -> p, then p's P_NAME vertices (the local
    aggregation root): c3 carries C_PRICE, c2 C_QTY, c1 C_PRICE and C_QTY
    (the residual and SUM read both), p P_NAME.  Nothing re-ascends, so
    no row carries provenance, and the seven collection steps send rows
    of 1, 1, 2, 2, 4, 4 and 5 slots (3, 3, 6, 6, 10, 10 and 13 before)."""
    fragment = compiled(FANOUT, AGG_RESIDUAL)
    sent = [
        fragment.slotted.sent_row_bytes[index]
        for index, scheduled in enumerate(fragment.config.schedule)
        if scheduled.phase is Phase.COLLECT
    ]
    assert sent == [SLOT_BYTES * width for width in (1, 1, 2, 2, 4, 4, 5)]
    assert not any(own.provenance for own in fragment.slotted.own.values())


def test_explain_says_what_each_alias_carries():
    plan = FANOUT.engine("tag").explain(parse_and_bind(GROUPBY_LIKE, FANOUT.catalog))
    assert (
        "  join tree (root = c1):\n"
        "    c1 (CHILD: 24 rows, 1 filter) carries C_TAG + provenance\n"
        "      p (PARENT: 2 rows) via p.P_ID = c1.C_PARENT carries no columns\n"
        "      c2 (CHILD: 24 rows) via c2.C_PARENT = c1.C_PARENT carries C_PRICE\n"
        "        c3 (CHILD: 24 rows) via c3.C_PARENT = c2.C_PARENT carries no columns\n"
    ) in plan


def test_zero_width_batches_keep_their_row_count():
    batch = ColumnBatch.from_rows([(), (), ()])
    assert (batch.length, batch.arrays) == (3, ())
    assert batch.row(1) == ()
    assert ColumnBatch.concat([batch, batch]).to_tuples() == [()] * 6
    assert batch.with_appended([]).length == 3
    wide = batch.with_appended([ColumnBatch.from_rows([(7,), (8,), (9,)]).arrays[0]])
    assert wide.to_tuples() == [(7,), (8,), (9,)]
