"""Single-relation plans: the kernel assembles the whole frontier as one table.

A plan over one relation has no traversal schedule and runs in superstep
0 only.  The ``tag`` kernel reads the admitted frontier's rows into one
table, tuple rows or a column batch by ``COLUMNAR_THRESHOLD``, and hands
the aggregator one partial per group.  The ``tag_dict`` reference runs
the same superstep one vertex at a time.  The answers must be equal value
for value (sums accumulate in frontier order in both), and so must the
cost: every admitted vertex is charged one aggregator message, also when
the kernel folded its row into a group's partial, and with several
workers every vertex off worker 0 (the aggregator's) one network message.
"""

import datetime
import sys

import pytest

from repro.api import Database
from repro.bsp.metrics import SLOT_BYTES
from repro.exec import program as kernel_program
from repro.relational import Catalog, Column, DataType, Relation, Schema

SCHEMA = Schema(
    "T",
    [
        Column("ID", DataType.INT, nullable=False),
        Column("K1", DataType.INT),
        Column("K2", DataType.STRING),
        Column("X", DataType.INT),
        Column("F", DataType.FLOAT),
        Column("D", DataType.DATE),
    ],
    primary_key=["ID"],
)


def rows():
    produced = []
    for index in range(1, 41):
        produced.append(
            (
                index,
                None if index % 9 == 0 else index % 3,
                None if index % 7 == 0 else ("red", "green")[index % 2],
                None if index % 5 == 0 else (index * 37) % 23 - 11,
                None if index % 6 == 0 else index / 7.0 - 2.3,
                datetime.date(2020, 1, 1) + datetime.timedelta(days=index % 11),
            )
        )
    return produced


#: name -> SQL over the one relation
QUERIES = {
    "none": "SELECT t.ID, t.X, t.F FROM T t WHERE t.X > -3",
    "none_distinct": "SELECT DISTINCT t.K1, t.K2 FROM T t",
    "scalar_no_rows": "SELECT SUM(t.X) AS s, COUNT(*) AS n, MIN(t.F) AS lo FROM T t "
    "WHERE t.X > 1000",
    "scalar": "SELECT SUM(t.F) AS s, AVG(t.X) AS a, MIN(t.F) AS lo, MAX(t.X) AS hi, "
    "COUNT(DISTINCT t.K1) AS d, COUNT(t.X) AS c, MAX(t.D) AS latest FROM T t",
    "global_two_keys": "SELECT t.K1, t.K2, SUM(t.F) AS s, AVG(t.F) AS a, COUNT(*) AS n, "
    "COUNT(DISTINCT t.X) AS d FROM T t GROUP BY t.K1, t.K2",
    "global_float_key": "SELECT t.F, COUNT(*) AS n, MIN(t.X) AS lo FROM T t "
    "WHERE t.ID < 30 GROUP BY t.F",
    "null_arguments": "SELECT t.K2, t.K1, SUM(t.X) AS s, MAX(t.F) AS hi FROM T t "
    "WHERE t.X IS NULL OR t.F IS NULL GROUP BY t.K2, t.K1",
}


def database(num_workers, eager=True):
    catalog = Catalog("single")
    catalog.add(Relation(SCHEMA, rows()))
    options = {name: {"eager_partial_aggregation": eager} for name in ("tag", "tag_dict")}
    return Database(catalog, num_workers=num_workers, engine_options=options)


DATABASES = {
    (workers, eager): database(workers, eager) for workers in (1, 3) for eager in (True, False)
}


def cost(result):
    return [
        (s.active_vertices, s.messages_sent, s.compute_units, s.network_messages)
        for s in result.metrics.supersteps
    ]


@pytest.mark.parametrize("threshold", [0, sys.maxsize], ids=["columnar", "tuples"])
@pytest.mark.parametrize("num_workers", [1, 3])
@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_kernel_equals_the_reference(monkeypatch, threshold, num_workers, eager, query):
    monkeypatch.setattr(kernel_program, "COLUMNAR_THRESHOLD", threshold)
    db = DATABASES[(num_workers, eager)]
    kernel = db.connect(engine="tag").sql(QUERIES[query])
    reference = db.connect(engine="tag_dict").sql(QUERIES[query])
    assert kernel.to_tuples() == reference.to_tuples()
    assert kernel.columns == reference.columns
    # a single-relation plan: superstep 0 is the whole run (no superstep
    # at all when no vertex is admitted)
    assert len(kernel.metrics.supersteps) == (0 if query == "scalar_no_rows" else 1)
    assert cost(kernel) == cost(reference)
    if num_workers == 1:
        assert all(s.network_messages == 0 for s in kernel.metrics.supersteps)


def test_a_vertex_is_charged_one_aggregator_message_of_the_plan_width():
    """``SUM(t.F) ... GROUP BY t.K1, t.K2`` over the rows with X > 0.

    The own row carries only the columns assembly reads, F, K1 and K2: 3
    slots.  The filter-only X is judged at admission, and no step
    re-ascends onto the one alias, so there is no provenance slot.  An
    aggregator message carries the 2-slot key, the 1-slot SUM partial and
    that 3-slot sample row: 6 slots of 8 bytes.
    """
    db = DATABASES[(3, True)]
    sql = "SELECT t.K1, t.K2, SUM(t.F) AS s FROM T t WHERE t.X > 0 GROUP BY t.K1, t.K2"
    admitted = sum(1 for row in rows() if row[3] is not None and row[3] > 0)
    (step,) = db.connect(engine="tag").sql(sql).metrics.supersteps
    assert step.messages_sent == admitted
    assert step.message_bytes == admitted * (2 + 1 + 3) * SLOT_BYTES
    assert 0 < step.network_messages < admitted
    assert step.network_bytes == step.network_messages * (2 + 1 + 3) * SLOT_BYTES
