"""``%`` in a SELECT list and in an aggregate argument, on every engine.

The remainder takes the sign of the divisor, as Python's ``%`` does
(``-5 % 3`` is 1, ``5 % -3`` is -1), on all four engines and in both
table forms of the ``tag`` kernel, where it runs as ``np.remainder``.
sqlite truncates instead (``-5 % 3`` is -2); README's "SQL semantics"
records the difference.  A NULL operand gives NULL, and an aggregate
skips it.  A zero divisor is not covered here.
"""

import pytest

from repro.api import Database
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms", "spark")

SCHEMA = Schema(
    "T",
    [
        Column("ID", DataType.INT, nullable=False),
        Column("G", DataType.INT, nullable=False),
        Column("X", DataType.INT),
        Column("Y", DataType.INT),
        Column("F", DataType.FLOAT),
    ],
    primary_key=["ID"],
)
ROWS = [
    (1, 1, 5, 3, 5.5),
    (2, 1, -5, 3, -5.5),
    (3, 2, 7, -3, 2.25),
    (4, 2, -7, -4, -0.75),
    (5, 1, None, 2, None),
    (6, 2, 0, None, 4.0),
    (7, 1, 11, 5, -9.5),
]


def python_mod(left, right):
    return None if left is None or right is None else left % right


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("modulo")
    catalog.add(Relation(SCHEMA, ROWS))
    return Database(catalog)


def answer(database, engine, sql):
    return sorted(database.connect(engine=engine).sql(sql).to_tuples())


@pytest.mark.parametrize("engine", ENGINES)
def test_remainder_in_the_select_list(database, kernel_regime, engine):
    sql = (
        "SELECT t.ID AS id, t.X % 3 AS a, t.X % -3 AS b, t.X % t.Y AS c, t.F % 2 AS d "
        "FROM T t"
    )
    expected = sorted(
        (i, python_mod(x, 3), python_mod(x, -3), python_mod(x, y), python_mod(f, 2))
        for i, _, x, y, f in ROWS
    )
    assert answer(database, engine, sql) == expected
    assert expected[1][1:4] == (1, -2, 1)  # -5 % 3, -5 % -3, -5 % 3


@pytest.mark.parametrize("engine", ENGINES)
def test_remainder_in_an_aggregate_argument(database, kernel_regime, engine):
    by_three = [python_mod(x, 3) for _, _, x, _, _ in ROWS]
    by_y = [python_mod(x, y) for _, _, x, y, _ in ROWS]
    scalar = answer(database, engine, "SELECT SUM(t.X % 3) AS s, MAX(t.X % t.Y) AS m FROM T t")
    assert scalar == [
        (sum(v for v in by_three if v is not None), max(v for v in by_y if v is not None))
    ]
    grouped = answer(
        database, engine, "SELECT t.G AS g, SUM(t.X % 4) AS s FROM T t GROUP BY t.G"
    )
    sums = {}
    for _, group, x, _, _ in ROWS:
        if x is not None:
            sums[group] = sums.get(group, 0) + x % 4
    assert grouped == sorted(sums.items())
