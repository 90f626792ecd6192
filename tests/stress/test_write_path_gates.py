"""Write-path timing gates: a small write costs what it changes, not the table.

Each gate warms a database over a CUSTOMER -> ORDERS catalog (TAG graph,
plan cache and engine live, so the write patches all of them; statistics
are a view over the catalog's column stores and need no step) and times
one write through the delta path:

* a 1-row and a 100-row insert must each beat what scorched-earth
  invalidation would pay for the same write -- a full re-encode of the
  catalog -- by ``MIN_INSERT_SPEEDUP``;
* deleting 1% of the base rows by predicate must beat that rebuild by
  ``MIN_DELETE_SPEEDUP`` (tombstoning touches only the dead rows);
* a one-row by-value delete must cost O(1): its median at the full base
  may be at most ``MAX_SCALING`` times its median at a tenth of the base.
  The rebuild gates above compare against something so much slower that a
  per-delete rescan of the table hides inside them; this one sees it.

The correctness side of the write path (zero plan recompilations, patched
graph == cold re-encode, maintained views == re-execution) is tier-1:
``tests/incremental/test_delta_ingest.py``, ``tests/incremental/test_deletes.py``
and ``tests/differential/test_incremental_differential.py``.  Marked
``stress`` (``make test-stress``) because it builds 20,000-row tables and
gates on wall-clock ratios.
"""

import random
import statistics
import time

import pytest

from repro.api import Database
from repro.relational import Catalog, Column, DataType, ForeignKey, Relation, Schema
from repro.tag.encoder import encode_catalog

pytestmark = pytest.mark.stress

BASE_ROWS = 20_000
DATA_SEED = 20260808
#: a <=1% insert must beat the full re-encode at least this many times over
MIN_INSERT_SPEEDUP = 2.0
#: a 1% delete must beat the full rebuild at least this many times over
MIN_DELETE_SPEEDUP = 10.0
#: a 1-row by-value delete at the full base vs. at a tenth of it
MAX_SCALING = 3.0
SCALING_SAMPLES = 31

SEGMENTS = ("BUILDING", "MACHINERY", "AUTOMOBILE", "HOUSEHOLD", "FURNITURE")
PRIORITIES = ("HIGH", "MEDIUM", "LOW")

WARM_QUERY = (
    "SELECT c.C_SEG AS seg, COUNT(*) AS n, SUM(o.O_TOTAL) AS total "
    "FROM CUSTOMER c, ORDERS o WHERE c.C_ID = o.O_CUST GROUP BY c.C_SEG"
)


def build_catalog(base_rows, rng):
    """CUSTOMER (base/10 rows) -> ORDERS (base rows) along one FK edge."""
    customer_count = max(1, base_rows // 10)
    customer = Relation(
        Schema(
            "CUSTOMER",
            [
                Column("C_ID", DataType.INT, nullable=False),
                Column("C_SEG", DataType.STRING, nullable=False),
            ],
            primary_key=["C_ID"],
        ),
        [[index, rng.choice(SEGMENTS)] for index in range(customer_count)],
    )
    orders = Relation(
        Schema(
            "ORDERS",
            [
                Column("O_ID", DataType.INT, nullable=False),
                Column("O_CUST", DataType.INT, nullable=False),
                Column("O_TOTAL", DataType.FLOAT, nullable=False),
                Column("O_PRIO", DataType.STRING, nullable=False),
            ],
            primary_key=["O_ID"],
            foreign_keys=[ForeignKey(("O_CUST",), "CUSTOMER", ("C_ID",))],
        ),
        [order_row(index, customer_count, rng) for index in range(base_rows)],
    )
    catalog = Catalog("write_path_gates")
    for relation in (customer, orders):
        catalog.add(relation)
    return catalog


def order_row(order_id, customer_count, rng):
    return [
        order_id,
        rng.randrange(customer_count),
        round(rng.uniform(1, 1000), 2),
        rng.choice(PRIORITIES),
    ]


def warm_database(base_rows, rng):
    database = Database(build_catalog(base_rows, rng))
    database.tag_graph()
    database.connect().sql(WARM_QUERY)
    return database


def timed(write):
    started = time.perf_counter()
    result = write()
    return result, time.perf_counter() - started


def full_rebuild_seconds(catalog):
    """What scorched-earth invalidation pays for any write on ``catalog``."""
    started = time.perf_counter()
    encode_catalog(catalog)
    return time.perf_counter() - started


@pytest.mark.parametrize("batch", [1, 100])
def test_small_insert_beats_full_rebuild(batch):
    rng = random.Random(DATA_SEED)
    database = warm_database(BASE_ROWS, rng)
    customers = len(database.catalog.relation("CUSTOMER").rows)
    rows = [order_row(BASE_ROWS + index, customers, rng) for index in range(batch)]

    appended, delta_seconds = timed(lambda: database.load_rows("ORDERS", rows))
    full_seconds = full_rebuild_seconds(database.catalog)

    assert appended == batch
    speedup = full_seconds / delta_seconds
    assert speedup >= MIN_INSERT_SPEEDUP, (
        f"a {batch}-row insert took {delta_seconds * 1e3:.2f} ms against "
        f"{full_seconds * 1e3:.1f} ms for a full rebuild ({speedup:.1f}x)"
    )


def test_one_percent_delete_beats_full_rebuild():
    rng = random.Random(DATA_SEED)
    database = warm_database(BASE_ROWS, rng)
    ids = [row[0] for row in database.catalog.relation("ORDERS")]
    victims = set(rng.sample(ids, BASE_ROWS // 100))

    deleted, delta_seconds = timed(
        lambda: database.delete_rows("ORDERS", lambda row: row[0] in victims)
    )
    full_seconds = full_rebuild_seconds(database.catalog)

    assert deleted == len(victims)
    speedup = full_seconds / delta_seconds
    assert speedup >= MIN_DELETE_SPEEDUP, (
        f"a {deleted}-row delete took {delta_seconds * 1e3:.2f} ms against "
        f"{full_seconds * 1e3:.1f} ms for a full rebuild ({speedup:.1f}x)"
    )


def median_single_delete_seconds(base_rows, rng):
    """Median latency of a one-row by-value delete on a warm database."""
    database = warm_database(base_rows, rng)
    victims = rng.sample(list(database.catalog.relation("ORDERS")), SCALING_SAMPLES + 1)
    database.delete_rows("ORDERS", [victims.pop()])  # warm: builds the match index
    seconds = [timed(lambda: database.delete_rows("ORDERS", [victim]))[1] for victim in victims]
    assert database.maintenance.full_rebuilds == 0
    return statistics.median(seconds)


def test_single_row_delete_cost_does_not_grow_with_the_table():
    rng = random.Random(DATA_SEED)
    small = median_single_delete_seconds(BASE_ROWS // 10, rng)
    large = median_single_delete_seconds(BASE_ROWS, rng)
    ratio = large / small
    assert ratio <= MAX_SCALING, (
        f"a 1-row by-value delete took {large * 1e3:.3f} ms at {BASE_ROWS} rows "
        f"and {small * 1e3:.3f} ms at {BASE_ROWS // 10} ({ratio:.2f}x)"
    )
