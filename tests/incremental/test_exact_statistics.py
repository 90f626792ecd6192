"""The counts the statistics view reads are exact after any write script.

Every count the planners read — rows, and the NDV and NULLs of every
column, raw (int/float) and encoded (string/date) alike — is kept live by
the relation's column store on each insert, tombstone and restore, in
O(rows written).  ``CatalogStatistics`` reads them without a copy, so
exact here means: after every step of a write script, including writes
that fail mid-apply and roll back, the store agrees with a scan of the
relation's live rows.
"""

import datetime as dt
import random
from collections import Counter

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.tag import encode_catalog
from repro.workloads import generate_tpch
from tests.conftest import (
    assert_graphs_equal,
    assert_statistics_match_scan,
    live_rows_by_scan,
    make_mini_catalog,
)


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def slot_bytes(relation) -> int:
    """Bytes a scan of the live rows occupies, one slot per value."""
    codecs = relation.encoded_store.codec.codecs
    return sum(
        codec.slot_bytes(value)
        for row in live_rows_by_scan(relation)
        for codec, value in zip(codecs, row)
    )


def dictionary_charge(relation) -> int:
    """What the store's byte total holds beyond its live slots: the string
    dictionary growth it was charged since it was last encoded (entries are
    catalog-global and never freed, so a delete gives back its slot only)."""
    return relation.encoded_store.total_bytes - slot_bytes(relation)


def random_order(rng: random.Random, key: int, customers: int):
    """An ORDERS row with NULLs, repeated and fresh values in every column kind."""
    return [
        key,
        rng.choice([None, rng.randint(1, customers), 7]),
        rng.choice([None, "O", "F", f"S{rng.randrange(40)}"]),
        rng.choice([None, 100.0, round(rng.uniform(1.0, 9.0), 1)]),
        rng.choice([None, dt.date(1995, 1, 1) + dt.timedelta(days=rng.randrange(30))]),
        rng.choice([None, "1-URGENT", f"P{rng.randrange(6)}"]),
        rng.choice([None, 0, 1]),
    ]


def test_seeded_write_script_keeps_counts_equal_to_a_scan():
    rng = random.Random(20260925)
    db = Database(generate_tpch(scale=0.02, seed=3), engine="tag")
    db.engine("tag")
    db.engine("rdbms")
    orders = db.catalog.relation("ORDERS")
    dictionary = db.catalog.encoding.dictionary
    customers = len(db.catalog.relation("CUSTOMER"))
    charged = dictionary_charge(orders)
    live = []  # rows this script inserted and has not deleted, as inserted
    next_key = 10_000_000
    rollbacks = 0
    for step in range(300):
        kind = rng.choice(["insert", "insert", "batch", "update", "delete", "rollback"])
        if kind in ("update", "delete") and not live:
            kind = "insert"
        grown_from = dictionary.size_bytes
        reencoded = False
        if kind == "insert":
            row = random_order(rng, next_key, customers)
            next_key += 1
            db.load_rows("ORDERS", [row])
            live.append(row)
        elif kind == "batch":
            rows = [random_order(rng, next_key + i, customers) for i in range(rng.randint(2, 6))]
            next_key += len(rows)
            # a duplicate inside the batch: bag semantics all the way down
            rows.append(list(rows[0]))
            db.load_rows("ORDERS", rows)
            live.extend(rows)
        elif kind == "update":
            old = live.pop(rng.randrange(len(live)))
            new = random_order(rng, old[0], customers)
            assert db.update_rows("ORDERS", [old], [new]) == 1
            live.append(new)
        elif kind == "delete":
            victims = [live.pop(rng.randrange(len(live))) for _ in range(min(len(live), 3))]
            assert db.delete_rows("ORDERS", victims) == len(victims)
        else:
            # a write that fails mid-apply rolls back: a delete restores its
            # tombstones, an insert truncates and re-encodes the relation
            failing_delete = bool(live) and rng.random() < 0.5
            install("delta.apply.after_apply=raise@1")
            with pytest.raises(FaultInjected):
                if failing_delete:
                    db.delete_rows("ORDERS", [live[0]])
                else:
                    db.load_rows("ORDERS", [random_order(rng, next_key, customers)])
            clear()
            rollbacks += 1
            reencoded = not failing_delete
            db.engine("tag")  # re-encode now, so the next write is a delta again
            db.engine("rdbms")
        charged = 0 if reencoded else charged + dictionary.size_bytes - grown_from
        assert_statistics_match_scan(db.catalog)
        assert dictionary_charge(orders) == charged, step
        assert len(orders.encoded_store) == orders.physical_count
    assert rollbacks > 10
    assert db.maintenance.full_rebuilds == rollbacks
    # the same script leaves the patched graph equal to a cold re-encode:
    # single-row deletes unhook hot attribute vertices by bisection
    assert_graphs_equal(db.tag_graph(), encode_catalog(db.catalog))
    assert Counter(map(tuple, live)) == Counter(
        row for row in db.catalog.relation("ORDERS") if row[0] >= 10_000_000
    )


def test_insert_bytes_are_slots_plus_dictionary_growth():
    """Inserts used to add object-size bytes to an encoded total."""
    db = Database(make_mini_catalog(), engine="tag")
    orders = db.catalog.relation("ORDERS")
    dictionary = db.catalog.encoding.dictionary
    charged, grown_from = dictionary_charge(orders), dictionary.size_bytes
    db.load_rows("ORDERS", [[900, 10, 1.5, "A-BRAND-NEW-PRIORITY"], [901, None, None, None]])
    assert dictionary.size_bytes - grown_from == len("A-BRAND-NEW-PRIORITY")
    assert dictionary_charge(orders) == charged + len("A-BRAND-NEW-PRIORITY")
    assert_statistics_match_scan(db.catalog)


def test_a_second_delete_of_one_row_is_refused_before_any_count_moves():
    db = Database(make_mini_catalog(), engine="tag")
    orders = db.catalog.relation("ORDERS")
    orders.delete_positions([0])
    nulls = orders.encoded_store.null_count("O_PRIORITY")
    ndv = orders.distinct_count("O_ORDERKEY")
    with pytest.raises(ValueError, match="already deleted"):
        orders.delete_positions([0])
    assert (len(orders), orders.distinct_count("O_ORDERKEY")) == (5, ndv)
    assert orders.encoded_store.null_count("O_PRIORITY") == nulls
    assert_statistics_match_scan(db.catalog)


def test_a_delete_that_raises_mid_apply_rolls_the_counts_back():
    db = Database(make_mini_catalog(), engine="tag")
    db.engine("tag")  # encoded, so the delete runs as a delta
    orders = db.catalog.relation("ORDERS")
    before = sorted(orders)
    bytes_before = orders.data_size_bytes()
    install("delta.apply.after_apply=raise@1")
    with pytest.raises(FaultInjected):
        db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"]])
    clear()
    assert sorted(orders) == before
    assert orders.data_size_bytes() == bytes_before
    assert db.maintenance.full_rebuilds == 1
    assert_statistics_match_scan(db.catalog)
    assert db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"]]) == 1
    assert db.statistics.cardinality("ORDERS") == 5
    assert_statistics_match_scan(db.catalog)
