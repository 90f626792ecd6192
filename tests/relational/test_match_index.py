"""``Relation.match_positions`` through its kept index == the old full scan.

By-value deletes, updates and WAL replay resolve victims through a
``row -> live positions`` index that the first match builds and every
later mutation patches.  The reference here is the scan it replaced: pool
every live row's positions per call, hand out the first unused one.  Both
must agree — same positions, same ``KeyError`` — after any mix of
appends, tombstones, restores, rollbacks and recovery.
"""

import random

import pytest

from repro.api import Database
from repro.relational import Column, DataType, Relation, Schema
from tests.conftest import make_mini_catalog


def scan_match(relation, rows):
    """The pre-index implementation, kept as the oracle."""
    pool = {}
    for position, row in relation.live_items():
        pool.setdefault(row, []).append(position)
    matched = []
    for raw in rows:
        candidates = pool.get(relation.validate_row(raw))
        if not candidates:
            raise KeyError(tuple(raw))
        matched.append(candidates.pop(0))
    return matched


def make_relation(rows=()):
    schema = Schema(
        "T", [Column("K", DataType.INT, nullable=False), Column("V", DataType.STRING)]
    )
    return Relation(schema, rows)


def assert_same_match(relation, rows):
    try:
        expected = scan_match(relation, rows)
    except KeyError:
        with pytest.raises(KeyError):
            relation.match_positions(rows)
    else:
        assert relation.match_positions(rows) == expected


class TestLaziness:
    def test_index_is_built_by_the_first_match_only(self):
        relation = make_relation([[1, "a"], [2, "b"]])
        relation.insert([3, "c"])
        relation.delete_positions([0])
        assert relation._match_index is None  # nobody matched by value yet
        assert relation.match_positions([[2, "b"]]) == [1]
        assert relation._match_index == {(2, "b"): [1], (3, "c"): [2]}

    def test_read_only_database_never_builds_it(self):
        db = Database(make_mini_catalog())
        db.connect().sql("SELECT COUNT(*) AS n FROM ORDERS o")
        db.load_rows("ORDERS", [[900, 10, 1.0, "LOW"]])
        db.delete_rows("ORDERS", lambda row: row[0] == 900)
        assert all(relation._match_index is None for relation in db.catalog)


class TestAgainstScan:
    def test_duplicates_are_consumed_first_to_last(self):
        relation = make_relation([[1, "a"], [2, "b"], [1, "a"], [1, "a"]])
        assert relation.match_positions([[1, "a"], [1, "a"]]) == [0, 2]
        # a match does not consume: the next call starts from the first again
        assert relation.match_positions([[1, "a"], [2, "b"], [1, "a"], [1, "a"]]) == [0, 1, 2, 3]
        with pytest.raises(KeyError):
            relation.match_positions([[1, "a"]] * 4)  # only three live copies
        relation.delete_positions([0])
        assert relation.match_positions([[1, "a"], [1, "a"]]) == [2, 3]

    def test_tombstoned_then_restored_rows_match_in_position_order(self):
        relation = make_relation([[1, "a"], [1, "a"], [1, "a"]])
        relation.match_positions([[1, "a"]])  # index live from here on
        relation.delete_positions([0, 1])
        assert relation.match_positions([[1, "a"]]) == [2]
        relation.restore_positions([1])
        assert relation.match_positions([[1, "a"], [1, "a"]]) == [1, 2]
        relation.restore_positions([0, 1])  # 1 is live again: tolerated
        assert relation.match_positions([[1, "a"]] * 3) == [0, 1, 2]
        relation.delete_positions([0, 1, 2])
        with pytest.raises(KeyError):
            relation.match_positions([[1, "a"]])
        assert relation._match_index == {}  # emptied entries leave

    def test_int_float_coercion(self):
        relation = make_relation([[1, "a"], [2, "b"]])
        assert relation.match_positions([[1.0, "a"]]) == [0]
        relation.insert([3.0, "c"])  # stored coerced, found either way
        assert relation.match_positions([[3, "c"], [2.0, "b"]]) == [2, 1]
        floats = Relation(Schema("F", [Column("X", DataType.FLOAT)]), [[1.0], [2.5]])
        assert floats.match_positions([[1]]) == [0]
        assert_same_match(floats, [[1], [2.5], [1.0]])

    def test_truncate_and_compaction_drop_the_index(self):
        relation = make_relation([[1, "a"], [2, "b"]])
        relation.match_positions([[1, "a"]])
        relation.extend([[3, "c"], [1, "a"]])
        assert relation.match_positions([[1, "a"], [1, "a"]]) == [0, 3]
        relation.truncate(2)  # the load path's rollback
        with pytest.raises(KeyError):
            relation.match_positions([[3, "c"]])
        assert relation.match_positions([[1, "a"]]) == [0]
        relation.delete_where(lambda row: row[0] == 1)  # positions shift
        assert relation.match_positions([[2, "b"]]) == [0]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mutation_scripts(self, seed):
        rng = random.Random(seed)
        relation = make_relation()
        values = [[k, v] for k in (1, 2, 3) for v in ("a", "b")]
        dead = []
        for _ in range(400):
            action = rng.choice(["insert", "insert", "delete", "restore", "match", "truncate"])
            if action == "insert":
                relation.extend([rng.choice(values) for _ in range(rng.randint(1, 3))])
            elif action == "delete" and len(relation):
                live = [position for position, _ in relation.live_items()]
                dead = rng.sample(live, min(len(live), rng.randint(1, 3)))
                relation.delete_positions(dead)
            elif action == "restore":
                relation.restore_positions(dead)
                dead = []
            elif action == "truncate" and rng.random() < 0.2:
                relation.truncate(max(0, relation.physical_count - 2))
                dead = [position for position in dead if position < relation.physical_count]
            else:
                wanted = [rng.choice(values) for _ in range(rng.randint(1, 4))]
                assert_same_match(relation, wanted)
        assert_same_match(relation, values)


class TestAfterRecovery:
    def test_replay_resolves_duplicates_like_the_live_run(self, tmp_path):
        data_dir = str(tmp_path / "d")
        twin = [777, 10, 1.0, "LOW"]
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", [twin, [778, 11, 2.0, "HIGH"], twin, twin])
        db.delete_rows("ORDERS", [twin])  # by value: the first twin goes
        db.update_rows("ORDERS", [twin], [[779, 12, 3.0, "LOW"]])  # then the second
        db.delete_rows("ORDERS", [[100.0, 10, 50, "HIGH"]])  # wire-style numerics
        live = db.catalog.relation("ORDERS")
        expected_rows = list(live)
        db._durability.wal.sync()
        # crash-sim: no close(); every delete/update replays by value
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        orders = recovered.catalog.relation("ORDERS")
        assert list(orders) == expected_rows
        assert recovered.recovery_report["wal_records_replayed"] == 4
        for wanted in ([twin], [twin, twin], [[779, 12, 3.0, "LOW"], twin]):
            assert_same_match(orders, wanted)
        assert recovered.delete_rows("ORDERS", [twin]) == 1
        with pytest.raises(KeyError):
            recovered.delete_rows("ORDERS", [twin])
        recovered.close()
        db.close()
