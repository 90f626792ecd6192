"""Differential sweep under fault injection: crash, recover, compare.

Each round interleaves FK-valid random writes — inserts, and by-value
deletes and updates of ITEM rows the sweep inserted itself — with a
seeded fault injected somewhere on the write path (before the WAL write,
after it, mid-delta-application, during snapshotting/compaction, even
during the recovery replay itself); both mid-apply failpoints are also
crossed with every write shape explicitly.  The faulted database is treated as crashed —
its WAL file descriptor is redirected to ``/dev/null`` so unflushed
buffered bytes are dropped exactly as ``kill -9`` would drop them — and
a fresh ``Database`` recovers from disk.  The failed write is retried
with its original ``request_id``.

After every crash+recover round, the full query battery must agree:

* across every execution path of the recovered database, and
* with a from-scratch rebuild that applied every acknowledged write
  exactly once to a memory-only database.

Marked ``differential``: runs in its own CI job alongside the deep
randomized sweep.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, List, Optional, Tuple

import pytest

from differential_harness import (
    ENGINE_NAMES,
    canonical_rows,
    run_case,
)
from differential_dataset import build_catalog
from test_incremental_differential import QUERY_BATTERY, DeltaGenerator
from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install

pytestmark = pytest.mark.differential

ROUNDS = 6
WRITES_PER_ROUND = 3

#: write-path failpoints a round may inject (raise mode, in-process):
#: each exercises a different acked/unacked/replayed window
WRITE_PATH_FAILPOINTS = (
    "wal.append.before_write",    # never logged: retry applies fresh
    "wal.append.after_write",     # logged, maybe unflushed: crash drops it
    "wal.append.after_fsync",     # durable but unacked: recovery + dedup
    "delta.apply.before_graph_patch",  # durable, half-applied in memory
    "delta.apply.after_apply",    # fully applied, ack lost
)


def simulate_crash(database: Database) -> None:
    """Drop the database as ``kill -9`` would: unflushed WAL bytes vanish.

    The WAL file descriptor is re-pointed at ``/dev/null`` so any later
    buffered flush (GC, interpreter exit) cannot append post-crash bytes
    to the real log the recovered instance is now writing.
    """
    wal = database._durability.wal
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, wal._handle.fileno())
    finally:
        os.close(devnull)


def durable_database(data_dir: str) -> Database:
    return Database(build_catalog(), data_dir=data_dir)


#: one write: (kind, table, rows, replacements) — rows are the inserted
#: rows of a ``load``, the by-value victims of a ``delete`` / ``update``
Write = Tuple[str, str, list, Optional[list]]


def apply(
    database: Database, write: Write, request_id: Optional[str] = None
) -> Dict[str, Any]:
    kind, table, rows, replacements = write
    if kind == "load":
        return database.apply_write(table, rows, request_id=request_id)
    if kind == "delete":
        return database.apply_delete(table, rows, request_id=request_id)
    return database.apply_update(table, rows, replacements, request_id=request_id)


def applied_in_full(write: Write, receipt: Dict[str, Any]) -> bool:
    kind, _table, rows, _replacements = write
    if kind == "load":
        return receipt["appended"] == len(rows)
    if kind == "delete":
        return receipt["deleted"] == len(rows)
    return receipt["deleted"] == receipt["inserted"] == len(rows)


def next_write(
    rng: random.Random,
    generator: DeltaGenerator,
    live_items: List[list],
    kind: Optional[str] = None,
) -> Write:
    """An insert of any table, or a delete / update of ITEM rows this sweep
    inserted (nothing references ITEM, so both stay FK-valid); ``kind``
    pins the shape, else it is drawn."""
    if kind is None:
        kind = rng.choice(("load", "load", "delete", "update")) if live_items else "load"
    if kind == "load":
        table = rng.choice(("CUST", "ORD", "ITEM"))
        return ("load", table, generator.rows_for(table, rng.randint(1, 4)), None)
    victims = [
        live_items.pop(rng.randrange(len(live_items)))
        for _ in range(min(len(live_items), rng.randint(1, 2)))
    ]
    if kind == "delete":
        return ("delete", "ITEM", victims, None)
    replacements = [[*row[:2], row[2] % 40 + 1, *row[3:]] for row in victims]
    live_items.extend(replacements)
    return ("update", "ITEM", victims, replacements)


def rebuild_from_scratch(writes: List[Write]) -> Database:
    database = Database(build_catalog())
    for write in writes:
        apply(database, write)
    return database


def assert_round_agreement(recovered: Database, acked: List[Write]) -> None:
    rebuild = rebuild_from_scratch(acked)
    for case in QUERY_BATTERY:
        # intra-database: every execution path of the recovered db agrees
        run_case(recovered, case)
        # cross-database: recovered state == from-scratch rebuild
        got = recovered.connect(engine="tag").sql(case.sql, params=case.params or None)
        want = rebuild.connect(engine="tag").sql(case.sql, params=case.params or None)
        columns = list(want.columns)
        assert canonical_rows(got, columns) == canonical_rows(want, columns), case.sql


class TestFaultRecoveryDifferential:
    def test_engines_agree_after_each_crash_recover_round(self, tmp_path):
        seed = int(os.environ.get("REPRO_DIFFERENTIAL_SEED", "20260808"))
        rng = random.Random(seed)
        generator = DeltaGenerator(random.Random(seed + 1))
        data_dir = str(tmp_path / "d")

        database = durable_database(data_dir)
        acked: List[Write] = []
        live_items: List[list] = []  # ITEM rows this sweep inserted, still live
        next_id = 0

        for round_idx in range(ROUNDS):
            failpoint = rng.choice(WRITE_PATH_FAILPOINTS)
            victim = rng.randrange(WRITES_PER_ROUND)
            for write_idx in range(WRITES_PER_ROUND):
                write = next_write(rng, generator, live_items)
                request_id = f"round-{round_idx}-write-{next_id}"
                next_id += 1
                if write_idx == victim:
                    install(f"{failpoint}=raise")
                try:
                    assert applied_in_full(write, apply(database, write, request_id))
                except FaultInjected:
                    # the crash: drop this instance, recover from disk,
                    # and retry the write with its original request_id
                    clear()
                    simulate_crash(database)
                    database = durable_database(data_dir)
                    retry = apply(database, write, request_id)
                    assert applied_in_full(write, retry) or retry["deduplicated"]
                finally:
                    clear()
                acked.append(write)
                if write[:2] == ("load", "ITEM"):
                    live_items.extend(write[2])

            if round_idx % 2 == 1:
                database.checkpoint()  # exercise snapshot + compaction paths

            # end-of-round crash+recover even when no write was interrupted
            simulate_crash(database)
            database = durable_database(data_dir)
            assert_round_agreement(database, acked)

        assert len(acked) == ROUNDS * WRITES_PER_ROUND

    @pytest.mark.parametrize("kind", ["load", "delete", "update"])
    @pytest.mark.parametrize(
        "failpoint", ["delta.apply.before_graph_patch", "delta.apply.after_apply"]
    )
    def test_mid_apply_fault_on_every_write_shape(self, tmp_path, failpoint, kind):
        generator = DeltaGenerator(random.Random(7))
        data_dir = str(tmp_path / "d")
        database = durable_database(data_dir)
        seeded: Write = ("load", "ITEM", generator.rows_for("ITEM", 4), None)
        apply(database, seeded, "seed")
        live_items = list(seeded[2])
        write = next_write(random.Random(7), generator, live_items, kind)

        install(f"{failpoint}=raise")
        try:
            with pytest.raises(FaultInjected):
                apply(database, write, "faulted")
        finally:
            clear()
        simulate_crash(database)
        database = durable_database(data_dir)
        retry = apply(database, write, "faulted")
        assert applied_in_full(write, retry) or retry["deduplicated"]
        assert_round_agreement(database, [seeded, write])

    def test_crash_during_recovery_then_recover(self, tmp_path):
        generator = DeltaGenerator(random.Random(99))
        data_dir = str(tmp_path / "d")
        database = durable_database(data_dir)
        rows = generator.rows_for("ORD", 5)
        database.apply_write("ORD", rows, request_id="pre-crash")
        simulate_crash(database)

        install("recovery.before_replay=raise")
        try:
            with pytest.raises(FaultInjected):
                durable_database(data_dir)
        finally:
            clear()

        recovered = durable_database(data_dir)
        assert_round_agreement(recovered, [("load", "ORD", rows, None)])
        for engine in ENGINE_NAMES:
            count = recovered.connect(engine=engine).sql(
                "SELECT COUNT(*) AS n FROM ORD t0"
            ).single_value()
            assert count == generator.BASE_COUNTS["ORD"] + 5
