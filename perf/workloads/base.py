"""What every workload of the ledger implements, plus the data helpers
they share.

**Seeds permute, they do not resize.**  Every workload draws its row
*values* from a fixed multiset (the TPC generators run with their own
default seeds; the synthetic tables are enumerated) and lets ``--seed``
decide the order rows are loaded in, the order operations run in, and
which keys and literals the generated operations carry.  Ten seeds
therefore give ten different inputs with the same amount of work, so
the spread between them measures the machine and the program rather
than the dice — and the paper's cost counters (``bsp.*``) repeat
exactly across seeds, not only across runs.  (Letting the seed resize
the data was measured first: ``tpch_workload(seed=)`` at scale 0.25
moves ``pass_s`` by 9.5 % between seeds, which would drown every bound
in BENCHMARK.json.)
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro import Catalog, Database
from repro.algebra.parameters import normalize_parameters, spec_parameters
from repro.api import bind_parameters
from repro.relational.types import value_size_bytes
from repro.sql import parse_and_bind
from repro.tag import encode_catalog

from harness import Tracer, peak_rss_mb


class Workload:
    """One named set of inputs plus the loop that measures it.

    Life cycle, driven by ``child.py``: ``setup()`` (everything up to and
    including one untimed warm-up pass) → ``run_pass(i)`` × n, each
    followed by ``after_pass(i)`` outside the timer → ``layers(n)`` on
    the traced run only → ``check()`` → ``close()``.
    """

    name = ""  # its one-line "why" lives in BENCHMARK.json
    #: wall time of one pass on the 2-core reference box; ``--seconds``
    #: is turned into a pass count with it so that the number of passes —
    #: and with it every drifting quantity — is the same on every run
    nominal_pass_s = 1.0

    def __init__(self, seed: int, quick: bool, tracer: Tracer, workdir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.workdir = workdir
        #: operation kind per position of the pass's operation list
        self.kinds: List[str] = []
        #: operations that errored, were refused or answered wrongly
        self.failed_ops = 0
        #: named correctness verdicts collected while running
        self.checks: Dict[str, bool] = {}
        #: layer measurements taken during setup (all runs) and in layers()
        self.layer: Dict[str, float] = {}
        #: one line per failed operation, for the report
        self.failures: List[str] = []
        #: summed operation latencies per pass (warm-up first) and the
        #: slowest single timed operation, kept by note_pass()
        self.op_seconds: List[float] = []
        self.max_latency = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> List[float]:
        """Run the operation list once; returns per-position latencies (s)."""
        raise NotImplementedError

    def note_pass(self, index: int, latencies: Sequence[float]) -> None:
        self.op_seconds.append(sum(latencies))
        if index > 0:
            self.max_latency = max(self.max_latency, max(latencies))

    def after_pass(self, index: int) -> None:
        """Bookkeeping between passes, outside every timer."""

    def warm_up(self) -> None:
        """Pass 0: untimed, ends set-up (compiles plans, fills caches)."""
        self.note_pass(0, self.run_pass(0))
        self.after_pass(0)

    def layers(self, passes: int) -> None:
        """Traced run only: probes, ablation twins, baseline engines."""

    def check(self) -> None:
        """Fill ``self.checks`` with the end-of-run correctness verdicts."""

    def sizes(self) -> Dict[str, Any]:
        return {}

    def fingerprint(self) -> str:
        """Digest of everything that must be identical in every child of a
        run (same seed): results and exact counters.  Empty = nothing to pin."""
        return ""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    def verdict(self, name: str, ok: bool) -> None:
        """Record a check; once failed, a name stays failed."""
        self.checks[name] = bool(ok) and self.checks.get(name, True)


# ----------------------------------------------------------------------
# data helpers
# ----------------------------------------------------------------------
def shuffled_catalog(base: Catalog, rng: random.Random) -> Tuple[Catalog, float]:
    """Rebuild ``base`` with every table's rows in a seed-chosen order.

    Returns the new catalog and the seconds spent building its
    ``Relation``s from raw rows (validation, dictionary interning,
    columnar encoding) — the ``storage.load_encode_s`` measurement.
    """
    raw = []
    for relation in base.relations():
        rows = [list(row) for row in relation.rows]
        rng.shuffle(rows)
        raw.append((relation.schema, rows))
    catalog = Catalog(base.name)
    started = time.perf_counter()
    for schema, rows in raw:
        catalog.create(schema).extend(rows)
    return catalog, time.perf_counter() - started


def timed_encode(catalog: Catalog) -> Tuple[Any, float]:
    started = time.perf_counter()
    graph = encode_catalog(catalog)
    return graph, time.perf_counter() - started


def dictionary_entries(catalog: Catalog) -> int:
    """Size of the catalog-global string dictionary (it only ever grows)."""
    return len(catalog.encoding.dictionary)


def rows_bytes(rows: Sequence[Sequence[Any]]) -> int:
    """User bytes of ``rows`` by the catalog's own size accounting."""
    return sum(value_size_bytes(value) for row in rows for value in row)


def bsp_totals(results: Sequence[Any]) -> Dict[str, int]:
    """The paper's cost counters summed over query results."""
    totals = {"supersteps": 0, "messages": 0, "message_bytes": 0, "compute_units": 0}
    for result in results:
        metrics = result.metrics
        totals["supersteps"] += metrics.superstep_count
        totals["messages"] += metrics.total_messages
        totals["message_bytes"] += metrics.total_message_bytes
        totals["compute_units"] += metrics.total_compute
    totals["result_rows"] = sum(len(result.rows) for result in results)
    return totals


def disk_bytes_written(data_dir: str, seen: Dict[str, int]) -> int:
    """Bytes that reached ``data_dir`` since the last call (files by name).

    Polled once per pass from outside: a file not seen before counts
    whole, a file that grew counts its growth, a file that shrank (the
    WAL after compaction) counts what it holds now.
    """
    written = 0
    for name in os.listdir(data_dir):
        try:
            size = os.path.getsize(os.path.join(data_dir, name))
        except OSError:
            continue  # pruned between listdir and stat
        before = seen.get(name)
        written += size if before is None or size < before else size - before
        seen[name] = size
    return written


# ----------------------------------------------------------------------
# decomposing Session.sql from outside
# ----------------------------------------------------------------------
ReadItem = Tuple[Database, str, Any]  # (database, sql, params or None)


def decompose_reads(
    items: Sequence[ReadItem], tracer: Tracer, time_session: bool = False
) -> Dict[str, Any]:
    """Run each statement as the calls ``Session.sql`` makes, timing each.

    ``parse_and_bind`` then ``engine("tag").execute`` under the bound
    parameters; ``compile_seconds`` (planning, or on a warm plan cache its
    fingerprint and lookup) is reported on its own and taken out of the
    execute time.  Totals are over ``items``; ``execute_each_s`` keeps order.

    With ``time_session`` every statement then runs twice more, both warm:
    once through ``Session.execute`` and once decomposed again, and
    ``session_overhead_s`` is the sum of the differences — the facade's
    own share (locks, parameter checks, statement log).
    """
    clock = time.perf_counter
    span = tracer.span
    out: Dict[str, Any] = {
        "parse_s": 0.0,
        "execute_s": 0.0,
        "compile_s": 0.0,
        "session_overhead_s": 0.0,
        "execute_each_s": [],
    }
    results = []

    def pieces(
        database: Database, sql: str, params: Any, position: int
    ) -> Tuple[float, float, Any]:
        started = clock()
        with span("sql.parse_bind", position):
            spec = parse_and_bind(sql, database.catalog, name="probe")
        parsed = clock()
        with span("core.execute", position):
            with bind_parameters(normalize_parameters(params, spec_parameters(spec))):
                result = database.engine("tag").execute(spec)
        return parsed - started, clock() - parsed, result

    for position, (database, sql, params) in enumerate(items):
        with span("op", position):
            parse_s, execute_s, result = pieces(database, sql, params, position)
        metrics = result.metrics
        out["parse_s"] += parse_s
        out["execute_s"] += execute_s - metrics.compile_seconds
        out["compile_s"] += metrics.compile_seconds
        out["execute_each_s"].append(execute_s - metrics.compile_seconds)
        results.append(result)
        if time_session:
            started = clock()
            with span("api.session_execute", position):
                database.connect().execute(sql, params=params)
            whole_s = clock() - started
            parse_s, execute_s, _ = pieces(database, sql, params, position)
            out["session_overhead_s"] += whole_s - parse_s - execute_s
    out.update(bsp_totals(results))
    return out
