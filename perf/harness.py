"""Shared measuring tools of the perf ledger: paths, percentiles, spans,
row canonicalisation and environment capture.

Nothing here knows a workload.  Importing it touches no file and starts
nothing; ``add_src_to_path`` is the one function with a side effect and
the entry points call it explicitly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
#: everything a run writes (span files, durable tenants' data dirs) goes here
OUT_DIR = os.path.join(PERF_DIR, "out")


def add_src_to_path() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH needed)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


median = statistics.median


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the benchmark contract gates on."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``(name, op_id, start, end, parent)`` around one call the
    benchmark makes into a layer; ``parent`` is the index of the
    enclosing span (or -1).  Disabled — the default, and what every
    end-to-end measurement uses — :meth:`span` hands back one shared
    no-op context manager, so the timed loops are the same code either
    way.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, op_id: Any = None) -> Any:
        if not self.enabled:
            return self._null
        return self._record(name, op_id)

    @contextlib.contextmanager
    def _record(self, name: str, op_id: Any) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        entry = [name, op_id, time.perf_counter(), None, parent]
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, op_id: Any, start: float, end: float) -> None:
        """Record a finished top-level span (for interleaved asyncio tasks,
        where a parent stack would pair unrelated requests)."""
        self.spans.append([name, op_id, start, end, -1])

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child_time = [0.0] * len(self.spans)
        for _name, _op, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, _op, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "op_id", "start", "end", "parent"],
                    "spans": self.spans,
                    "self_seconds": self.self_seconds(),
                },
                handle,
            )


# ----------------------------------------------------------------------
# result comparison
# ----------------------------------------------------------------------
def canonical_rows(result: Any) -> List[Tuple[Any, ...]]:
    """A query result as a sorted list of value tuples in column order.

    The sort key rounds floats to 6 significant digits so two engines
    that sum in different orders sort their rows alike; the tuples keep
    the exact values.
    """
    columns = list(result.columns)

    def key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(
            (type(v).__name__, f"{v:.6g}" if isinstance(v, float) else str(v)) for v in values
        )

    rows = [tuple(row.get(column) for column in columns) for row in result.rows]
    rows.sort(key=key)
    return rows


def rows_digest(rows: Iterable[Tuple[Any, ...]]) -> str:
    """Exact digest of canonical rows (same engine, pass to pass)."""
    return hashlib.sha256(repr(list(rows)).encode("utf-8")).hexdigest()[:16]


def rows_close(left: List[Tuple[Any, ...]], right: List[Tuple[Any, ...]]) -> bool:
    """Multiset equality with a relative float tolerance (engine vs engine)."""
    if len(left) != len(right):
        return False
    for a_row, b_row in zip(left, right):
        if len(a_row) != len(b_row):
            return False
        for a, b in zip(a_row, b_row):
            if isinstance(a, float) and isinstance(b, float):
                if not (math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) or (a != a and b != b)):
                    return False
            elif a != b:
                return False
    return True


# ----------------------------------------------------------------------
# process + environment
# ----------------------------------------------------------------------
def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_head() -> Optional[str]:
    """``git rev-parse HEAD`` of the checkout, or None outside a repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    try:
        load_1min: Optional[float] = os.getloadavg()[0]
    except OSError:
        load_1min = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_head": git_head(),
        "load_1min_at_start": load_1min,
    }
