"""Communication / computation cost accounting for BSP runs.

The paper's cost measure (Section 2, "Cost Measure") counts the total
number of messages sent over all supersteps and the total per-vertex
computation.  For the distributed experiments (Section 8.6) the relevant
quantity is *network traffic*: bytes crossing machine boundaries.  The
metrics objects here capture all three so benchmarks can report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


# exact-type sizes of the scalars almost every payload is made of
_SCALAR_SIZES = {int: 8, float: 8, bool: 1, type(None): 1}


def payload_size_bytes(payload: Any) -> int:
    """Approximate serialized size of a message payload.

    Numbers and dates count 8 bytes, strings their length, containers the
    sum of their elements plus a small per-element overhead.  This mirrors
    the fixed-width message-size assumption of the paper's analysis
    (Section 5.2.1) while still letting the collection phase's tuple-bearing
    messages weigh more than id-bearing ones.

    The common shapes — a plain scalar, a string, a row of them — are
    sized by exact-type lookup in one flat loop; subclasses (a numpy
    float, an ``IntEnum``), sets, dicts and everything else take the
    ``isinstance`` ladder below it, which gives the same numbers.
    """
    kind = type(payload)
    size = _SCALAR_SIZES.get(kind)
    if size is not None:
        return size
    if kind is str:
        return len(payload)
    if kind is tuple or kind is list:
        count = len(payload)
        if count > 8:  # large containers: sample the first element
            return 4 + count * payload_size_bytes(payload[0])
        total = 4
        for element in payload:
            size = _SCALAR_SIZES.get(type(element))
            total += size if size is not None else payload_size_bytes(element)
        return total
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        # large homogeneous containers (the collection phase's row tables)
        # are sized by sampling the first element to keep accounting O(1)
        # per message instead of O(payload)
        size = len(payload)
        if size == 0:
            return 4
        if size > 8:
            first = next(iter(payload))
            return 4 + size * payload_size_bytes(first)
        return 4 + sum(payload_size_bytes(element) for element in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            payload_size_bytes(key) + payload_size_bytes(value)
            for key, value in payload.items()
        )
    if hasattr(payload, "isoformat"):  # date / datetime
        return 8
    # columnar batches (and any future table-like payload) size themselves;
    # duck-typed so this module never imports the execution layer
    hint = getattr(payload, "payload_size_hint", None)
    if hint is not None:
        return hint()
    return 16


@dataclass
class SuperstepMetrics:
    """Counters for one superstep."""

    superstep: int
    active_vertices: int = 0
    messages_sent: int = 0
    message_bytes: int = 0
    network_messages: int = 0
    network_bytes: int = 0
    compute_units: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "superstep": self.superstep,
            "active_vertices": self.active_vertices,
            "messages_sent": self.messages_sent,
            "message_bytes": self.message_bytes,
            "network_messages": self.network_messages,
            "network_bytes": self.network_bytes,
            "compute_units": self.compute_units,
        }


@dataclass
class RunMetrics:
    """Aggregated counters for a whole vertex-program run (or query)."""

    label: str = "run"
    supersteps: List[SuperstepMetrics] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    # query planning/compilation accounting (filled by the TAG-join executor)
    compile_seconds: float = 0.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def new_superstep(self, superstep: int) -> SuperstepMetrics:
        metrics = SuperstepMetrics(superstep)
        self.supersteps.append(metrics)
        return metrics

    # ------------------------------------------------------------------
    # totals (the quantities reported in the paper's tables/figures)
    # ------------------------------------------------------------------
    @property
    def superstep_count(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        return sum(step.messages_sent for step in self.supersteps)

    @property
    def total_message_bytes(self) -> int:
        return sum(step.message_bytes for step in self.supersteps)

    @property
    def total_network_messages(self) -> int:
        return sum(step.network_messages for step in self.supersteps)

    @property
    def total_network_bytes(self) -> int:
        return sum(step.network_bytes for step in self.supersteps)

    @property
    def total_compute(self) -> int:
        return sum(step.compute_units for step in self.supersteps)

    def merge(self, other: "RunMetrics") -> None:
        """Fold another run's counters into this one (multi-phase queries)."""
        offset = len(self.supersteps)
        for step in other.supersteps:
            copied = SuperstepMetrics(
                superstep=offset + step.superstep,
                active_vertices=step.active_vertices,
                messages_sent=step.messages_sent,
                message_bytes=step.message_bytes,
                network_messages=step.network_messages,
                network_bytes=step.network_bytes,
                compute_units=step.compute_units,
            )
            self.supersteps.append(copied)
        self.wall_time_seconds += other.wall_time_seconds
        self.compile_seconds += other.compile_seconds
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses

    def summary(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "supersteps": self.superstep_count,
            "messages": self.total_messages,
            "message_bytes": self.total_message_bytes,
            "network_messages": self.total_network_messages,
            "network_bytes": self.total_network_bytes,
            "compute": self.total_compute,
            "wall_time_seconds": self.wall_time_seconds,
            "compile_seconds": self.compile_seconds,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunMetrics({self.label}: {self.superstep_count} supersteps, "
            f"{self.total_messages} msgs, {self.total_compute} compute)"
        )
