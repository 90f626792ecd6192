"""Communication / computation cost accounting for BSP runs.

The paper's cost measure (Section 2, "Cost Measure") counts the total
number of messages sent over all supersteps and the total per-vertex
computation.  For the distributed experiments (Section 8.6) the relevant
quantity is *network traffic*: bytes crossing machine boundaries.  The
metrics objects here capture all three so benchmarks can report them.

**Byte model.**  The TAG-join kernel (:mod:`repro.exec.program`) counts
bytes from its compiled plan, as the paper assumes fixed-width messages
(Section 5.2.1): 4 per vertex id, 8 per row slot, 4 per table header.  A
reduction message weighs 4, a collection message of ``n`` rows of ``s``
slots ``4 + 8ns``, an aggregator message 8 per slot of its group key,
partial (two for AVG) and sample row.  The widths are fixed at compile
time, so the count depends only on how many rows flow, never on their
values or load order.  The other programs (the dict-row reference, the
cycle and two-way programs, the shuffle) still size their Python
payloads with :func:`payload_size_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional


#: the kernel's byte model (module docstring)
VERTEX_ID_BYTES = 4
SLOT_BYTES = 8
TABLE_HEADER_BYTES = 4


def payload_size_bytes(payload: Any) -> int:
    """Approximate serialized size of a message payload.

    Numbers and dates count 8 bytes (a bool or None 1), strings their
    length, containers the sum of their elements plus a 4-byte overhead;
    a container of more than 8 elements is sized from its first element
    times its length, so accounting stays O(1) per message.
    """
    if payload is None or type(payload) is bool:
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        count = len(payload)
        if count > 8:
            return 4 + count * payload_size_bytes(next(iter(payload)))
        return 4 + sum(payload_size_bytes(element) for element in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            payload_size_bytes(key) + payload_size_bytes(value)
            for key, value in payload.items()
        )
    if hasattr(payload, "isoformat"):  # date / datetime
        return 8
    return 16


@dataclass
class SuperstepMetrics:
    """Counters for one superstep."""

    superstep: int
    #: what the superstep does, set by the program that ran it (the TAG-join
    #: programs: ``reduce_up``, ``reduce_down``, ``collect`` or ``final``)
    phase: Optional[str] = None
    active_vertices: int = 0
    messages_sent: int = 0
    message_bytes: int = 0
    network_messages: int = 0
    network_bytes: int = 0
    compute_units: int = 0


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

    def messages_by_phase(self) -> Dict[Optional[str], int]:
        """Messages sent per :attr:`SuperstepMetrics.phase`."""
        totals: Dict[Optional[str], int] = {}
        for step in self.supersteps:
            totals[step.phase] = totals.get(step.phase, 0) + step.messages_sent
        return totals

    def merge(self, other: "RunMetrics") -> None:
        """Fold another run's counters into this one (multi-phase queries)."""
        offset = len(self.supersteps)
        self.supersteps.extend(
            replace(step, superstep=offset + step.superstep) for step in other.supersteps
        )
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
