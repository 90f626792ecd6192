"""The five workloads of the perf ledger, by name (names are final)."""

from .analytic import FanoutAgg, TpcWarm
from .mutate import MutateAggview, MutateChurn
from .serve import ServeMixed

WORKLOADS = {
    workload.name: workload
    for workload in (TpcWarm, FanoutAgg, ServeMixed, MutateChurn, MutateAggview)
}
