"""Compare two documents written by ``run.py --out``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload).  B is judged against A with
the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — the runs' own spread exceeds the bound, so a
  difference of that size could not have been seen (reported as such,
  never as "unchanged");
* ``ok`` otherwise (``improved`` when better by more than the bound —
  which this tool notes but does not certify; see perf/README.md).

The spread of ``pass_s`` and ``op_ms_p95`` is the interquartile range of
the pooled passes after dividing pass *j* of every child by the mean of
pass *j* over the children — the write workloads slow down pass by pass
as tombstones pile up, and that drift (reported as ``drift_ratio``) is
not noise.  For ``setup_s`` and ``peak_rss_mb`` it is the distance from
the children's median to its nearer neighbour, over the median.

Exits 1 when a pair regressed or is unresolved, when ``failed_ops/ops``
rose, or when a counter that must repeat exactly (``bsp.*``) differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

from harness import quartile_spread

#: per-layer counts that must be identical between two runs — on the
#: single-caller read workloads; on serve_mixed which reads miss the result
#: cache depends on how the two connections interleave
EXACT_COUNTERS = ("bsp.supersteps", "bsp.messages", "bsp.message_bytes", "bsp.compute_units")
EXACT_ON = ("tpc_warm", "fanout_agg")


def pass_spread(passes: List[List[float]]) -> float:
    """Interquartile spread of pooled passes with the per-pass trend removed."""
    depth = min(len(child) for child in passes)
    residuals = []
    for index in range(depth):
        trend = statistics.fmean(child[index] for child in passes)
        residuals += [child[index] / trend for child in passes]
    return quartile_spread(residuals)


def children_spread(values: List[float]) -> float:
    """How far the nearer neighbour of the children's median lies from it.

    With three children the reported value is the middle one, and one
    slow set-up (a server child that took a second longer to come up)
    does not move it; the range would call that pair unresolved.
    """
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) < 3 or not ordered[middle]:
        return 0.0
    nearer = min(ordered[middle] - ordered[middle - 1], ordered[middle + 1] - ordered[middle])
    return nearer / ordered[middle]


def spread_of(metric: str, found: Dict[str, Any]) -> float:
    if metric in ("pass_s", "op_ms_p95"):
        return pass_spread(found["passes"])
    children = found.get("children", {})
    return children_spread(children[metric]) if metric in children else 0.0


def report(first: Dict[str, Any], second: Dict[str, Any], benchmark: Dict[str, Any]) -> int:
    """Print the comparison table; returns the process exit code."""
    failed = False
    print(
        f"{'workload':15s} {'metric':12s} {'A':>11s} {'B':>11s} {'B vs A':>8s} "
        f"{'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload, a_result in first["results"].items():
        b_result = second["results"].get(workload)
        if b_result is None or "end_to_end" not in a_result or "end_to_end" not in b_result:
            continue
        a_found, b_found = a_result["end_to_end"], b_result["end_to_end"]
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a_value, b_value = a_found["metrics"][name], b_found["metrics"][name]
            change = (b_value - a_value) / a_value
            worse = change if metric["better"] == "lower" else -change
            spread = max(spread_of(name, a_found), spread_of(name, b_found))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "improved" if worse < -bound else "ok"
            failed = failed or verdict in ("unresolved", "regressed")
            print(
                f"{workload:15s} {name:12s} {a_value:11.5g} {b_value:11.5g} {change:+8.1%} "
                f"{bound:6.0%} {spread:7.1%}  {verdict}"
            )
        a_rate = a_found["failed_ops"] / max(a_found["ops"], 1)
        b_rate = b_found["failed_ops"] / max(b_found["ops"], 1)
        if b_rate > a_rate:
            failed = True
            print(f"{workload:15s} failed_ops/ops rose: {a_rate:.4%} -> {b_rate:.4%}")
        if workload in EXACT_ON and "per_layer" in a_result and "per_layer" in b_result:
            a_layer, b_layer = a_result["per_layer"]["metrics"], b_result["per_layer"]["metrics"]
            for name in EXACT_COUNTERS:
                if name in a_layer and a_layer[name] != b_layer.get(name):
                    failed = True
                    print(
                        f"{workload:15s} {name} must repeat exactly: "
                        f"{a_layer[name]} -> {b_layer.get(name)}"
                    )
    print("comparison:", "FAILED" if failed else "ok")
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    from run import load_benchmark

    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return report(documents[0], documents[1], load_benchmark())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
