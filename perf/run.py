"""The perf ledger's one command.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--quick] [--aa]

Runs the workloads named in ``BENCHMARK.json`` (all of them unless
``--workload`` picks one), prints every metric by name with its unit,
checks the program's answers, and exits non-zero if any check fails.

A workload is measured in three fresh child processes run one after
another (``child.py``: set-up, one untimed warm-up pass, timed passes,
correctness checks); this file pools what they report.  ``--trace 0``
(default) gives the end-to-end metrics, ``--trace 1`` runs one traced
child instead and gives the per-layer metrics, a bare ``--trace`` does
both.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3840, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from harness import OUT_DIR, PERF_DIR, ROOT, SRC, environment, median, percentile

#: fresh processes per workload; ``--seconds`` is split evenly between them
CHILDREN = 3
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.join(PERF_DIR, "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(int(trace)),
        "--quick",
        str(int(quick)),
    ]
    done = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def judge(children: List[Dict[str, Any]]) -> Dict[str, bool]:
    """Every child's checks, plus: all children saw the same results."""
    checks: Dict[str, bool] = {}
    for child in children:
        for name, ok in child["checks"].items():
            checks[name] = ok and checks.get(name, True)
    if len(children) > 1 and children[0]["fingerprint"]:
        checks["identical_across_children"] = (
            len({child["fingerprint"] for child in children}) == 1
        )
    return checks


def end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    count = 1 if quick else CHILDREN
    children = [run_child(workload, seed, seconds / count, False, quick) for _ in range(count)]
    passes = [child["pass_s"] for child in children]
    pooled_passes = [value for child in passes for value in child]
    kinds = children[0]["kinds"]
    pooled_ops = [v for child in children for one_pass in child["latencies_ms"] for v in one_pass]
    by_kind: Dict[str, List[float]] = {}
    for child in children:
        for one_pass in child["latencies_ms"]:
            for kind, value in zip(kinds, one_pass):
                by_kind.setdefault(kind, []).append(value)
    checks = judge(children)
    return {
        "metrics": {
            "setup_s": median([child["setup_s"] for child in children]),
            "pass_s": median(pooled_passes),
            "op_ms_p95": percentile(pooled_ops, 95),
            "peak_rss_mb": median([child["peak_rss_mb"] for child in children]),
        },
        "informational": {
            "passes_pooled": len(pooled_passes),
            "op_samples": len(pooled_ops),
            "op_ms_p50": median(pooled_ops),
            "op_ms_p99": percentile(pooled_ops, 99),
            "op_ms_p50_by_kind": {kind: median(values) for kind, values in sorted(by_kind.items())},
        },
        "ops": sum(child["ops"] for child in children),
        "failed_ops": sum(child["failed_ops"] for child in children),
        "failures": [line for child in children for line in child["failures"]],
        "checks": checks,
        "passes": passes,
        "children": {
            name: [child[name] for child in children] for name in ("setup_s", "peak_rss_mb")
        },
        "sizes": children[0]["sizes"],
    }


def per_layer(
    workload: str, seed: int, seconds: float, quick: bool, names: List[str]
) -> Dict[str, Any]:
    child = run_child(workload, seed, seconds / (1 if quick else CHILDREN), True, quick)
    # a layer the workload never enters reports 0 for its metrics
    return {
        "metrics": {name: child["layer"].get(name, 0) for name in names},
        "query_ms": child["query_ms"],
        "ops": child["ops"],
        "failed_ops": child["failed_ops"],
        "failures": child["failures"],
        "checks": judge([child]),
        "sizes": child["sizes"],
        "trace_file": os.path.relpath(os.path.join(OUT_DIR, f"trace_{workload}.json"), ROOT),
    }


def print_table(title: str, values: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"\n{title}")
    for name, value in values.items():
        if isinstance(value, dict):
            if len(value) <= 8:
                for key, inner in value.items():
                    print(f"  {name + '.' + key:44s} {inner:>16.6g}")
            continue
        rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {rendered:>16s} {units.get(name, '')}")


def run_set(args: argparse.Namespace, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """Measure every selected workload once; returns the full document."""
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    layer_names = [metric["name"] for metric in benchmark["per_layer"]]
    selected = [w["name"] for w in benchmark["workloads"] if args.workload in (None, w["name"])]
    document: Dict[str, Any] = {
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "quick": args.quick,
        "results": {},
    }
    for workload in selected:
        result: Dict[str, Any] = {}
        if args.trace in ("0", "both"):
            result["end_to_end"] = end_to_end(workload, args.seed, args.seconds, args.quick)
        if args.trace in ("1", "both"):
            result["per_layer"] = per_layer(
                workload, args.seed, args.seconds, args.quick, layer_names
            )
        document["results"][workload] = result
        for part, found in result.items():
            print_table(f"== {workload} · {part.replace('_', ' ')} ==", found["metrics"], units)
            extra = {"ops": found["ops"], "failed_ops": found["failed_ops"]}
            extra.update(found.get("informational", {}))
            print_table("  -- informational --", extra, units)
            print_table("  -- sizes --", found["sizes"], units)
            for name, ok in found["checks"].items():
                print(f"  check {name:38s} {'ok' if ok else 'FAILED'}")
            for line in found["failures"][:5]:
                print(f"  failed: {line}")
    return document


def summary_line(
    document: Dict[str, Any], benchmark: Dict[str, Any], single: Optional[str]
) -> Dict[str, Any]:
    """The contract's result object; metrics nest by workload when several ran."""
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for workload, result in document["results"].items():
        mine: Dict[str, Any] = {}
        for found in result.values():
            correct = correct and all(found["checks"].values()) and found["failed_ops"] == 0
            attempted += found["ops"]
            failed += found["failed_ops"]
            for name, value in found["metrics"].items():
                mine[name] = {"value": value, "unit": units[name]}
        if single:
            metrics = mine
        else:
            metrics[workload] = mine
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: List[str]) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="timed seconds per workload, split between its children",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="both",
        default="0",
        choices=["0", "1", "both"],
        help="0: end-to-end metrics; 1: per-layer metrics from one traced child; bare: both",
    )
    parser.add_argument("--out", help="write the full JSON document here")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one child: a smoke run")
    parser.add_argument("--aa", action="store_true", help="run the set twice and compare the two")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: the program is not here ({SRC}/repro is missing)", file=sys.stderr)
        return 2

    document = run_set(args, benchmark)
    verdict = 0
    if args.aa:
        import compare

        second = run_set(args, benchmark)
        print("\n== A/A: the same commit measured twice ==")
        verdict = compare.report(document, second, benchmark)
        document = {"first": document, "second": second}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    measured = document["second"] if args.aa else document
    summary = summary_line(measured, benchmark, args.workload)
    print(json.dumps(summary))
    return verdict if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
