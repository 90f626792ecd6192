"""One workload, one fresh process: set up, warm up, time passes, check.

``run.py`` starts this file once per child so that ``ru_maxrss``, the
plan cache, the string dictionary and the garbage collector all start
from nothing.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List

from harness import OUT_DIR, Tracer, add_src_to_path, median

add_src_to_path()

from workloads import WORKLOADS  # noqa: E402  (needs repro importable)

#: the clock for ``setup_s`` starts once the interpreter and the
#: program's modules are loaded; what follows is the workload's own set-up
IMPORTS_DONE = time.perf_counter()


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer()
    workload = WORKLOADS[name](seed, quick, tracer, workdir)
    # a fixed count, not a deadline: tombstones make later passes slower,
    # so a run that squeezed in one pass more would report another median
    passes = 2 if quick else max(3, round(seconds / workload.nominal_pass_s))
    pass_seconds: List[float] = []
    traced_seconds: List[float] = []
    latencies_ms: List[List[float]] = []
    try:
        workload.setup()
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - IMPORTS_DONE

        def timed_pass(index: int, sink: List[float]) -> None:
            started = time.perf_counter()
            latencies = workload.run_pass(index)
            sink.append(time.perf_counter() - started)
            workload.note_pass(index, latencies)
            latencies_ms.append([1e3 * value for value in latencies])
            workload.after_pass(index)

        for index in range(1, passes + 1):
            timed_pass(index, pass_seconds)
        if trace:
            tracer.enabled = True
            for index in range(passes + 1, 2 * passes + 1):
                timed_pass(index, traced_seconds)
            workload.layers(passes)
            tracer.enabled = False
            edge = min(3, max(1, passes // 2))
            workload.layer["drift_ratio"] = median(pass_seconds[-edge:]) / median(
                pass_seconds[:edge]
            )
            workload.layer["trace_overhead_ratio"] = median(traced_seconds) / median(pass_seconds)
            tracer.dump(os.path.join(OUT_DIR, f"trace_{name}.json"))
        workload.check()
        sizes = workload.sizes()
        fingerprint = workload.fingerprint()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "pass_s": pass_seconds,
        "traced_pass_s": traced_seconds,
        "kinds": workload.kinds,
        # untraced passes only: the traced ones carry span overhead
        "latencies_ms": latencies_ms[:passes],
        "ops": len(workload.kinds) * passes,
        "failed_ops": workload.failed_ops,
        "peak_rss_mb": workload.peak_rss_mb(),
        "checks": workload.checks,
        "sizes": sizes,
        "layer": workload.layer,
        "query_ms": getattr(workload, "query_ms", {}),
        "fingerprint": fingerprint,
        "failures": workload.failures[:20],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True, help="this child's share of the run's timed seconds"
    )
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), bool(args.quick))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
