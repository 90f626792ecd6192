"""Interleaved parent/change pairs of one ledger workload.

    python3 tools/perf_pairs.py BASE_REV WORKLOAD [-n 10] [--metric pass_s[,peak_rss_mb,...]]
                                [--seed 101] [--base-dir DIR]

The measuring procedure a performance claim rests on: ``BASE_REV`` is
checked out into a temporary ``git worktree`` (or ``--base-dir`` names an
existing checkout of it), then pair *i* runs
``perf/run.py --workload W --seed S+i`` once on the base and once on the
working tree — same seed on both sides, the side that goes first
alternating — and the tool prints each side's median and quartiles, how
many pairs the change won, and whether that amounts to a gain: the change
must win at least nine tenths of the pairs (ties count for neither) and
the medians must differ by more than the distance between the base's own
quartiles.  ``--metric`` takes a comma-separated list of lower-is-better
metrics, all read from the same runs: each gets its own medians,
quartiles, win count and verdict.  Each side runs the ``perf/`` of its own
checkout, so the two must carry the same benchmark for the comparison to
mean anything.

Exit status is 0 whatever the verdict; 1 only if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, metrics: List[str]) -> Dict[str, float]:
    """One ``perf/run.py`` run in ``checkout``; the metrics from its last output line."""
    command = [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"perf/run.py failed in {checkout} (seed {seed})")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not report["correct"] or report["failed"]:
        raise SystemExit(f"perf/run.py reported wrong answers in {checkout} (seed {seed})")
    return {metric: report["metrics"][metric]["value"] for metric in metrics}


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def judge(metric: str, base: List[float], change: List[float]) -> None:
    """Print one metric's medians, quartiles, win count and verdict."""
    wins = sum(c < b for b, c in zip(base, change))
    losses = sum(c > b for b, c in zip(base, change))
    summary = {"base": summarize(base), "change": summarize(change)}
    for side, stats in summary.items():
        print(
            f"{side:6s} {metric}: median {stats['median']:.4f}"
            f"  quartiles {stats['q1']:.4f} .. {stats['q3']:.4f}"
        )
    gap = summary["base"]["median"] - summary["change"]["median"]
    spread = summary["base"]["q3"] - summary["base"]["q1"]
    print(
        f"{metric}: change won {wins}/{len(base)} pairs, lost {losses}; median gap {gap:+.4f}"
        f" ({gap / summary['base']['median'] * 100:+.1f}% of base) vs base interquartile"
        f" distance {spread:.4f}"
    )
    gained = wins >= 0.9 * len(base) and gap > spread
    print(f"{metric} verdict:", "gain (lower is better)" if gained else "no gain shown")


def measure(base: Path, args: argparse.Namespace) -> None:
    sides = {"base": base, "change": REPO}
    metrics = args.metric
    values: Dict[str, Dict[str, List[float]]] = {
        side: {metric: [] for metric in metrics} for side in sides
    }
    for pair in range(args.n):
        seed = args.seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            for metric, value in run_once(sides[side], args.workload, seed, metrics).items():
                values[side][metric].append(value)
        shown = []
        for metric in metrics:
            base_value, change_value = values["base"][metric][-1], values["change"][metric][-1]
            shown.append(
                f"{metric} base {base_value:.4f}  change {change_value:.4f}"
                f"  ({(change_value / base_value - 1) * 100:+.1f}%)"
            )
        print(f"pair {pair + 1:2d} seed {seed}: {';  '.join(shown)}  first: {order[0]}", flush=True)
    for metric in metrics:
        judge(metric, values["base"][metric], values["change"][metric])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", help="the parent commit (any git revision)")
    parser.add_argument("workload", help="a workload name from BENCHMARK.json")
    parser.add_argument("-n", type=int, default=10, help="pairs to run (default 10)")
    parser.add_argument(
        "--metric",
        default=["pass_s"],
        type=lambda text: [name.strip() for name in text.split(",") if name.strip()],
        help="lower-is-better metrics, comma-separated (default pass_s)",
    )
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--base-dir", type=Path, help="an existing checkout of BASE_REV")
    args = parser.parse_args()

    if args.base_dir is not None:
        measure(args.base_dir.resolve(), args)
        return 0
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as scratch:
        worktree = Path(scratch) / "base"
        git = ["git", "-C", str(REPO), "worktree"]
        subprocess.run(git + ["add", "--detach", str(worktree), args.base_rev], check=True)
        try:
            measure(worktree, args)
        finally:
            subprocess.run(git + ["remove", "--force", str(worktree)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
