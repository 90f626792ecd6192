"""``tools/perf_pairs.py`` judges several metrics from one set of runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_per_side_and_pair_feeds_every_metric(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    calls = []

    def run_once(checkout, workload, seed, metrics):
        calls.append((checkout, seed))
        base = checkout != tool.REPO
        # pass_s: the change is 20 % faster on every seed; peak_rss_mb:
        # equal on even seeds, so the change wins only half the pairs
        return {
            "pass_s": (1.0 if base else 0.8) + seed * 1e-3,
            "peak_rss_mb": 100.0 + (seed % 2 if base else 0),
        }

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(
        sys,
        "argv",
        ["perf_pairs.py", "BASE", "tpc_warm", "-n", "10", "--base-dir", str(tmp_path),
         "--metric", "pass_s, peak_rss_mb"],
    )
    assert tool.main() == 0
    out = capsys.readouterr().out
    assert len(calls) == 20  # one run per side per pair, whatever the metric count
    assert "pass_s: change won 10/10 pairs, lost 0" in out
    assert "pass_s verdict: gain (lower is better)" in out
    assert "peak_rss_mb: change won 5/10 pairs, lost 0" in out
    assert "peak_rss_mb verdict: no gain shown" in out


def test_the_default_metric_is_pass_s(monkeypatch, tmp_path, capsys):
    tool = load_tool()
    seen = []

    def run_once(checkout, workload, seed, metrics):
        seen.append(list(metrics))
        return {"pass_s": 1.0}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(
        sys, "argv", ["perf_pairs.py", "BASE", "fanout_agg", "-n", "2", "--base-dir", str(tmp_path)]
    )
    tool.main()
    assert seen == [["pass_s"]] * 4
    assert "pass_s verdict: no gain shown" in capsys.readouterr().out
