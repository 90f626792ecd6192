"""The perf ledger checks itself: contract, smoke, determinism, guards."""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import PERF_DIR, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(*argv, cwd=ROOT, script=None, timeout=170):
    script = script or os.path.join(PERF_DIR, "run.py")
    return subprocess.run(
        [sys.executable, script, *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        check=False,
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json against the builder's contract
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    spec = benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"] and os.path.isdir(os.path.join(ROOT, "perf"))
    assert not any(part.startswith("/") or ".." in part for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
    # 4 + 22 x workloads runs inside 3420 s: what one run may cost on average
    assert 3420 / (4 + 22 * len(spec["workloads"])) > spec["run_seconds"] * 2


# ----------------------------------------------------------------------
# the one command, end to end, at smoke size
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_run():
    done = run("--quick", "--seed", "5")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done


def test_quick_smoke_covers_every_workload_and_metric(quick_run):
    spec = benchmark()
    summary = last_json(quick_run)
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    assert list(summary["metrics"]) == [workload["name"] for workload in spec["workloads"]]
    for workload, metrics in summary["metrics"].items():
        for metric in spec["end_to_end"]:
            reported = metrics[metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0, (workload, metric["name"])
    assert "FAILED" not in quick_run.stdout


def test_driver_form_prints_exactly_the_contract_object():
    spec = benchmark()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = run(
            "--workload", "fanout_agg", "--seed", "9", "--seconds", "1", "--trace", trace, "--quick"
        )
        assert done.returncode == 0, done.stderr[-3000:]
        summary = last_json(done)
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert set(summary["metrics"]) == {metric["name"] for metric in spec[kind]}
        for value in summary["metrics"].values():
            assert set(value) == {"value", "unit"} and isinstance(value["value"], (int, float))
    assert summary["metrics"]["planner.cache_hit_rate"]["value"] == 1.0
    assert summary["metrics"]["incremental.full_rebuilds"]["value"] == 0
    assert summary["metrics"]["trace_overhead_ratio"]["value"] > 0
    assert os.path.exists(os.path.join(PERF_DIR, "out", "trace_fanout_agg.json"))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR,
        tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run(
        "--workload", "tpc_warm", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=str(tmp_path / "perf" / "run.py"),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["tpc_warm", "fanout_agg"])
def test_bsp_counts_repeat_exactly_and_across_seeds(workload):
    """The paper's cost measure is a count: same seed → same numbers, and
    (because seeds permute rather than resize) another seed → same too."""
    counted = []
    for seed in ("3", "3", "4"):
        done = run("--workload", workload, "--seed", seed, "--trace", "1", "--quick")
        assert done.returncode == 0, done.stderr[-3000:]
        metrics = last_json(done)["metrics"]
        counted.append(
            {name: metrics[name]["value"] for name in metrics if name.startswith("bsp.")}
        )
    assert counted[0]["bsp.messages"] > 0
    assert counted[0] == counted[1]
    # message_bytes sizes a large payload from its first element, so it
    # follows the load order; every other counter ignores it
    for run_counts in counted:
        del run_counts["bsp.message_bytes"]
    assert counted[0] == counted[2]


def test_same_seed_same_inputs_other_seed_other_inputs():
    from workloads.mutate import MutateChurn, build_ops
    from workloads.serve import ServeMixed, build_script

    ops = [build_ops(MutateChurn.MIX, seed, 1, 10_000, 60) for seed in (1, 1, 2)]
    assert ops[0] == ops[1] != ops[2]
    assert len(ops[0]) == MutateChurn.MIX.operations == 256  # = snapshot_every
    scripts = [build_script(ServeMixed.MIX, seed, 1, 0, 10_000, 60) for seed in (1, 1, 2)]
    assert scripts[0] == scripts[1] != scripts[2]
    assert len(scripts[0]) == ServeMixed.MIX.requests
    kinds = [request.kind for request in scripts[0]]
    assert sorted(set(kinds)) == [
        "adhoc_select",
        "cached_select",
        "delete_rows",
        "load_rows",
        "prepared_select",
        "update_rows",
    ]
    inserted = sum(len(r.rows) for r in scripts[0] if r.kind == "load_rows")
    deleted = sum(len(r.rows) for r in scripts[0] if r.kind == "delete_rows")
    assert inserted == deleted > 0


# ----------------------------------------------------------------------
# serve_mixed: every frame fits asyncio's line limit
# ----------------------------------------------------------------------
def test_serve_mixed_frames_stay_under_48_kib():
    import random

    from repro import Database
    from repro.serve.protocol import encode_frame, ok_frame
    from repro.workloads import generate_tpch

    from workloads.base import shuffled_catalog
    from workloads.serve import FRAME_LIMIT_BYTES, ServeMixed, build_script

    catalog, _ = shuffled_catalog(generate_tpch(ServeMixed.SCALE), random.Random(1))
    session = Database(catalog).connect(engine="rdbms")
    first_key = 10 * max(row[0] for row in catalog.relation("ORDERS").rows)
    customers = len(catalog.relation("CUSTOMER"))
    largest = 0
    for index in range(3):
        for connection in range(ServeMixed.CONNECTIONS):
            for request in build_script(ServeMixed.MIX, 1, index, connection, first_key, customers):
                sent = encode_frame(
                    {"id": 1, "op": request.op, "statement": "s1", **request.fields}
                )
                largest = max(largest, len(sent))
                if request.sql is not None:
                    result = session.execute(request.sql, params=request.params)
                    payload = {"result_set": result.to_json(), "engine": "tag", "cached": False}
                    reply = ok_frame(1, payload)
                    largest = max(largest, len(encode_frame(reply)))
    assert 0 < largest < FRAME_LIMIT_BYTES


# ----------------------------------------------------------------------
# import guard: nothing slated for deletion is used
# ----------------------------------------------------------------------
def test_perf_imports_nothing_slated_for_deletion():
    forbidden = ("repro.bench", "repro.serve.driver", "benchmarks")
    for folder, _dirs, files in os.walk(PERF_DIR):
        if os.sep + "out" in folder:
            continue
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
                else:
                    continue
                for module in modules:
                    assert not any(
                        module == bad or module.startswith(bad + ".") for bad in forbidden
                    ), f"{path} imports {module}"


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def document(pass_s, failed_ops=0, noise=0.0):
    passes = [[pass_s * (1 + noise * sign) for sign in (-1, 0, 1, 0)] for _ in range(3)]
    passes[1] = [value * (1 + noise) for value in passes[1]]
    found = {
        "metrics": {"setup_s": 1.0, "pass_s": pass_s, "op_ms_p95": 5.0, "peak_rss_mb": 100.0},
        "ops": 1000,
        "failed_ops": failed_ops,
        "passes": passes,
        "children": {"setup_s": [1.0, 1.01, 0.99], "peak_rss_mb": [100.0, 100.0, 100.1]},
    }
    return {"results": {"tpc_warm": {"end_to_end": found}}}


def test_compare_verdicts(capsys):
    import compare

    spec = benchmark()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "pass_s")
    assert compare.report(document(1.0), document(1.0 + bound / 2), spec) == 0
    assert compare.report(document(1.0), document(1.0 + bound * 1.5), spec) == 1
    assert "regressed" in capsys.readouterr().out
    noisy = document(1.0, noise=2 * bound)
    assert compare.report(noisy, noisy, spec) == 1
    assert "unresolved" in capsys.readouterr().out
    assert compare.report(document(1.0), document(1.0, failed_ops=3), spec) == 1
    assert "failed_ops/ops rose" in capsys.readouterr().out


def test_compare_ignores_drift_but_not_noise():
    import compare

    drifting = [[1.0, 1.1, 1.2, 1.3, 1.4]] * 3
    assert compare.pass_spread(drifting) == 0.0
    noisy = [[1.0, 1.0, 1.0, 1.0], [1.3, 0.7, 1.3, 0.7], [0.7, 1.3, 0.7, 1.3]]
    assert compare.pass_spread(noisy) > 0.3
