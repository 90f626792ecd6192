PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stress test-differential test-chaos perf perf-quick perf-tests counts bench-recovery bench examples lint format-check loc footprint

test:
	$(PYTHON) -m pytest -x -q

# concurrency stress plus the write-path timing gates
# (tests/stress/test_write_path_gates.py)
test-stress:
	$(PYTHON) -m pytest -m stress -q

# deep randomized cross-engine sweep; size/seed via env:
#   DIFFERENTIAL_EXAMPLES=500 (generated queries)
#   DIFFERENTIAL_SEED_MODE=fixed|random (derandomized vs fresh entropy)
test-differential:
	$(PYTHON) -m pytest -m differential -q tests/differential

# crash matrix: a subprocess workload is killed (os._exit 137) at every
# registered failpoint via a seeded crash schedule, then a fault-free
# process must recover, observe every acknowledged batch as already
# applied, and answer golden queries identically to a clean load
test-chaos:
	$(PYTHON) -m pytest -m chaos -q tests/chaos

# the perf ledger (perf/README.md): every workload of BENCHMARK.json with
# its end-to-end metrics (~90 s); the same at smoke sizes (~10 s; exits
# non-zero unless tag == rdbms and result digests repeat); the ledger's
# own tests.  Interleaved parent/change pairs for a performance claim:
#   python3 tools/perf_pairs.py BASE_REV WORKLOAD [-n 10]
perf:
	$(PYTHON) perf/run.py

perf-quick:
	$(PYTHON) perf/run.py --quick

perf-tests:
	$(PYTHON) -m pytest perf/tests -q

# the deterministic bsp.* counters of the two analytic workloads at smoke
# size and seed 7 (the last line of a traced ledger run); a change that
# moves one names the old and new value
counts:
	@for workload in tpc_warm fanout_agg; do \
		$(PYTHON) perf/run.py --workload $$workload --seed 7 --quick --trace 1 | tail -n 1 | \
		$(PYTHON) -c "import json, sys; report = json.load(sys.stdin); \
		metrics = report['metrics']; \
		[print(sys.argv[1], name, metrics[name]['value']) for name in sorted(metrics) \
		if name.startswith('bsp.')]; sys.exit(not report['correct'])" $$workload || exit 1; \
	done

# WAL write-path overhead + recovery-time curve; exits non-zero if a
# recovered database diverges from a clean load or buffered-WAL ingest
# p99 regresses more than 10% over memory-only
bench-recovery:
	$(PYTHON) -m repro.bench.recovery \
		--out benchmarks/results/BENCH_recovery.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/warehouse_analytics.py
	$(PYTHON) examples/distributed_cluster.py

bench:
	$(PYTHON) -m pytest benchmarks/ -q

lint:
	ruff check .

format-check:
	ruff format --check .

# lines of Python under src/, the yardstick for simplicity changes
loc:
	@find src -name '*.py' | xargs cat | wc -l

# what `import repro, repro.serve` costs one process: wall seconds and peak
# RSS (ru_maxrss, KiB on Linux); stdlib-only, informational, no gate
footprint:
	@$(PYTHON) -c "import resource, time; start = time.perf_counter(); \
	import repro, repro.serve; seconds = time.perf_counter() - start; \
	rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; \
	print(f'import repro, repro.serve: {seconds:.2f} s, ru_maxrss {rss:.1f} MiB')"
