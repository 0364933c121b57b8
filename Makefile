.PHONY: install test lint lint-concurrency typecheck bench perfbench perfbench-pairs bench-scoring bench-docstore bench-durability bench-dedup bench-lsh bench-hotpath bench-robustness test-faults test-chaos examples clean

# Every target runs against the source tree; no install needed.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

lint:
	python -m repro.analysis.lint src tests benchmarks examples

# Concurrency & determinism analyzer (R100-R103, R105, R106): effect
# inference over the call graph of src/, race/nondeterminism diagnostics on
# the parallel and durable paths.  Writes the machine-readable report to
# RCODES.json.
lint-concurrency:
	python -m repro.cli check --concurrency src --json RCODES.json

typecheck:
	mypy src/repro

bench:
	pytest benchmarks/ --benchmark-only

# End-to-end pipeline benchmark (BENCHMARK.json): one untraced 25-second
# run of each workload at the seed ROADMAP.md quotes, printing each run's
# result line.  Run it on the parent and on a change to compare them.
perfbench:
	@for run in ingest/21 evaluate/311 customize_detect/31; do \
		out=$$(python3 perfbench/run.py --workload $${run%/*} --seed $${run#*/} \
			--seconds 25 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$run $$(echo "$$out" | tail -n 1)"; \
	done

# Claim a gain the way choosing-metrics section 8 asks: PAIRS alternating
# runs of one workload on PARENT (exported with git archive under
# .perfbench/) and on the working tree.  Prints every run, each side's
# quartiles per end-to-end metric, and whether the gain rule holds on
# METRIC; fails when any run reports correct: false.
PARENT ?= HEAD
WORKLOAD ?= ingest
SEED ?= 21
PAIRS ?= 10
METRIC ?= throughput
perfbench-pairs:
	python3 benchmarks/perfbench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS) --metric $(METRIC)

# Quick scoring benchmark: fast kernels + batching vs the naive reference.
# Writes machine-readable timings/speedups to BENCH_scoring.json and fails
# if the sequential fast path is less than 3x the naive reference.
bench-scoring:
	python benchmarks/scoring_bench.py --quick --out BENCH_scoring.json

# Quick docstore benchmark: planned reads (index lookups/ranges, index
# order, pipeline pushdown) vs forced full scans.  Writes timings/speedups
# to BENCH_docstore.json and fails if indexed range finds or pushdown
# aggregates are less than 5x the full-scan reference.
bench-docstore:
	python benchmarks/docstore_bench.py --quick --out BENCH_docstore.json

# Quick durability benchmark: WAL append throughput across fsync-batch
# settings, commit cost and recovery (WAL replay vs snapshot load).
# Writes machine-readable timings to BENCH_durability.json.
bench-durability:
	python benchmarks/durability_bench.py --quick --out BENCH_durability.json

# Quick duplicate-detection benchmark: the streaming/parallel pipeline
# (packed pair keys, prepared record vectors, sharded scoring) vs the
# naive tuple-set + per-pair framework.  Writes timings/speedups and the
# candidate-set memory comparison to BENCH_dedup.json and fails if the
# best parallel run is less than 5x the naive reference or any path is
# not bit-identical.
bench-dedup:
	python benchmarks/dedup_bench.py --quick --out BENCH_dedup.json

# Quick LSH blocking benchmark: MinHash-LSH vs multi-pass Sorted
# Neighborhood on a typo-heavy labeled workload at three register sizes.
# Writes candidate counts, recall, wall times and log-log growth
# exponents to BENCH_lsh.json; fails if LSH candidates grow quadratically
# (exponent >= 2), or recall drops below 0.90x SNM at the largest size or
# the pair budget exceeds 0.5x SNM.
bench-lsh:
	python benchmarks/lsh_bench.py --quick --out BENCH_lsh.json

# Quick hot-path benchmark: a planned range find returning lazy views vs
# the deep-copying full-scan oracle, and batched vs per-op durable inserts
# under fsync-every-record.  Writes timings (with p50/p95 latencies) to
# BENCH_hotpath.json; fails if the lazy find is <2x the oracle, batched
# insert_many is <5x per-op, or any path is not bit-identical.
bench-hotpath:
	python benchmarks/hotpath_bench.py --quick --out BENCH_hotpath.json

# Quick robustness benchmark: the full fault-model sweep (crash, torn,
# EIO, ENOSPC, partial fsync at every I/O op — zero silent corruption
# allowed), offline scrub throughput over a checkpointed register, and
# the WAL-compaction replay-time payoff.  Writes BENCH_robustness.json;
# fails on any silently-wrong recovery or a compaction reduction < 3x.
bench-robustness:
	python benchmarks/robustness_bench.py --quick --out BENCH_robustness.json

# The crash-consistency suite: fault-injection sweeps over every I/O
# operation plus the fault-tolerant parallel scoring tests.
test-faults:
	pytest tests/docstore/test_faults.py tests/docstore/test_wal.py tests/core/test_fault_tolerance.py tests/docstore/test_oracles.py

# The chaos suite: everything test-faults runs plus the scrubber,
# quarantine and repair tests.
test-chaos:
	pytest tests/docstore/test_faults.py tests/docstore/test_wal.py tests/docstore/test_scrub.py tests/docstore/test_storage.py tests/core/test_fault_tolerance.py tests/docstore/test_oracles.py

# Run every example end to end (a few minutes total).
examples:
	python examples/quickstart.py
	python examples/customize_and_evaluate.py
	python examples/unsound_clusters.py
	python examples/reproducibility.py
	python examples/baseline_generators.py
	python examples/company_register.py
	python examples/augment_with_pollution.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
