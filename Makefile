# Convenience wrappers around dune; `make test` is the tier-1 gate.

.PHONY: all check test test-fast perfbench bench bench-modarith bench-obs bench-setup bench-serve bench-scale bench-telemetry bench-trajectory faults frontier serve-smoke clean

all:
	dune build

# Tier-1: full build + full test suite (the CI gate).
test:
	dune build && dune runtest

# Everything in one command: build, full tests, and every self-test —
# the modular-arithmetic kernel smoke, the setup-path smoke (gated prime
# search cross-checked against the reference pipeline), the soundness
# frontier smoke (search-dominates-registry assertion), the run-log
# inspector's embedded v2/v3 samples, the tracing layer's
# zero-cost-when-disabled bound, and the verification-service smoke
# (daemon round-trip with a forced worker kill + torn-tail recovery),
# the telemetry-plane smoke (ledger exactness, trace stitching, torn
# frame drill), and the committed-benchmark trajectory table.
check:
	dune build && dune runtest && \
	dune exec bench/modarith/main.exe -- --smoke -o /dev/null && \
	dune exec bench/setup/main.exe -- --smoke -o /dev/null && \
	dune exec bench/frontier/main.exe -- --smoke -o /dev/null && \
	dune exec bin/ids_inspect.exe -- --self-test && \
	dune exec bench/obs/main.exe -- --smoke && \
	dune exec bench/serve/main.exe -- --smoke && \
	dune exec bench/scale/main.exe -- --smoke -o /dev/null && \
	dune exec bench/telemetry/main.exe -- --smoke && \
	dune exec bin/ids_inspect.exe -- --bench-summary .

# Same suite with Monte Carlo trial budgets cut down via IDS_TRIALS_SCALE.
test-fast:
	dune build @runtest-fast

# The repository benchmark (BENCHMARK.json, perfbench/): a 5 s untraced
# run of each workload at seed 1, printing each result object, then
# apihash_scale once more with IDS_DOMAINS=1 so the single-domain path of
# its chunked passes stays exercised end to end. Fails if a run prints no
# result or any result reports "correct": false.
PERFBENCH_WORKLOADS = apihash_scale trials_sym_dam serve_mix
PERFBENCH_CORRECT = python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)'

perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
	  line=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	  echo "$$w $$line"; \
	  echo "$$line" | $(PERFBENCH_CORRECT) || { echo "perfbench: $$w did not pass its output checks" >&2; exit 1; }; \
	done; \
	line=$$(IDS_DOMAINS=1 python3 perfbench/run.py --workload apihash_scale --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	echo "apihash_scale (IDS_DOMAINS=1) $$line"; \
	echo "$$line" | $(PERFBENCH_CORRECT) || { echo "perfbench: apihash_scale on one domain did not pass its output checks" >&2; exit 1; }

# Regenerate the EXPERIMENTS.md tables (plus the JSON run log ids_runs.jsonl).
# IDS_DOMAINS / IDS_TRIALS_SCALE / IDS_RUNLOG tune workers, budgets, log path.
bench:
	dune exec bench/main.exe -- tables

# Modular-arithmetic kernel microbenchmark: naive Modarith vs the
# Montgomery/Barrett contexts. Regenerates BENCH_modarith.json.
bench-modarith:
	dune exec bench/modarith/main.exe

# Tracing-layer overhead assertion: measures the disabled-path cost of
# every instrumentation primitive and fails if one Protocol 2 run's worth
# exceeds 2% of the run itself.
bench-obs:
	dune exec bench/obs/main.exe

# Setup-path benchmark: sieve-gated prime search vs the reference pipeline
# per protocol interval, plus end-to-end dSym trial setup at n=24.
# Regenerates BENCH_setup.json and asserts the speedup targets.
bench-setup:
	dune exec bench/setup/main.exe

# Fast fault-sweep smoke: E13 (degradation curves) with reduced trial
# budgets and no run log. IDS_FAULT_SPEC adds one custom grid point.
faults:
	IDS_TRIALS_SCALE=0.2 IDS_RUNLOG= dune exec bench/main.exe -- faults

# E17: the empirical soundness frontier — grid search over the cheat
# strategy space per protocol, compared against the registry adversaries
# and the analytic bounds. Regenerates BENCH_frontier.json (fixed trial
# budgets, bit-identical across IDS_DOMAINS).
frontier:
	dune exec bench/frontier/main.exe

# E18 smoke: boot the ids-serve daemon, run a handful of requests through
# forked workers (one with a forced mid-request kill, recovered by retry),
# assert bit-identity against the in-process engine and a clean SIGTERM
# drain, then the torn-tail recovery drill on the framed run log.
serve-smoke:
	dune exec bench/serve/main.exe -- --smoke

# E19: the million-node scale run — degree-4 sparse expander through the
# spanning-tree PLS and the streamed Section 4 eps-API hash, end to end,
# with nodes/sec and peak RSS. Regenerates BENCH_scale.json. --smoke
# (n = 10^4, also wired into @runtest-fast and `make check`) adds the
# peak-RSS bound and the dense/sparse bit-identity assertion.
bench-scale:
	dune exec bench/scale/main.exe

# E18 full chaos bench: 60 requests under a 10% seeded worker-kill schedule
# plus forced kills, the shed-at-the-bound burst phase, and the kill -9
# torn-tail drill. Regenerates BENCH_serve.json and asserts 100%
# availability of accepted requests with every record bit-identical.
bench-serve:
	dune exec bench/serve/main.exe

# E20 full telemetry bench: chaos workload with the telemetry plane on —
# the server-folded ledger must equal the in-process oracle's net-bit sums
# exactly with every counted gap accounted for, the merged Chrome trace
# must stitch spans from server and worker pids under shared trace ids,
# and the enabled-path overhead must stay under 3% of the E18-style
# throughput run. Regenerates BENCH_telemetry.json.
bench-telemetry:
	dune exec bench/telemetry/main.exe

# The benchmark trajectory: one headline line per committed BENCH_*.json,
# rendered by the run-log inspector (parse failure = non-zero exit, so a
# malformed committed benchmark fails `make check`).
bench-trajectory:
	dune exec bin/ids_inspect.exe -- --bench-summary .

clean:
	dune clean
