# Tier-1 verification gate. `make verify` is what CI and pre-merge runs.
GO ?= go

.PHONY: verify vet build test race bench bench-smoke fuzz clean

verify: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage for the engine-facing packages: the worker pool itself,
# the fl round loop's parallel paths, and the experiments grid fan-out
# smoke plus the computation-sharing soundness test (the full
# experiments suite under -race is minutes; these exercise the same
# concurrent machinery, shared datasets included, in well under one).
# The experiments line goes through scripts/gate.sh, which fails if a
# named test no longer exists instead of matching nothing and passing.
race:
	$(GO) test -race ./internal/engine/... ./internal/fl/...
	GO=$(GO) sh scripts/gate.sh ./internal/experiments/ 'TestConcurrentFanOutSmoke|TestCacheConcurrentFanOutSmoke|TestSharedComputationSound' -race -short

bench:
	$(GO) test -bench=Engine -run TestEngineBenchJSON -benchtime=1x .

# One iteration of every engine and compute benchmark (round loop at
# each width, the nested-grid stealing case, blocked/naive GEMM and the
# conv passes): a seconds-long smoke that the benchmark harness itself
# still runs, without the timing reps of `make bench`. Also emits and
# sanity-checks BENCH_engine.json (work-stealing + the million-client
# constant-memory client_scaling record, asserted by TestEngineBenchJSON)
# and BENCH_compute.json (schema + speedup + allocation gates asserted
# by TestComputeBenchJSON). This is the only target that rewrites the
# two tracked records (-update-bench); plain `go test` asserts the same
# gates without touching them.
bench-smoke:
	$(GO) test -bench 'EngineRoundLoop|NestedGridSteal|ComputeGEMM|ComputeConv|ComputeElemwise' -benchtime=1x -run 'TestEngineBenchJSON|TestComputeBenchJSON' . -args -update-bench

# Fuzz the cell-key codec (the identity under artifact files, shard
# assignment and cache addressing) with the native fuzzing engine.
# Plain `go test` / verify.sh only replay the seed corpus.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseCellKey -fuzztime 15s ./internal/experiments/

clean:
	$(GO) clean ./...
