#!/bin/sh
# Tier-1 verification gate (same sequence as `make verify`):
# vet + build + full tests, then race coverage on the engine paths,
# then the shard-merge and cache cold/warm round-trip gates on the real
# CLI.
set -eux

# gate PKG REGEX [FLAGS...] runs `go test FLAGS -run REGEX PKG` through
# scripts/gate.sh, which first fails if any |-separated name in REGEX is
# not a test of PKG, so a renamed or deleted test cannot disarm its gate.
gate() {
	sh "$(dirname "$0")/gate.sh" "$@"
}

# exists PKG REGEX is gate's name check alone, for tests that a wider
# line of this script already runs with the same flags and environment.
exists() {
	sh "$(dirname "$0")/tests-exist.sh" "$@"
}

go vet ./...
go build ./...
go test ./...
# Every engine and fl test under -race, the gates named below included
# (no test of either package reads testing.Short).
go test -race ./internal/engine/... ./internal/fl/...
# Experiments fan-out under -race: the grid runner with nested engine
# use inside every cell, the cache's concurrent write-backs, and (short
# mode: f64 only) the computation-sharing soundness test, whose grid
# store has cells on different lanes reading one synthesized dataset.
gate ./internal/experiments/ 'TestConcurrentFanOutSmoke|TestCacheConcurrentFanOutSmoke|TestSharedComputationSound' -race -short

# Work-stealing scheduler gate (run by the -race line above): the
# nested determinism matrix (saturated For/ForWorker at worker counts
# 1/2/4/8 bit-identical to sequential), plus the steal-proof and
# sibling-grid stress tests.
exists ./internal/engine/ 'TestNestedDeterminismMatrix|TestStealVsInlineEquivalence|TestStealIntoSaturatedNestedFor|TestStealWakeForLateNestedJob|TestConcurrentSiblingGridsRace'

# Key-codec fuzz seeds (run by `go test ./...` above, which replays the
# corpus only; `make fuzz` runs the fuzzing engine proper). The corpus
# covers both the legacy 7-field keys and the long-form 10-field
# Byzantine keys (attack, fraction, merge rule), including the malformed
# 8/9-field and non-canonical all-zero long-form shapes.
exists ./internal/experiments/ 'FuzzParseCellKey|TestCellKeyPropertyRoundTrip'

# Virtual-client gates (run by the -race line above, like every fl gate
# below): RunVirtual over the lazy ClientPool must reproduce the result
# digests pinned from the retired eager fleet for every aggregator at
# worker counts 1/2/4/8 (including the duplicate-selection safety net
# and empty-shard eligibility), and a million-client K=10 run must keep
# its live state O(K). The
# flat-peak-memory record itself (1e6 vs 100 clients within 2x) is
# asserted by TestEngineBenchJSON in the full `go test ./...` above and
# emitted into BENCH_engine.json by `make bench-smoke`.
exists ./internal/fl/ 'TestVirtualMatchesEagerBitIdentical|TestRunVirtualDuplicateSelection|TestClientPoolSkipsEmptyShards|TestRunVirtualMillionClients|TestSingleSetHonorsWorkers|TestEvaluatorWarmEvalAllocFree'

# Async round-engine determinism gate: the instant-arrival trace (zero
# latency, no drops, staleness weight 1) must reproduce the pinned
# digests for every aggregator at worker counts 1/2/4/8, a seeded
# straggler/dropout trace must replay byte-identically across worker
# counts, partial rounds must stay deterministic, and a client whose
# update straddles server versions must resume its per-identity RNG
# stream exactly.
exists ./internal/fl/ 'TestAsyncDegenerateMatchesRunVirtual|TestAsyncSeededTraceReproducible|TestAsyncPartialRounds|TestClientPoolStraddlingResume|TestAsyncStarvationReturnsError'

# Byzantine attack-determinism gate: a seeded sign-flip cohort must
# replay bitwise across worker counts 1/2/4/8 (plus the f32 twin and the
# straggler-trace composition) and, merged by the median, reproduce its
# pinned digest, the zero-value attack/merger/quarantine configuration
# must reproduce the benign run byte for byte, every robust merger must
# be pool-width-invariant and keep its pinned outputs on
# NaN-payload/±0/±Inf cohorts, every merge entry must panic on a
# wrong-width, mixed or weightless cohort, and a NaN-uploading fleet
# must finish with quarantine counts instead of a poisoned global model.
exists ./internal/fl/ 'TestAttackSeededBitIdenticalAcrossWorkers|TestSignFlipMedianPinned|TestAttackDegenerateByteIdentity|TestAttackAsyncTraceReproducible|TestAttackF32AcrossWorkers|TestMergerPoolWidthInvariance|TestWeightedMergeMatchesAggregate|TestRobustMergersSpecialValues|TestWrongWidthCohortsPanic|TestQuarantineNaNRunCompletes'

# Benign byte-identity across the merge-seam refactor (run by `go test
# ./...` above): figure6 rendered cold, warm (0 cache misses) and with
# the explicit weighted merge rule must be byte-for-byte the zero-value
# output.
exists ./internal/experiments/ 'TestBenignOutputsUnchangedByRefactor|TestByzantineGrid'

# Compute-kernel gates (run by `go test ./...` above): the blocked/register-tiled GEMM kernels (every
# backend in the host's fallback chain — avx512/avx/neon and pure-Go —
# all three transpose variants, and the pool-hook stripe fan-out) must
# be BIT-identical to the naive reference loops, on NaN-poisoned
# packing scratch and over the paper's edge-heavy shapes; the packers
# must zero-fill the padding of partial edge tiles, and a non-finite
# value in one row/column must reach only that row/column of C. Tiles
# read in place from the operands (both widths) must match too, on
# NaN-fenced operand views whose capacity is also clipped to their
# length, over shapes on both sides of the in-place rule. Same
# bit-identity for the SIMD elementwise kernels, and warm GEMMs (incl.
# a batch-10 edge-heavy product) and a warm arena-backed train step
# (dense and conv stacks, full and parameter-only backward) must
# perform zero heap allocations; the parameter-only backward must give
# the full backward's gradients bit for bit.
exists ./internal/tensor/ 'TestBlockedBitIdentity|TestPackPadsEdgeTiles|TestBlockedEdgeNonFiniteConfined|TestParallelStripesBitIdentical|TestKernelScratchReuse|TestEdgeGEMMAllocs|TestElemwiseBitIdentity|TestBackendsChain|TestInPlaceOperandsFenced|TestInPlaceOperandsFenced32'
exists ./internal/nn/ 'TestTrainStepAllocsDense|TestTrainStepAllocsConv|TestScratchPathMatchesPlain|TestBackwardParamsMatchesFull'

# The 4-wide avx tiles move the in-place rule's boundary (batch 10 is
# three row tiles there, two on avx512): run the in-place gate with
# avx forced as the widest tier, on hosts that have it.
if [ "$(go env GOARCH)" = amd64 ] && grep -qw avx /proc/cpuinfo 2>/dev/null; then
	export TENSOR_BACKEND=avx
	gate ./internal/tensor/ 'TestBackendHonorsEnv|TestInPlaceOperandsFenced|TestInPlaceOperandsFenced32|TestBlockedBitIdentity'
	unset TENSOR_BACKEND
else
	echo "verify: host has no AVX; skipping the TENSOR_BACKEND=avx in-place gate" >&2
fi

# The kernel glue is per GOARCH and the NEON tile cannot run here: vet
# the arm64 build of the tensor package (asm frame/argument checks
# included) so a kernel signature change cannot break it unseen.
GOARCH=arm64 go vet ./internal/tensor/

# DRL agent gates (run by `go test ./...` above): a warm Agent.Train
# step on its scratch arenas makes zero heap allocations, and the
# batched TD reprioritize reproduces the per-experience QValue path's
# priorities and buffer order bit for bit.
exists ./internal/core/ 'TestAgentTrainAllocs|TestReprioritizeBatchedMatchesPerExperience'

# Forced-generic gate: the same bit-identity and edge-tile suites with
# every SIMD tier disabled via the TENSOR_BACKEND override, proving the
# pure-Go kernels stand alone (and that the override is honored end to
# end).
export TENSOR_BACKEND=generic
gate ./internal/tensor/ 'TestBlockedBitIdentity|TestPackPadsEdgeTiles|TestBlockedEdgeNonFiniteConfined|TestEdgeGEMMAllocs|TestElemwiseBitIdentity|TestParallelStripesBitIdentical|TestBackendHonorsEnv|TestInPlaceOperandsFenced|TestInPlaceOperandsFenced32'
unset TENSOR_BACKEND

# Float32 kernel gates (run by `go test ./...` above): the f32
# GEMM/elemwise kernels must be bit-identical to their naive f32
# references on every backend in the host's chain (the suite forces each
# tier itself), including the non-finite special-value sweep and the
# f64↔f32 conversion round trip — and the same suite must hold with
# every SIMD tier disabled.
exists ./internal/tensor/ 'TestBlocked32BitIdentity|TestBlocked32SpecialValues|TestElemwise32BitIdentity|TestParallelStripes32BitIdentical|TestIm2Col32MatchesFloat64|TestWidenQuantizeRoundTrip|TestKernelScratchReuse32'
export TENSOR_BACKEND=generic
gate ./internal/tensor/ 'TestBlocked32BitIdentity|TestBlocked32SpecialValues|TestElemwise32BitIdentity|TestParallelStripes32BitIdentical'
unset TENSOR_BACKEND

# Float32 precision-mode determinism gate (run by the -race line above):
# an F32 run must reproduce the digests pinned from the eager fleet at
# worker counts 1/2/4/8, through RunVirtual and the instant-arrival
# async trace alike, be bit-identical across kernel backends, the f32
# merge must be pool-width-invariant, and the global model must stay on
# the float32 lattice. The -precision CLI surface rides the cmd test suites in the
# full `go test ./...` above.
exists ./internal/fl/ 'TestF32EagerVirtualBitIdentical|TestF32AsyncDegenerateMatchesVirtual|TestF32BitIdenticalAcrossBackends|TestF32GlobalStaysOnLattice|TestAggregateF32PoolInvariance'

# Shard-merge round trip: running Table 3 as two shards and merging the
# artifact files must reproduce the unsharded output byte for byte
# (modulo the one-line timing header, which `tail -n +2` strips).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/tables" ./cmd/tables
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 | tail -n +2 > "$tmp/unsharded.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -shard 1/2 -out "$tmp/shards/s1.art"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -shard 2/2 -out "$tmp/shards/s2.art"
"$tmp/tables" -merge "$tmp/shards" | tail -n +2 > "$tmp/merged.txt"
diff "$tmp/unsharded.txt" "$tmp/merged.txt"

# Cache cold/warm byte-identity: a cold run against an empty cache must
# match the uncached run, and a warm rerun must load every cell from
# the cache (its stderr summary reports 0 misses) while rendering the
# identical bytes.
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/cold.err" | tail -n +2 > "$tmp/cold.txt"
diff "$tmp/unsharded.txt" "$tmp/cold.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/warm.err" | tail -n +2 > "$tmp/warm.txt"
diff "$tmp/cold.txt" "$tmp/warm.txt"
grep -q ' 0 misses' "$tmp/warm.err"

# Cache GC: a maintenance pass over a healthy cache prunes nothing, and
# the cache still serves every cell afterwards.
"$tmp/tables" -cache-gc -cache "$tmp/cells" 2> "$tmp/gc.err"
grep -q 'pruned 0 stale' "$tmp/gc.err"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -cache "$tmp/cells" 2> "$tmp/postgc.err" | tail -n +2 > "$tmp/postgc.txt"
diff "$tmp/cold.txt" "$tmp/postgc.txt"
grep -q ' 0 misses' "$tmp/postgc.err"

# Byzantine CLI smoke: the attack × merger grid renders, and the benign
# spellings of the new flags (-attack none -merger weighted) are
# canonicalized — byte-identical output AND the same cache addresses as
# the flagless run (0 misses against the cache written above), so
# pre-existing cached cells stay valid.
"$tmp/tables" -exp byzantine -scale ci -rounds 2 -seed 1 | tail -n +2 > "$tmp/byz.txt"
grep -q 'signflip 40%' "$tmp/byz.txt"
"$tmp/tables" -exp table3 -scale ci -rounds 2 -seed 1 -attack none -merger weighted -cache "$tmp/cells" 2> "$tmp/benign.err" | tail -n +2 > "$tmp/benign.txt"
diff "$tmp/cold.txt" "$tmp/benign.txt"
grep -q ' 0 misses' "$tmp/benign.err"
