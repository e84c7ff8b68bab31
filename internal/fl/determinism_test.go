package fl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The determinism suite: the engine's parallel paths (client fan-out,
// chunked evaluation, segment-parallel aggregation) must be bit-identical
// to the sequential reference for every aggregator, at every worker
// count. "Bit-identical" is literal — float64 == on every weight and
// every recorded metric.

// detFederation builds a small non-IID federation shared by the
// determinism cases.
func detFederation(t testing.TB, seed uint64) (clients *ClientPool, test *dataset.Dataset, cfg RunConfig) {
	t.Helper()
	tr, te := dataset.Synthesize(dataset.MNISTSim().Scaled(0.12), seed)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	assign := partition.ClusteredEqual(tr, 6, 0.6, 2, 3, rng.New(seed+1))
	cfg = RunConfig{
		Rounds:    4,
		K:         4,
		Local:     LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
		Factory:   f,
		Seed:      seed + 2,
		EvalEvery: 1,
	}
	return NewClientPool(tr, IndexPartition(assign.ClientIndices), f, seed+3), te, cfg
}

// detAggregators returns fresh aggregator instances (FedDRL is stateful,
// so every run needs its own agent).
func detAggregators(k int, seed uint64) map[string]func() Aggregator {
	return map[string]func() Aggregator{
		"FedAvg":  func() Aggregator { return FedAvg{} },
		"FedProx": func() Aggregator { return FedProx{} },
		"FedDRL": func() Aggregator {
			drl := core.DefaultConfig(k)
			drl.Hidden = 16
			drl.BatchSize = 8
			drl.WarmupExperiences = 2
			drl.UpdatesPerRound = 1
			drl.BufferCap = 64
			drl.Seed = seed + 9
			return NewFedDRL(core.NewAgent(drl))
		},
	}
}

// stripTimings zeroes the wall-clock fields, the only Result content
// legitimately allowed to differ between runs.
func stripTimings(r *Result) *Result {
	for i := range r.Rounds {
		r.Rounds[i].DecisionTime = 0
		r.Rounds[i].AggTime = 0
	}
	return r
}

// TestRunBitIdenticalAcrossWorkers is the archetype test: RunVirtual with
// Workers ∈ {1, 2, 3, GOMAXPROCS} produces byte-for-byte the same
// Result (final weights, accuracy series, client-loss statistics) as
// the sequential path, for all three aggregators.
func TestRunBitIdenticalAcrossWorkers(t *testing.T) {
	const seed = 11
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for name, mkAgg := range detAggregators(4, seed) {
		t.Run(name, func(t *testing.T) {
			runAt := func(workers int) *Result {
				clients, test, cfg := detFederation(t, seed)
				if name == "FedProx" {
					cfg.Local.ProxMu = 0.01
				}
				cfg.Workers = workers
				return stripTimings(RunVirtual(cfg, clients, test, mkAgg()))
			}
			ref := runAt(1)
			if len(ref.Weights) == 0 {
				t.Fatal("reference run recorded no final weights")
			}
			for _, w := range workerCounts[1:] {
				got := runAt(w)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("Workers=%d Result differs from sequential", w)
				}
				for i := range ref.Weights {
					if math.Float64bits(ref.Weights[i]) != math.Float64bits(got.Weights[i]) {
						t.Fatalf("Workers=%d: weight %d differs bitwise: %x vs %x",
							w, i, math.Float64bits(ref.Weights[i]), math.Float64bits(got.Weights[i]))
					}
				}
			}
		})
	}
}

// TestRunSharedPool runs on a caller-owned engine pool (the experiments
// grid configuration) and checks the result still matches sequential.
func TestRunSharedPool(t *testing.T) {
	const seed = 17
	clients, test, cfg := detFederation(t, seed)
	ref := stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))

	pool := engine.New(3)
	defer pool.Close()
	clients2, test2, cfg2 := detFederation(t, seed)
	cfg2.Pool = pool
	got := stripTimings(RunVirtual(cfg2, clients2, test2, FedAvg{}))
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("shared-pool Result differs from sequential")
	}
}

// dupSelector violates the Selector contract on purpose: it returns the
// same client twice, which must force the round loop onto the
// sequential fallback instead of racing two lanes on one client.
type dupSelector struct{}

func (dupSelector) Name() string { return "dup" }
func (dupSelector) Select(round, k int, pop Population, r *rng.RNG) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i % 2
	}
	return out
}

func TestRunDuplicateSelectionFallsBackSequential(t *testing.T) {
	const seed = 19
	run := func(workers int) *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Selector = dupSelector{}
		cfg.Workers = workers
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("duplicate-selection run differs across worker counts")
	}
}

// resultDigest is an FNV-64a digest of a Result: the method name, every
// recorded metric of every round and the final weights, all as exact
// bits.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(x float64) { put(math.Float64bits(x)) }
	h.Write([]byte(r.Method))
	put(uint64(r.NumParam))
	for _, m := range r.Rounds {
		put(uint64(m.Round))
		if m.Evaluated {
			put(1)
		} else {
			put(0)
		}
		f(m.TestAcc)
		f(m.TestLoss)
		f(m.ClientLossMean)
		f(m.ClientLossVar)
		f(m.ClientLossMax)
		f(m.ClientLossMin)
		put(uint64(m.Quarantined))
		put(uint64(m.DecisionTime))
		put(uint64(m.AggTime))
	}
	for _, w := range r.Weights {
		f(w)
	}
	for _, a := range r.Accuracy {
		f(a)
	}
	for _, a := range r.AccRounds {
		put(uint64(a))
	}
	return h.Sum64()
}

// roundLoopPins are digests of stripTimings(Result) on detFederation(11),
// recorded from the materialized-fleet ("eager") round loop that the one
// RunAsync loop replaced. Keys are aggregator/precision/selector, plus
// one sign-flip cohort under the coordinate-wise median. The digests are
// identical on every kernel backend.
var roundLoopPins = map[string]uint64{
	"FedAvg/f32/dup":      0xe7be3af5c217b13b,
	"FedAvg/f32/uniform":  0xcb19e699f6b64cfe,
	"FedAvg/f64/dup":      0x71135a2327f6498b,
	"FedAvg/f64/uniform":  0xb079882071ca5c82,
	"FedDRL/f32/dup":      0x5ecc4f891c4afb56,
	"FedDRL/f32/uniform":  0xc543fa8b54174537,
	"FedDRL/f64/dup":      0x50aa260a77232ae2,
	"FedDRL/f64/uniform":  0x79c267778ce52e26,
	"FedProx/f32/dup":     0xf6e86975c95ae0de,
	"FedProx/f32/uniform": 0x95081d885841494f,
	"FedProx/f64/dup":     0x1bdb1fc66879156e,
	"FedProx/f64/uniform": 0x5db0046315d01f5b,
	"signflip-median":     0x36595a80ba755fbe,
}

const pinSeed = 11

// pinAggs names the aggregators of detAggregators in a fixed order.
var pinAggs = []string{"FedAvg", "FedProx", "FedDRL"}

// pinWorkers are the engine widths every pinned case is replayed at.
var pinWorkers = []int{1, 2, 4, 8}

// pinCase is one pinned configuration of detFederation(pinSeed).
type pinCase struct {
	key   string
	agg   func() Aggregator
	tweak func(*RunConfig)
}

// aggPin is the pinned case for aggregator name at prec, under the
// contract-violating dupSelector when dup.
func aggPin(name string, prec Precision, dup bool) pinCase {
	sel := "uniform"
	if dup {
		sel = "dup"
	}
	return pinCase{
		key: name + "/" + string(prec) + "/" + sel,
		agg: detAggregators(4, pinSeed)[name],
		tweak: func(c *RunConfig) {
			if name == "FedProx" {
				c.Local.ProxMu = 0.01
			}
			c.Precision = prec
			if dup {
				c.Selector = dupSelector{}
			}
		},
	}
}

// runner is a round-loop entry under test.
type runner func(RunConfig, *ClientPool, *dataset.Dataset, Aggregator) *Result

// instantAsync runs RunAsync with zero-value async fields and asserts
// that instant arrivals produced no async effects: nothing dropped,
// nothing stale, the virtual clock at 0.
func instantAsync(t *testing.T) runner {
	return func(cfg RunConfig, clients *ClientPool, test *dataset.Dataset, agg Aggregator) *Result {
		ar := mustAsync(RunAsync(AsyncConfig{RunConfig: cfg}, clients, test, agg))
		for _, m := range ar.Async {
			if m.Dropped != 0 || m.MeanStaleness != 0 || m.MaxStaleness != 0 || m.VirtualTime != 0 || m.Arrived != m.Dispatched {
				t.Fatalf("instant arrivals produced async effects: %+v", m)
			}
		}
		return ar.Result
	}
}

// assert replays c through run at every pinWorkers width and requires
// the pinned digest — every weight bit and every metric.
func (c pinCase) assert(t *testing.T, run runner) {
	t.Helper()
	want, ok := roundLoopPins[c.key]
	if !ok {
		t.Fatalf("no pin for %s", c.key)
	}
	for _, workers := range pinWorkers {
		clients, test, cfg := detFederation(t, pinSeed)
		cfg.Workers = workers
		c.tweak(&cfg)
		if got := resultDigest(stripTimings(run(cfg, clients, test, c.agg()))); got != want {
			t.Fatalf("%s Workers=%d: digest %#016x, pinned %#016x", c.key, workers, got, want)
		}
	}
}

// TestVirtualMatchesEagerBitIdentical: RunVirtual reproduces the eager
// fleet's pinned f64 results for all three aggregators at every width.
func TestVirtualMatchesEagerBitIdentical(t *testing.T) {
	for _, name := range pinAggs {
		t.Run(name, func(t *testing.T) { aggPin(name, F64, false).assert(t, RunVirtual) })
	}
}

// TestF32EagerVirtualBitIdentical is the same pin under F32.
func TestF32EagerVirtualBitIdentical(t *testing.T) {
	for _, name := range pinAggs {
		t.Run(name, func(t *testing.T) { aggPin(name, F32, false).assert(t, RunVirtual) })
	}
}

// TestRunVirtualDuplicateSelection: a Selector that returns duplicates
// pushes the loop onto the sequential safety net, where the second
// occurrence of an identity resumes the RNG stream its first occurrence
// advanced — pinned at both widths, identically at every worker count.
func TestRunVirtualDuplicateSelection(t *testing.T) {
	for _, name := range pinAggs {
		for _, prec := range []Precision{F64, F32} {
			aggPin(name, prec, true).assert(t, RunVirtual)
		}
	}
}

// TestAsyncDegenerateMatchesRunVirtual: a zero-value RunAsync reproduces
// the pinned f64 results, uniform and duplicate selection alike.
func TestAsyncDegenerateMatchesRunVirtual(t *testing.T) {
	for _, name := range pinAggs {
		t.Run(name, func(t *testing.T) {
			aggPin(name, F64, false).assert(t, instantAsync(t))
			aggPin(name, F64, true).assert(t, instantAsync(t))
		})
	}
}

// TestF32AsyncDegenerateMatchesVirtual is the same pin under F32.
func TestF32AsyncDegenerateMatchesVirtual(t *testing.T) {
	for _, name := range pinAggs {
		aggPin(name, F32, false).assert(t, instantAsync(t))
		aggPin(name, F32, true).assert(t, instantAsync(t))
	}
}

// TestSignFlipMedianPinned: a seeded sign-flip cohort merged by the
// coordinate-wise median reproduces its pinned result through both
// entries.
func TestSignFlipMedianPinned(t *testing.T) {
	c := pinCase{
		key: "signflip-median",
		agg: func() Aggregator { return FedAvg{} },
		tweak: func(c *RunConfig) {
			c.Attack = SignFlip{ByzantineSet: ByzantineSet{Frac: 0.4}}
			c.AttackSeed = 99
			c.Merger = Median{}
		},
	}
	c.assert(t, RunVirtual)
	c.assert(t, instantAsync(t))
}

// TestEvaluatorMatchesEvalLossAcc checks the chunk-parallel evaluator
// against the sequential kernel, bitwise, across worker counts and
// dataset sizes that exercise partial final chunks.
func TestEvaluatorMatchesEvalLossAcc(t *testing.T) {
	tr, _ := tinyData(t, 23)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	model := f(5)
	global := model.ParamVector()
	for _, n := range []int{1, 3, evalChunk - 1, evalChunk, evalChunk + 1, tr.N} {
		d := tr.Subset(seqIndices(n))
		wantLoss, wantAcc := EvalLossAcc(model, d)
		for _, workers := range []int{1, 2, 4} {
			pool := engine.New(workers)
			ev := NewEvaluator(f, 5, pool)
			gotLoss, gotAcc := ev.Eval(global, d)
			pool.Close()
			if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) ||
				math.Float64bits(wantAcc) != math.Float64bits(gotAcc) {
				t.Fatalf("n=%d workers=%d: evaluator (%v, %v) != sequential (%v, %v)",
					n, workers, gotLoss, gotAcc, wantLoss, wantAcc)
			}
		}
	}
}

// TestEvalLossAccMatchesNaive cross-checks the chunked kernel against a
// per-sample reference implementation (a different summation order, so
// tolerance-based).
func TestEvalLossAccMatchesNaive(t *testing.T) {
	tr, _ := tinyData(t, 29)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	model := f(6)
	gotLoss, gotAcc := EvalLossAcc(model, tr)
	wantLoss, wantAcc := naiveEvalLossAcc(model, tr)
	if math.Abs(gotLoss-wantLoss) > 1e-9 || math.Abs(gotAcc-wantAcc) > 1e-12 {
		t.Fatalf("chunked (%v, %v) vs naive (%v, %v)", gotLoss, gotAcc, wantLoss, wantAcc)
	}
}

// naiveEvalLossAcc is the obvious one-sample-at-a-time reference.
func naiveEvalLossAcc(m *nn.Network, d *dataset.Dataset) (loss, acc float64) {
	ce := nn.NewCrossEntropy()
	totalLoss, correct := 0.0, 0.0
	for i := 0; i < d.N; i++ {
		x := tensorFromSample(d, i)
		l, a := ce.Eval(m.Forward(x, false), d.Y[i:i+1])
		totalLoss += l
		correct += a
	}
	return totalLoss / float64(d.N), correct / float64(d.N)
}

// TestAggregateOnMatchesSequential checks the segment-parallel merge
// bitwise against both Aggregate and a naive double-loop reference, at
// dimensions spanning multiple segments.
func TestAggregateOnMatchesSequential(t *testing.T) {
	r := rng.New(31)
	for _, dim := range []int{1, 100, aggSegment, aggSegment + 1, 3*aggSegment + 17} {
		const k = 5
		ups := make([]Update, k)
		for i := range ups {
			w := make([]float64, dim)
			for j := range w {
				w[j] = r.Norm()
			}
			ups[i] = Update{N: 10 * (i + 1), Weights: w}
		}
		alpha := (FedAvg{}).ImpactFactors(0, ups)
		want := Aggregate(ups, alpha)
		naive := naiveAggregate(ups, alpha)
		for _, workers := range []int{2, 4} {
			pool := engine.New(workers)
			got := AggregateOn(ups, alpha, pool)
			pool.Close()
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
					t.Fatalf("dim=%d workers=%d: element %d differs from Aggregate", dim, workers, j)
				}
				if math.Float64bits(want[j]) != math.Float64bits(naive[j]) {
					t.Fatalf("dim=%d: element %d differs from naive reference", dim, j)
				}
			}
		}
	}
}

// naiveAggregate folds updates in the same k-order as the production
// kernel, one element at a time.
func naiveAggregate(updates []Update, alpha []float64) []float64 {
	out := make([]float64, len(updates[0].Weights))
	for k, u := range updates {
		for j, w := range u.Weights {
			out[j] += alpha[k] * w
		}
	}
	return out
}

// seqIndices returns [0, 1, ..., n).
func seqIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tensorFromSample wraps sample i as a 1×Dim batch.
func tensorFromSample(d *dataset.Dataset, i int) *tensor.Tensor {
	return tensor.FromSlice(d.Sample(i), 1, d.Dim)
}
