package fl

import (
	"math"
	"reflect"
	"testing"

	"feddrl/internal/engine"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// The f32 precision-mode suite: RunConfig.Precision = F32 must honor
// the same determinism contract as every other mode — bit-identical
// across worker counts and across kernel backends — while halving the
// update wire size.

// TestF32BitIdenticalAcrossBackends forces each kernel tier in the
// host's fallback chain and requires byte-for-byte the same f32-mode
// Result from every one — the half-width twin of the backend-invariance
// guarantee.
func TestF32BitIdenticalAcrossBackends(t *testing.T) {
	const seed = 29
	orig := tensor.KernelBackend()
	defer func() {
		if err := tensor.SetBackend(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	}()
	runOnce := func() *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Workers = 2
		cfg.Precision = F32
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	var ref *Result
	var refName string
	for _, name := range tensor.Backends() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatalf("SetBackend(%q): %v", name, err)
		}
		got := runOnce()
		if ref == nil {
			ref, refName = got, name
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("f32 Result differs between backends %q and %q", refName, name)
		}
	}
}

// TestF32GlobalStaysOnLattice: the F32 run's reported weights must all
// be exactly float32-representable (the lattice invariant that makes
// Quantize∘Widen the identity), and the mode must actually engage —
// an F32 run differs from the F64 run of the same federation.
func TestF32GlobalStaysOnLattice(t *testing.T) {
	const seed = 31
	runAt := func(prec Precision) *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Precision = prec
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	f32 := runAt(F32)
	for i, w := range f32.Weights {
		if float64(float32(w)) != w && !math.IsNaN(w) {
			t.Fatalf("weight %d = %v is off the float32 lattice", i, w)
		}
	}
	f64 := runAt(F64)
	same := true
	for i := range f64.Weights {
		if math.Float64bits(f64.Weights[i]) != math.Float64bits(f32.Weights[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("f32 run is bitwise equal to f64 run; precision knob had no effect")
	}
}

// TestAggregateF32PoolInvariance: the segment-parallel f32 merge must be
// bit-identical to the sequential fold at any pool width, including
// dimensions that straddle segment boundaries, and AggregateOn on an
// f32 cohort must return the exact widening of that f32 fold.
func TestAggregateF32PoolInvariance(t *testing.T) {
	for _, dim := range []int{1, aggSegment - 1, aggSegment, aggSegment + 1, 3*aggSegment + 7} {
		updates := make([]Update, 4)
		alpha := []float64{0.1, 0.2, 0.3, 0.4}
		for k := range updates {
			w := make([]float32, dim)
			for i := range w {
				w[i] = float32(math.Sin(float64(i*(k+3)))) * 0.5
			}
			updates[k].Weights32 = w
		}
		want := WeightedMerge{}.Merge32(updates, alpha, nil)
		for _, workers := range []int{0, 2, 3, 8} {
			var pool *engine.Pool
			if workers > 0 {
				pool = engine.New(workers)
			}
			got := WeightedMerge{}.Merge32(updates, alpha, pool)
			wide := AggregateOn(updates, alpha, pool)
			pool.Close()
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("dim=%d workers=%d: element %d differs bitwise", dim, workers, i)
				}
				if math.Float64bits(float64(want[i])) != math.Float64bits(wide[i]) {
					t.Fatalf("dim=%d workers=%d: AggregateOn element %d is not the widened f32 fold", dim, workers, i)
				}
			}
		}
	}
}

// TestAggregateF32Validation: the f32 merge enforces the same impact-
// factor convexity contract as the f64 one.
func TestAggregateF32Validation(t *testing.T) {
	u := []Update{{Weights32: []float32{1, 2}}, {Weights32: []float32{3, 4}}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("alpha length mismatch", func() { Aggregate(u, []float64{1}) })
	mustPanic("negative alpha", func() { Aggregate(u, []float64{-0.5, 1.5}) })
	mustPanic("non-convex alpha", func() { Aggregate(u, []float64{0.9, 0.9}) })
	mustPanic("inconsistent dims", func() {
		Aggregate([]Update{{Weights32: []float32{1}}, {Weights32: []float32{1, 2}}}, []float64{0.5, 0.5})
	})
	mustPanic("missing f32 weights", func() {
		WeightedMerge{}.Merge32([]Update{{Weights: []float64{1}}}, []float64{1}, nil)
	})
}

// TestCommPerRoundF32HalvesWeightBytes: an F32 round's weight payload is
// exactly half the F64 round's; only the fixed-width metadata (sample
// counts, FedDRL losses, staleness tags) stays full-size.
func TestCommPerRoundF32HalvesWeightBytes(t *testing.T) {
	const k, wlen = 10, 5000
	f64 := CommPerRound(FedAvg{}, k, wlen, F64)
	f32 := CommPerRound(FedAvg{}, k, wlen, F32)
	wantDown := k * serialize.VectorWireSize32(wlen)
	if f32.DownlinkBytes != wantDown {
		t.Fatalf("f32 downlink = %d, want %d", f32.DownlinkBytes, wantDown)
	}
	// Per-client payload: header+4n vs header+8n, metadata unchanged.
	savedPerClient := (serialize.VectorWireSize(wlen) - serialize.VectorWireSize32(wlen))
	if f64.UplinkBytes-f32.UplinkBytes != k*savedPerClient {
		t.Fatalf("f32 uplink saves %d bytes, want %d", f64.UplinkBytes-f32.UplinkBytes, k*savedPerClient)
	}
	ratio := float64(f32.DownlinkBytes+f32.UplinkBytes) / float64(f64.DownlinkBytes+f64.UplinkBytes)
	if ratio > 0.55 {
		t.Fatalf("f32 round moves %.3f of f64 bytes, want ≤ 0.55", ratio)
	}
	// The zero Precision is F64.
	if CommPerRound(FedAvg{}, k, wlen, "") != f64 {
		t.Fatal("CommPerRound at the zero precision differs from F64")
	}
	// The async variant narrows identically; staleness metadata stays.
	a64 := CommAsyncRound(FedAvg{}, k, k-2, wlen, F64)
	a32 := CommAsyncRound(FedAvg{}, k, k-2, wlen, F32)
	if a64.UplinkBytes-a32.UplinkBytes != (k-2)*savedPerClient {
		t.Fatal("async f32 uplink saving is not exactly the weight-payload delta")
	}
}

// TestCompress32RoundTrip: f32 top-k compression reconstructs exactly
// at full k, composes with the pool fan-out deterministically, and its
// wire size beats both the dense f32 payload (ratio > 1) and the f64
// sparse encoding at equal k.
func TestCompress32RoundTrip(t *testing.T) {
	const dim = 257
	global := make([]float64, dim)
	for i := range global {
		global[i] = float64(float32(math.Cos(float64(i)))) // on-lattice, like an F32 run
	}
	updates := make([]Update, 3)
	for k := range updates {
		w := make([]float32, dim)
		for i := range w {
			w[i] = float32(global[i]) + float32(k+1)*1e-3*float32(i%7)
		}
		updates[k].Weights32 = w
	}

	// Full-k is lossless bitwise.
	full := CompressUpdatesOn(updates, global, 1.0, nil)
	for k, d := range full {
		if d.Values != nil || len(d.Values32) != dim {
			t.Fatalf("delta %d of an f32 cohort: %d f64 values, %d f32 values", k, len(d.Values), len(d.Values32))
		}
	}
	rec := DecompressUpdates(updates, full, global)
	for k := range updates {
		for i := range updates[k].Weights32 {
			if math.Float32bits(rec[k].Weights32[i]) != math.Float32bits(updates[k].Weights32[i]) {
				t.Fatalf("update %d elem %d not reconstructed bitwise", k, i)
			}
		}
	}

	// Pool fan-out is bit-identical to inline.
	pool := engine.New(4)
	defer pool.Close()
	sparse := CompressUpdatesOn(updates, global, 0.25, nil)
	par := CompressUpdatesOn(updates, global, 0.25, pool)
	if !reflect.DeepEqual(sparse, par) {
		t.Fatal("pooled f32 compression differs from inline")
	}

	// Half-width values shrink the sparse payload vs the f64 encoding.
	d32 := sparse[0]
	d64 := SparseDelta{Dim: d32.Dim, Indices: d32.Indices, Values: make([]float64, len(d32.Values32))}
	if d32.WireSize() >= d64.WireSize() {
		t.Fatalf("f32 sparse wire %d not smaller than f64 sparse wire %d", d32.WireSize(), d64.WireSize())
	}
	if d32.CompressionRatio() <= 1 {
		t.Fatalf("f32 compression ratio %.3f not > 1", d32.CompressionRatio())
	}
}

// TestPrecisionParseValidate pins the CLI-facing surface: spellings,
// the zero-value default, wire widths and the Validate panic.
func TestPrecisionParseValidate(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
	}{{"", F64}, {"f64", F64}, {"f32", F32}} {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted f16")
	}
	if F64.BytesPerWeight() != 8 || F32.BytesPerWeight() != 4 || Precision("").BytesPerWeight() != 8 {
		t.Fatal("BytesPerWeight wrong")
	}
	Precision("").Validate()
	F64.Validate()
	F32.Validate()
	defer func() {
		if recover() == nil {
			t.Fatal("Validate accepted an unknown precision")
		}
	}()
	Precision("f16").Validate()
}
