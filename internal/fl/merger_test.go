package fl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"feddrl/internal/engine"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// The merger suite: every Merger must be a pure function of
// (updates, alpha) — bit-identical at any pool width including nil —
// the default WeightedMerge must be byte-identical to the historical
// Aggregate path, and the order-statistic rules must match their naive
// sequential references.

// mergeCohort builds k random updates of the given dimension, plus
// convex sample-count-proportional factors, in both widths.
func mergeCohort(k, dim int, seed uint64) ([]Update, []float64) {
	r := rng.New(seed)
	updates := make([]Update, k)
	alpha := make([]float64, k)
	total := 0.0
	for i := range updates {
		w := make([]float64, dim)
		for c := range w {
			w[c] = r.Norm()
		}
		updates[i] = Update{
			ClientID:  i,
			N:         10 + i,
			Weights:   w,
			Weights32: tensor.Quantize(nil, w),
		}
		alpha[i] = float64(updates[i].N)
		total += alpha[i]
	}
	for i := range alpha {
		alpha[i] /= total
	}
	return updates, alpha
}

// TestWeightedMergeMatchesAggregate: the explicit default merger (and a
// nil Merger through mergeP) must reproduce AggregateOn byte for byte —
// the compatibility contract that keeps historical runs and cached
// cells valid.
func TestWeightedMergeMatchesAggregate(t *testing.T) {
	updates, alpha := mergeCohort(5, 4097, 3)
	want := AggregateOn(updates, alpha, nil)
	for _, got := range [][]float64{
		WeightedMerge{}.Merge(updates, alpha, nil),
		mergeP(F64, nil, updates, alpha, nil),
		mergeP(F64, WeightedMerge{}, updates, alpha, nil),
	} {
		if len(got) != len(want) {
			t.Fatalf("dim %d, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("coordinate %d differs bitwise from Aggregate", i)
			}
		}
	}
}

// TestMedianMerge pins the coordinate-wise median on hand-checked odd
// and even cohorts.
func TestMedianMerge(t *testing.T) {
	mk := func(vals ...float64) Update {
		return Update{Weights: vals, Weights32: tensor.Quantize(nil, vals)}
	}
	odd := []Update{mk(1, -9), mk(5, 0), mk(100, 3)}
	alpha := []float64{0.2, 0.3, 0.5}
	got := Median{}.Merge(odd, alpha, nil)
	if got[0] != 5 || got[1] != 0 {
		t.Fatalf("odd-cohort median = %v, want [5 0]", got)
	}
	even := append(odd, mk(7, 1))
	got = Median{}.Merge(even, []float64{0.25, 0.25, 0.25, 0.25}, nil)
	if got[0] != 6 || got[1] != 0.5 {
		t.Fatalf("even-cohort median = %v, want [6 0.5]", got)
	}
	got32 := Median{}.Merge32(even, []float64{0.25, 0.25, 0.25, 0.25}, nil)
	if got32[0] != 6 || got32[1] != 0.5 {
		t.Fatalf("f32 even-cohort median = %v, want [6 0.5]", got32)
	}
}

// TestTrimmedMeanMerge pins the β-trim on a known cohort and checks the
// clamp that guarantees at least one surviving value.
func TestTrimmedMeanMerge(t *testing.T) {
	updates := []Update{
		{Weights: []float64{-1000}}, {Weights: []float64{1}},
		{Weights: []float64{2}}, {Weights: []float64{3}},
		{Weights: []float64{1000}},
	}
	alpha := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	got := TrimmedMean{Beta: 0.2}.Merge(updates, alpha, nil)
	if got[0] != 2 {
		t.Fatalf("trimmed mean = %v, want 2 (outliers dropped)", got[0])
	}
	// β ≥ 0.5 would trim everything; the clamp must keep the middle.
	got = TrimmedMean{Beta: 0.9}.Merge(updates, alpha, nil)
	if got[0] != 2 {
		t.Fatalf("over-trimmed mean = %v, want 2", got[0])
	}
	for k := 1; k <= 7; k++ {
		for _, beta := range []float64{-1, 0, 0.2, 0.49, 0.5, 3, math.NaN()} {
			n := TrimmedMean{Beta: beta}.trimCount(k)
			if n < 0 || 2*n >= k {
				t.Fatalf("trimCount(β=%v, k=%d) = %d leaves no survivors", beta, k, n)
			}
		}
	}
}

// TestKrumMerge: with one far outlier among a tight benign cluster,
// Krum must select a benign update and return a private copy of it.
func TestKrumMerge(t *testing.T) {
	updates := []Update{
		{ClientID: 0, Weights: []float64{1.0, 1.0}},
		{ClientID: 1, Weights: []float64{1.1, 0.9}},
		{ClientID: 2, Weights: []float64{500, -500}}, // Byzantine
		{ClientID: 3, Weights: []float64{0.9, 1.1}},
		{ClientID: 4, Weights: []float64{1.05, 1.0}},
	}
	alpha := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	got := Krum{F: 1}.Merge(updates, alpha, nil)
	if got[0] > 2 || got[0] < 0 {
		t.Fatalf("Krum selected the outlier: %v", got)
	}
	matched := -1
	for i, u := range updates {
		if u.Weights[0] == got[0] && u.Weights[1] == got[1] {
			matched = i
		}
	}
	if matched < 0 || matched == 2 {
		t.Fatalf("Krum result matches update %d", matched)
	}
	got[0] = math.NaN()
	if math.IsNaN(updates[matched].Weights[0]) {
		t.Fatal("Krum returned the update's own backing array, not a copy")
	}
}

// TestKrumPairIndexRoundTrip: the packed-triangle codec behind the
// parallel distance fill must be a bijection.
func TestKrumPairIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := pairIndex(n, i, j)
				if p != pairIndex(n, j, i) {
					t.Fatalf("pairIndex(%d,%d,%d) not symmetric", n, i, j)
				}
				if seen[p] {
					t.Fatalf("n=%d: duplicate flat index %d", n, p)
				}
				seen[p] = true
				gi, gj := pairFromIndex(n, p)
				if gi != i || gj != j {
					t.Fatalf("pairFromIndex(%d,%d) = (%d,%d), want (%d,%d)", n, p, gi, gj, i, j)
				}
			}
		}
		if len(seen) != n*(n-1)/2 {
			t.Fatalf("n=%d: %d flat indices, want %d", n, len(seen), n*(n-1)/2)
		}
	}
}

// TestMergerPoolWidthInvariance: every merger, both widths, over a
// dimension spanning multiple aggSegment spans, must produce identical
// bytes with no pool and with pools of 2, 4 and 8 lanes.
func TestMergerPoolWidthInvariance(t *testing.T) {
	updates, alpha := mergeCohort(6, 2*aggSegment+37, 7)
	mergers := []Merger{WeightedMerge{}, Median{}, TrimmedMean{Beta: 0.2}, Krum{F: 1}}
	for _, m := range mergers {
		want := m.Merge(updates, alpha, nil)
		want32 := m.Merge32(updates, alpha, nil)
		for _, workers := range []int{2, 4, 8} {
			pool := engine.New(workers)
			got := m.Merge(updates, alpha, pool)
			got32 := m.Merge32(updates, alpha, pool)
			pool.Close()
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s: workers=%d coordinate %d differs bitwise", m.Name(), workers, i)
				}
			}
			for i := range want32 {
				if math.Float32bits(want32[i]) != math.Float32bits(got32[i]) {
					t.Fatalf("%s: workers=%d f32 coordinate %d differs bitwise", m.Name(), workers, i)
				}
			}
		}
	}
}

// TestMergerValidation: zero cohorts, factor-count mismatches and
// ragged dimensions must panic exactly like the Aggregate path.
func TestMergerValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("empty cohort", func() { Median{}.Merge(nil, nil, nil) })
	one := []Update{{Weights: []float64{1}}}
	expectPanic("factor mismatch", func() { Median{}.Merge(one, []float64{0.5, 0.5}, nil) })
	ragged := []Update{{Weights: []float64{1, 2}}, {Weights: []float64{1}}}
	expectPanic("ragged dims", func() { TrimmedMean{}.Merge(ragged, []float64{0.5, 0.5}, nil) })
	expectPanic("ragged dims f32", func() {
		Krum{F: 1}.Merge32([]Update{{Weights32: []float32{1, 2}}, {Weights32: []float32{1}}}, []float64{0.5, 0.5}, nil)
	})
}

// TestParseMerger covers the CLI resolution table, including Krum's
// fraction-derived tolerance and the nil zero value.
func TestParseMerger(t *testing.T) {
	if m, err := ParseMerger("", 0, 10); err != nil || m != nil {
		t.Fatalf(`ParseMerger("") = %v, %v; want nil, nil`, m, err)
	}
	if m, err := ParseMerger("weighted", 0, 10); err != nil || m.Name() != "weighted" {
		t.Fatalf("weighted: %v, %v", m, err)
	}
	if m, err := ParseMerger("median", 0, 10); err != nil || m.Name() != "median" {
		t.Fatalf("median: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0, 10); err != nil || m.(TrimmedMean).Beta != 0.2 {
		t.Fatalf("trimmed: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0.3, 10); err != nil || m.(TrimmedMean).Beta != 0.4 {
		t.Fatalf("trimmed tracks the fraction: %v, %v", m, err)
	}
	if m, err := ParseMerger("trimmed", 0.9, 10); err != nil || m.(TrimmedMean).Beta != 0.45 {
		t.Fatalf("trimmed cap: %v, %v", m, err)
	}
	if m, err := ParseMerger("krum", 0.3, 10); err != nil || m.(Krum).F != 3 {
		t.Fatalf("krum at 30%% of 10: %v, %v", m, err)
	}
	if m, err := ParseMerger("krum", 0, 10); err != nil || m.(Krum).F != 1 {
		t.Fatalf("krum floor: %v, %v", m, err)
	}
	if _, err := ParseMerger("nope", 0, 10); err == nil {
		t.Fatal("unknown merger did not error")
	}
}

// specialCohort builds k updates of dim coordinates in both widths,
// about 40% of them drawn from a palette of special values: quiet NaNs
// with and without payload (including the f32 payload 0x7fc00001), a
// negative NaN, ±0 and ±Inf. The ordinary values are mostly small
// integers, so ties abound.
func specialCohort(k, dim int, seed uint64) []Update {
	pal64 := []uint64{0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000000, 0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000}
	pal32 := []uint32{0x7fc00000, 0x7fc00001, 0xffc00000, 0, 1 << 31, 0x7f800000, 0xff800000}
	r := rng.New(seed)
	updates := make([]Update, k)
	for i := range updates {
		w := make([]float64, dim)
		w32 := make([]float32, dim)
		for c := range w {
			if r.Intn(5) < 2 {
				j := r.Intn(len(pal64))
				w[c] = math.Float64frombits(pal64[j])
				w32[c] = math.Float32frombits(pal32[j])
				continue
			}
			x := r.Norm()
			if r.Intn(2) == 0 {
				x = float64(r.Intn(7) - 3)
			}
			w[c], w32[c] = x, float32(x)
		}
		updates[i] = Update{ClientID: i, N: 1, Weights: w, Weights32: w32}
	}
	return updates
}

// mergeDigest hashes a merged vector's bits. NaN payloads are kept
// only when the merge selects its outputs (odd-k median, Krum): values
// computed by arithmetic on NaNs carry a platform-defined payload, so
// they hash as one canonical NaN.
func mergeDigest[E tensor.Elem](v []E, keepPayload bool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		var bits uint64
		switch x := any(x).(type) {
		case float64:
			bits = math.Float64bits(x)
			if !keepPayload && x != x {
				bits = 0x7ff8000000000000
			}
		case float32:
			bits = uint64(math.Float32bits(x))
			if !keepPayload && x != x {
				bits = 0x7fc00000
			}
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestRobustMergersSpecialValues pins Median, TrimmedMean and Krum in
// both widths, at no pool and a 4-lane pool, for even and odd k, on
// cohorts full of NaN payloads, ±0 and ±Inf. The digests were recorded
// with the sort.Float64s/sort.Slice implementations these rules used
// before they moved to slices.Sort; they fix how the sorts order NaNs
// and signed zeros.
func TestRobustMergersSpecialValues(t *testing.T) {
	want := map[string]uint64{
		"krum/k=4/f32":     0xe8531856c45a97cb,
		"krum/k=4/f64":     0x95f7740143b7900a,
		"krum/k=5/f32":     0x5f3fed2cf28bfce0,
		"krum/k=5/f64":     0x8906f226e421ad3f,
		"krum/k=16/f32":    0x3fc4aa1e48813a1c,
		"krum/k=16/f64":    0x2d1af8929a99d345,
		"krum/k=17/f32":    0xa760b319822a1b90,
		"krum/k=17/f64":    0xe00d6f9f3a542978,
		"median/k=4/f32":   0x836ffe2e1748ea77,
		"median/k=4/f64":   0x27d5558d53adc31e,
		"median/k=5/f32":   0xe36e67e5b29f358c,
		"median/k=5/f64":   0xe2a434eead267c42,
		"median/k=16/f32":  0xfb238b1c36f80488,
		"median/k=16/f64":  0x1160da640d6c37a0,
		"median/k=17/f32":  0x37dfe442375593c5,
		"median/k=17/f64":  0x89818ec2d75e7622,
		"trimmed/k=4/f32":  0xd840b1a8cb9b834e,
		"trimmed/k=4/f64":  0x732d61722be83d78,
		"trimmed/k=5/f32":  0xaaf206fa149e0a7c,
		"trimmed/k=5/f64":  0xad2636d3df97017f,
		"trimmed/k=16/f32": 0x1672552be3b77213,
		"trimmed/k=16/f64": 0x29d3a90d43f7666a,
		"trimmed/k=17/f32": 0x17a27e50993d2121,
		"trimmed/k=17/f64": 0xbe662bfecc6f8633,
	}
	for _, k := range []int{4, 5, 16, 17} {
		updates := specialCohort(k, 2*aggSegment+5, uint64(100+k))
		alpha := make([]float64, k)
		for i := range alpha {
			alpha[i] = 1 / float64(k)
		}
		for _, m := range []Merger{Median{}, TrimmedMean{Beta: 0.2}, Krum{F: 1}} {
			_, isMedian := m.(Median)
			_, isKrum := m.(Krum)
			selects := isKrum || (isMedian && k%2 == 1)
			for _, workers := range []int{0, 4} {
				var pool *engine.Pool
				if workers > 0 {
					pool = engine.New(workers)
				}
				got := map[string]uint64{
					fmt.Sprintf("%s/k=%d/f64", m.Name(), k): mergeDigest(m.Merge(updates, alpha, pool), selects),
					fmt.Sprintf("%s/k=%d/f32", m.Name(), k): mergeDigest(m.Merge32(updates, alpha, pool), selects),
				}
				pool.Close()
				for key, d := range got {
					if d != want[key] {
						t.Errorf("%s workers=%d: digest %#x, want %#x", key, workers, d, want[key])
					}
				}
			}
		}
	}
}

// TestWrongWidthCohortsPanic: every merge entry fails loudly on a
// cohort it cannot merge — the other width, mixed widths, or no
// weights — instead of returning an empty model, and merges the
// cohorts it can. AggregateOn takes its width from the cohort, so only
// the mixed and weightless cohorts are misuse for it.
func TestWrongWidthCohortsPanic(t *testing.T) {
	f64 := Update{Weights: []float64{1, 2}}
	f32 := Update{Weights32: []float32{1, 2}}
	cohorts := []struct {
		name  string
		width Precision // "" when no entry can merge it
		ups   []Update
	}{
		{"f64", F64, []Update{f64, f64}},
		{"f32", F32, []Update{f32, f32}},
		{"mixed f64 first", "", []Update{f64, f32}},
		{"mixed f32 first", "", []Update{f32, f64}},
		{"no weights", "", []Update{{}, {}}},
		{"partly weightless", "", []Update{f64, {}}},
	}
	type entry struct {
		name  string
		width Precision // "" reads the width from the cohort
		merge func([]Update, []float64, *engine.Pool) int
	}
	entries := []entry{{"AggregateOn", "", func(u []Update, a []float64, p *engine.Pool) int {
		return len(AggregateOn(u, a, p))
	}}}
	for _, m := range []Merger{WeightedMerge{}, Median{}, TrimmedMean{Beta: 0.2}, Krum{F: 1}} {
		m := m
		entries = append(entries,
			entry{m.Name() + ".Merge", F64, func(u []Update, a []float64, p *engine.Pool) int { return len(m.Merge(u, a, p)) }},
			entry{m.Name() + ".Merge32", F32, func(u []Update, a []float64, p *engine.Pool) int { return len(m.Merge32(u, a, p)) }})
	}
	pool := engine.New(4)
	defer pool.Close()
	alpha := []float64{0.5, 0.5}
	for _, e := range entries {
		for _, c := range cohorts {
			mergeable := c.width != "" && (e.width == "" || e.width == c.width)
			for _, p := range []*engine.Pool{nil, pool} {
				func() {
					defer func() {
						if r := recover(); r != nil && mergeable {
							t.Errorf("%s on %s cohort panicked: %v", e.name, c.name, r)
						} else if r == nil && !mergeable {
							t.Errorf("%s on %s cohort did not panic", e.name, c.name)
						}
					}()
					if n := e.merge(c.ups, alpha, p); mergeable && n != 2 {
						t.Errorf("%s on %s cohort returned %d coordinates, want 2", e.name, c.name, n)
					}
				}()
			}
		}
	}
}
