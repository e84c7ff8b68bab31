package replay

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func exp(prior float64) Experience {
	return Experience{S: []float64{1}, A: []float64{2}, R: 0.5, S2: []float64{3}, Prior: prior}
}

func TestAddAndLen(t *testing.T) {
	b := New(3, rng.New(1))
	if b.Len() != 0 || b.Cap() != 3 {
		t.Fatal("fresh buffer wrong")
	}
	for i := 0; i < 3; i++ {
		if !b.Add(exp(float64(i))) {
			t.Fatal("Add rejected valid experience")
		}
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestCapacityEvictsLowestPriority(t *testing.T) {
	b := New(3, rng.New(2))
	b.Add(exp(1))
	b.Add(exp(5))
	b.Add(exp(3))
	// Higher-priority incoming evicts the minimum (1).
	if !b.Add(exp(4)) {
		t.Fatal("higher-priority add rejected")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d after eviction", b.Len())
	}
	priors := []float64{}
	for _, e := range b.All() {
		priors = append(priors, e.Prior)
	}
	sort.Float64s(priors)
	want := []float64{3, 4, 5}
	for i := range want {
		if priors[i] != want[i] {
			t.Fatalf("buffer priorities %v, want %v", priors, want)
		}
	}
	// Lower-priority incoming is dropped.
	if b.Add(exp(0.5)) {
		t.Fatal("lowest-priority add should be rejected when full")
	}
}

func TestRejectNonFinite(t *testing.T) {
	b := New(4, rng.New(3))
	bad := []Experience{
		{S: []float64{math.NaN()}, A: []float64{1}, S2: []float64{1}},
		{S: []float64{1}, A: []float64{math.Inf(1)}, S2: []float64{1}},
		{S: []float64{1}, A: []float64{1}, S2: []float64{math.NaN()}},
		{S: []float64{1}, A: []float64{1}, S2: []float64{1}, R: math.NaN()},
	}
	for i, e := range bad {
		if b.Add(e) {
			t.Fatalf("non-finite experience %d accepted", i)
		}
	}
	if b.Len() != 0 {
		t.Fatal("buffer should remain empty")
	}
}

func TestReprioritizeSorts(t *testing.T) {
	b := New(10, rng.New(4))
	for i := 0; i < 5; i++ {
		b.Add(Experience{S: []float64{float64(i)}, A: []float64{0}, S2: []float64{0}})
	}
	// Priority = |S[0] - 2| → order by distance from 2, negative values
	// must be folded to magnitude.
	prio := make([]float64, b.Len())
	for i, e := range b.All() {
		prio[i] = e.S[0] - 2
	}
	b.Reprioritize(prio)
	all := b.All()
	for i := 1; i < len(all); i++ {
		if all[i].Prior > all[i-1].Prior {
			t.Fatalf("not sorted descending at %d: %v > %v", i, all[i].Prior, all[i-1].Prior)
		}
	}
	if all[0].Prior != 2 {
		t.Fatalf("top priority %v, want 2", all[0].Prior)
	}
}

func TestSampleBiasTowardHighPriority(t *testing.T) {
	b := New(100, rng.New(5))
	for i := 0; i < 100; i++ {
		b.Add(Experience{S: []float64{float64(i)}, A: []float64{0}, S2: []float64{0}, Prior: float64(i)})
	}
	b.SortByPriority() // descending: S[0]=99 first
	topHits := 0
	const n = 10000
	draws := make([]Experience, n)
	b.SampleInto(draws)
	for _, e := range draws {
		if e.S[0] >= 75 { // top quartile of priority
			topHits++
		}
	}
	frac := float64(topHits) / n
	// With u² sampling the top quartile of ranks gets P(u<0.5)=~0.5.
	if frac < 0.4 {
		t.Fatalf("top-quartile sampling fraction %v, want >= 0.4", frac)
	}
}

func TestSamplePanics(t *testing.T) {
	b := New(2, rng.New(6))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SampleInto from an empty buffer did not panic")
			}
		}()
		b.SampleInto(make([]Experience, 1))
	}()
	b.Add(exp(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SampleInto with an empty dst did not panic")
			}
		}()
		b.SampleInto(nil)
	}()
}

func TestMergeKeepsHighestPriorities(t *testing.T) {
	main := New(4, rng.New(7))
	w1 := New(10, rng.New(8))
	w2 := New(10, rng.New(9))
	for i := 0; i < 4; i++ {
		w1.Add(exp(float64(i)))      // 0..3
		w2.Add(exp(float64(10 + i))) // 10..13
	}
	main.Merge(w1, w2)
	if main.Len() != 4 {
		t.Fatalf("merged len = %d", main.Len())
	}
	for _, e := range main.All() {
		if e.Prior < 10 {
			t.Fatalf("low-priority experience %v survived merge", e.Prior)
		}
	}
}

func TestBufferNeverExceedsCapacityProperty(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		r := rng.New(seed)
		b := New(8, r)
		for _, op := range ops {
			b.Add(exp(float64(op)))
			if b.Len() > b.Cap() {
				return false
			}
		}
		// Sorted invariant after an explicit sort.
		b.SortByPriority()
		all := b.All()
		for i := 1; i < len(all); i++ {
			if all[i].Prior > all[i-1].Prior {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, rng.New(1))
}
