package fl

import (
	"testing"

	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// testPop is a fixed Population: per-client shard sizes and last
// losses, indexed by eligible index.
type testPop struct {
	sizes  []int
	losses []float64
}

func (p testPop) NumClients() int        { return len(p.sizes) }
func (p testPop) SampleCount(i int) int  { return p.sizes[i] }
func (p testPop) LastLoss(i int) float64 { return p.losses[i] }

// popOf builds the Population a Selector sees from shard sizes and
// losses.
func popOf(sizes []int, losses []float64) Population {
	return testPop{sizes: sizes, losses: losses}
}

func assertDistinct(t *testing.T, sel []int, k, n int) {
	t.Helper()
	if len(sel) != k {
		t.Fatalf("selected %d, want %d", len(sel), k)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("invalid or duplicate selection %v", sel)
		}
		seen[i] = true
	}
}

func TestUniformSelector(t *testing.T) {
	sizes := []int{5, 5, 5, 5, 5, 5}
	r := rng.New(1)
	sel := (UniformSelector{}).Select(0, 3, popOf(sizes, make([]float64, 6)), r)
	assertDistinct(t, sel, 3, 6)
}

func TestSizeWeightedSelectorPrefersBigShards(t *testing.T) {
	sizes := []int{1, 1, 1, 30}
	r := rng.New(2)
	bigCount := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		sel := (SizeWeightedSelector{}).Select(i, 1, popOf(sizes, make([]float64, 4)), r)
		assertDistinct(t, sel, 1, 4)
		if sel[0] == 3 {
			bigCount++
		}
	}
	if frac := float64(bigCount) / trials; frac < 0.75 {
		t.Fatalf("big shard selected only %.0f%% of the time", frac*100)
	}
}

func TestPowerOfChoiceSelectsHighLoss(t *testing.T) {
	sizes := []int{5, 5, 5, 5, 5, 5}
	losses := []float64{0.1, 0.2, 9.0, 0.3, 8.0, 0.4}
	r := rng.New(3)
	// With d covering the full population, the top-loss clients must win.
	sel := (PowerOfChoiceSelector{D: 3}).Select(0, 2, popOf(sizes, losses), r)
	assertDistinct(t, sel, 2, 6)
	for _, i := range sel {
		if losses[i] < 8 {
			t.Fatalf("power-of-choice picked low-loss client %d: %v", i, sel)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	sizes := []int{5, 5, 5}
	r := rng.New(4)
	s := RoundRobinSelector{}
	r0 := s.Select(0, 2, popOf(sizes, make([]float64, 3)), r)
	r1 := s.Select(1, 2, popOf(sizes, make([]float64, 3)), r)
	if r0[0] != 0 || r0[1] != 1 || r1[0] != 2 || r1[1] != 0 {
		t.Fatalf("round robin order wrong: %v %v", r0, r1)
	}
}

func TestSelectorNames(t *testing.T) {
	for name, s := range map[string]Selector{
		"uniform":         UniformSelector{},
		"size-weighted":   SizeWeightedSelector{},
		"power-of-choice": PowerOfChoiceSelector{},
		"round-robin":     RoundRobinSelector{},
	} {
		if s.Name() != name {
			t.Fatalf("selector name %q, want %q", s.Name(), name)
		}
	}
}

func TestRunWithCustomSelector(t *testing.T) {
	tr, te := tinyData(t, 62)
	a := partition.Pareto(tr, 6, 2, 1.2, rng.New(63))
	cfg := runConfig(tr, 4, 3)
	cfg.Selector = PowerOfChoiceSelector{D: 2}
	res := RunVirtual(cfg, NewClientPool(tr, IndexPartition(a.ClientIndices), cfg.Factory, cfg.Seed), te, FedAvg{})
	if len(res.Rounds) != 4 {
		t.Fatal("run with selector failed")
	}
}

func TestSampleWithoutReplacementZeroWeights(t *testing.T) {
	r := rng.New(5)
	out := sampleWithoutReplacement([]float64{0, 0, 0}, 2, r)
	assertDistinct(t, out, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("oversample did not panic")
		}
	}()
	sampleWithoutReplacement([]float64{1}, 2, r)
}
