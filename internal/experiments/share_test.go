package experiments

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// sameBits reports whether two artifacts carry the same spec and
// bit-identical series.
func sameBits(a, b *CellArtifact) bool {
	if a.Spec != b.Spec || len(a.AccRounds) != len(b.AccRounds) {
		return false
	}
	for i := range a.AccRounds {
		if a.AccRounds[i] != b.AccRounds[i] {
			return false
		}
	}
	for _, pair := range [][2][]float64{
		{a.Accuracy, b.Accuracy}, {a.LossMean, b.LossMean}, {a.LossVar, b.LossVar},
	} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return false
			}
		}
	}
	return true
}

// TestSharedComputationSound is the soundness gate of the store's
// computation sharing: every SingleSet cell of Table 3 and Table 4,
// computed on its own as a one-cell shard with a fresh store, must equal
// bit for bit the artifact one grid store served it, in both precisions.
// That store runs the grid's SingleSet cells (one run per dataset and
// seed) beside its FedAvg cells, so cells on different lanes read one
// synthesized dataset at once — the sharing the -race gate watches.
// Short mode checks f64 only.
func TestSharedComputationSound(t *testing.T) {
	precisions := []string{"f64", "f32"}
	if testing.Short() {
		precisions = precisions[:1]
	}
	for _, prec := range precisions {
		for _, grid := range []string{"table3", "table4"} {
			t.Run(grid+"/"+prec, func(t *testing.T) {
				s := CI()
				s.Precision = prec
				s.Workers = 2
				jobs := Registry[grid].Jobs(s, 1)
				var subset []CellSpec
				for _, j := range jobs {
					if j.Method == "SingleSet" || j.Method == "FedAvg" {
						subset = append(subset, j)
					}
				}
				st := newStore(s)
				defer st.close()
				if err := st.prefetch(subset); err != nil {
					t.Fatal(err)
				}
				solo := 0
				for i, j := range jobs {
					if j.Method != "SingleSet" {
						continue
					}
					set, err := RunShard(grid, s, 1, 1, i+1, len(jobs))
					if err != nil {
						t.Fatal(err)
					}
					want, _ := set.Get(j)
					if want == nil || !sameBits(st.get(j), want) {
						t.Fatalf("shared artifact of %s differs from its solo computation", j.Key())
					}
					solo++
				}
				if solo == 0 || st.runs >= len(subset) {
					t.Fatalf("%d SingleSet cells, %d runs for %d cells: the grid shares no computation and the test is vacuous", solo, st.runs, len(subset))
				}
			})
		}
	}
}

// TestComputationKeyFields pins which fields a cell's computation
// keeps: SingleSet collapses exactly the fields its run never reads,
// specs differing in Dataset or Seed never share a computation key, and
// every other method keeps its full spec.
func TestComputationKeyFields(t *testing.T) {
	base := CellSpec{Dataset: "mnist-sim", Partition: "CE", N: 10, K: 6, Delta: 0.6, Seed: 7}
	collapsed := []func(*CellSpec){
		func(c *CellSpec) { c.Partition = "PA" },
		func(c *CellSpec) { c.N = 24 },
		func(c *CellSpec) { c.K = 3 },
		func(c *CellSpec) { c.Delta = 0.2 },
		func(c *CellSpec) { c.Attack, c.AttackFrac, c.Merger = "signflip", 0.4, "median" },
	}
	kept := []func(*CellSpec){
		func(c *CellSpec) { c.Dataset = "fashion-sim" },
		func(c *CellSpec) { c.Seed = 8 },
	}
	single := base
	single.Method = "SingleSet"
	key := single.computation().Key()
	for i, mut := range collapsed {
		c := single
		mut(&c)
		if c.computation().Key() != key {
			t.Errorf("SingleSet field mutation %d changed the computation key", i)
		}
	}
	for i, mut := range kept {
		c := single
		mut(&c)
		if c.computation().Key() == key {
			t.Errorf("SingleSet specs differing by mutation %d share a computation key", i)
		}
	}
	methods := []string{"FedAvg", "FedProx", "FedDRL", "FedAvg+async", "FedAvg+stale", "FedDRL+async", "FedDRL+stale"}
	for _, m := range methods {
		spec := base
		spec.Method = m
		for i, mut := range append(collapsed, kept...) {
			c := spec
			mut(&c)
			if c.computation() != c {
				t.Errorf("%s: mutation %d: computation %+v collapses fields of %+v", m, i, c.computation(), c)
			}
		}
	}
}

// TestGridWorkCount: a CI-scale Table 3 grid holds 72 cells but only 57
// distinct computations (its 18 SingleSet cells are 3 runs, one per
// dataset) over 3 datasets, and still writes all 72 cache records.
func TestGridWorkCount(t *testing.T) {
	s := CI()
	s.Workers = 2
	cache, err := OpenCache(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	st := newStoreCached(s, cache)
	defer st.close()
	jobs := table3Jobs(s, 1)
	if err := st.prefetch(jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if a := st.get(j); a.Spec != j {
			t.Fatalf("cell %s got the artifact of %s", j.Key(), a.Spec.Key())
		}
	}
	if len(jobs) != 72 || st.runs != 57 || st.syntheses != 3 {
		t.Fatalf("%d cells took %d runs and %d syntheses, want 72 cells, 57 runs, 3 syntheses", len(jobs), st.runs, st.syntheses)
	}
	if got := cache.Stats(); got.Writes != 72 || got.Misses != 72 {
		t.Fatalf("cache stats %+v, want 72 misses and 72 writes", got)
	}
	// A copy is the cell's own: sharing a computation never aliases
	// another cell's payload.
	a := st.get(jobs[0])
	b := st.get(table3Spec(s, jobs[0].Dataset, "CN", "SingleSet", s.LargeN, 1))
	if &a.Accuracy[0] == &b.Accuracy[0] {
		t.Fatal("SingleSet cells sharing a computation alias one payload")
	}
}

// TestBadFaultNamesReturnError: an unknown scale-level attack or merger
// fails every grid entry point with an error before any cell runs,
// instead of panicking inside a pool lane.
func TestBadFaultNamesReturnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Scale)
	}{
		{"attack", func(s *Scale) { s.Attack, s.AttackFrac = "bogus", 0.2 }},
		{"merger", func(s *Scale) { s.Merger = "bogus" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := gridScale()
			s.Workers = 2
			tc.set(&s)
			cache, err := OpenCache(t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			check := func(entry string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
					t.Errorf("%s: err = %v, want the unknown %s", entry, err, tc.name)
				}
			}
			_, err = Run("table3", s, 1)
			check("Run", err)
			_, err = RunCached("async-sync", s, 1, cache)
			check("RunCached", err)
			_, err = RunShard("table4", s, 1, 1, 1, 2)
			check("RunShard", err)
			_, err = RunSeeds("figure7", s, 1, 2)
			check("RunSeeds", err)
			_, err = ExportCSV("figure8", s, 1, t.TempDir())
			check("ExportCSV", err)
			if st := cache.Stats(); st.Misses != 0 || st.Writes != 0 {
				t.Errorf("cells ran before the bad name was reported: %+v", st)
			}
		})
	}
}

// TestAblationArmsAreTable3Cells: an ablation arm without a variant is
// the Table 3 cell itself. Against a warm table3 cache the four
// ablations are served exactly their five reference arms (prior: FedAvg
// and FedDRL on cifar100; reward, statenorm, twostage: FedDRL on mnist)
// and compute only their four variants, and each reference arm computed
// on its own equals the table3 grid's artifact bit for bit.
func TestAblationArmsAreTable3Cells(t *testing.T) {
	s := microScale()
	const seed = 5
	dir := t.TempDir()
	cache, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached("table3", s, seed, cache); err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	var refs []CellSpec
	for _, id := range []string{"ablation-prior", "ablation-reward", "ablation-statenorm", "ablation-twostage"} {
		if _, err := RunCached(id, s, seed, cache); err != nil {
			t.Fatal(err)
		}
		for _, j := range Registry[id].Jobs(s, seed) {
			if !strings.Contains(j.Method, "+") {
				refs = append(refs, j)
			}
		}
	}
	st := cache.Stats()
	if hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses; hits != 5 || misses != 4 || len(refs) != 5 {
		t.Fatalf("ablations on a warm table3 cache: %d hits, %d misses, %d reference arms; want 5, 4, 5", hits, misses, len(refs))
	}
	table3, err := OpenCache(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	cached := newStoreCached(s, table3)
	defer cached.close()
	fresh := newStore(s)
	defer fresh.close()
	grid := table3Jobs(s, seed)
	for _, j := range refs {
		if !slices.Contains(grid, j) {
			t.Fatalf("reference arm %s is not a table3 cell", j.Key())
		}
		if !sameBits(fresh.get(j), cached.get(j)) {
			t.Fatalf("reference arm %s differs from its table3 artifact", j.Key())
		}
	}
}

// TestUnknownCellNamesReturnError: a cell naming an unknown dataset,
// partition, method or variant fails the grid store and RunCell with an
// error before any work, instead of panicking inside a pool lane.
func TestUnknownCellNamesReturnError(t *testing.T) {
	s := microScale()
	good := table3Spec(s, "mnist-sim", "CE", "FedDRL", s.SmallN, 1)
	for _, bad := range []func(*CellSpec){
		func(c *CellSpec) { c.Dataset = "imagenet" },
		func(c *CellSpec) { c.Partition = "XX" },
		func(c *CellSpec) { c.Method = "FedSGD" },
		func(c *CellSpec) { c.Method = "FedAvg+twostage" },
		func(c *CellSpec) { c.Attack, c.AttackFrac = "bogus", 0.2 },
	} {
		cell := good
		bad(&cell)
		st := newStore(s)
		if err := st.prefetch([]CellSpec{good, cell}); err == nil || st.runs != 0 {
			t.Fatalf("prefetch of %s: err %v after %d runs, want an error before any run", cell.Key(), err, st.runs)
		}
		st.close()
		if _, err := RunCell(s, cell); err == nil {
			t.Fatalf("RunCell(%s) accepted", cell.Key())
		}
	}
}
