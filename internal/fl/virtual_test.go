package fl

import (
	"reflect"
	"runtime"
	"testing"

	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// TestBuildClientsViewsMatchSubsets: the zero-copy shards BuildClients
// hands out must train bit-identically to privately copied shards.
func TestBuildClientsViewsMatchSubsets(t *testing.T) {
	tr, _ := tinyData(t, 83)
	a := partition.Pareto(tr, 5, 2, 1.2, rng.New(84))
	cfg := runConfig(tr, 4, 3)
	global := cfg.Factory(cfg.Seed).ParamVector()

	viewClients := BuildClients(tr, a.ClientIndices, cfg.Factory, cfg.Seed)
	for i, idx := range a.ClientIndices {
		copyClient := NewClient(i, tr.Subset(idx), cfg.Factory, clientSeed(cfg.Seed, i))
		// Two rounds, so the RNG stream carried between them counts too.
		for round := 0; round < 2; round++ {
			want := copyClient.Run(global, cfg.Local)
			got := viewClients[i].Run(global, cfg.Local)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("client %d round %d: view-backed update differs from subset-backed", i, round)
			}
		}
	}
	// And the views really are views: no shard floats were copied.
	for i, c := range viewClients {
		v, ok := c.Data.(*dataset.View)
		if !ok {
			t.Fatalf("client %d data is %T, not a view", i, c.Data)
		}
		if v.Parent() != tr {
			t.Fatalf("client %d view does not share the training set", i)
		}
	}
}

// TestClientPoolSkipsEmptyShards: empty identities are excluded from the
// eligible population in identity order, and a run over the pool
// reproduces the digest recorded from the materialized fleet, which
// filtered empty shards the same way.
func TestClientPoolSkipsEmptyShards(t *testing.T) {
	tr, te := tinyData(t, 29)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	indices := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{},
		{10, 11, 12, 13, 14, 15, 16, 17},
		{},
		{18, 19, 20, 21, 22, 23},
		{24, 25, 26, 27, 28, 29, 30},
	}
	cp := NewClientPool(tr, IndexPartition(indices), f, 31)
	if cp.NumClients() != 4 {
		t.Fatalf("eligible clients = %d, want 4", cp.NumClients())
	}
	if cp.SampleCount(1) != 8 {
		t.Fatalf("eligible client 1 has %d samples, want 8 (identity 2)", cp.SampleCount(1))
	}
	cfg := runConfig(tr, 3, 3)
	const pinned = 0x70126c6f9bf42fea
	if got := resultDigest(stripTimings(RunVirtual(cfg, cp, te, FedAvg{}))); got != pinned {
		t.Fatalf("empty-shard run digest %#016x, pinned %#016x", got, pinned)
	}
	for id := range cp.rngStates {
		if len(indices[id]) == 0 {
			t.Fatalf("empty identity %d was checked out", id)
		}
	}
}

func TestCyclicPartition(t *testing.T) {
	p := CyclicPartition{N: 10, Per: 4, Clients: 1_000_000}
	p.Validate()
	if p.NumClients() != 1_000_000 || p.Count(123456) != 4 {
		t.Fatal("cyclic partition dimensions wrong")
	}
	if got := p.AppendIndices(nil, 2); !reflect.DeepEqual(got, []int{8, 9, 0, 1}) {
		t.Fatalf("client 2 stripe = %v", got)
	}
	// Buffer reuse: appending into a reset slice reuses its storage.
	buf := p.AppendIndices(nil, 0)
	if again := p.AppendIndices(buf[:0], 1); &again[0] != &buf[0] {
		t.Fatal("AppendIndices reallocated a sufficient buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid cyclic partition did not panic")
		}
	}()
	CyclicPartition{N: 0, Per: 1, Clients: 1}.Validate()
}

// TestCyclicPartitionRejectsOversizedShard is the regression test for
// the Per > N hole: a stripe longer than the dataset wraps past a full
// cycle, repeats samples inside one shard, and double-counts them in
// Eq. 4's sample-weighted merge. Validate must reject it — and so must
// NewClientPool, which now validates self-checking partitions up front.
func TestCyclicPartitionRejectsOversizedShard(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Per > N did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Validate", func() {
		CyclicPartition{N: 10, Per: 11, Clients: 3}.Validate()
	})
	tr, _ := tinyData(t, 47)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	expectPanic("NewClientPool", func() {
		NewClientPool(tr, CyclicPartition{N: tr.N, Per: tr.N + 1, Clients: 3}, f, 1)
	})
	// The boundary case Per == N (every client sees the whole dataset
	// exactly once) stays legal.
	CyclicPartition{N: 10, Per: 10, Clients: 3}.Validate()
}

// TestRunVirtualMillionClients is the constant-memory property at full
// scale: a million virtual identities over a small dataset, K=10. The
// run must finish quickly and its live state must stay O(K) — slots
// bounded by K, identity state bounded by rounds×K.
func TestRunVirtualMillionClients(t *testing.T) {
	tr, _ := tinyData(t, 41)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	const clients, k, rounds = 1_000_000, 10, 3
	cp := NewClientPool(tr, CyclicPartition{N: tr.N, Per: 8, Clients: clients}, f, 42)
	cfg := RunConfig{
		Rounds: rounds, K: k,
		Local:   LocalConfig{Epochs: 1, Batch: 8, LR: 0.05},
		Factory: f, Seed: 43, Workers: 2,
	}
	res := RunVirtual(cfg, cp, nil, FedAvg{})
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(res.Rounds), rounds)
	}
	if len(cp.slots) > k {
		t.Fatalf("pool grew %d slots, want ≤ %d", len(cp.slots), k)
	}
	if len(cp.rngStates) > rounds*k || len(cp.losses) > rounds*k {
		t.Fatalf("identity state grew to %d/%d entries, want ≤ %d",
			len(cp.rngStates), len(cp.losses), rounds*k)
	}
}

// TestChooseDistinct: below the cutoff the historical Choose stream is
// preserved exactly; above it, draws are distinct, in range, and
// deterministic per seed.
func TestChooseDistinct(t *testing.T) {
	want := rng.New(5).Choose(100, 7)
	got := chooseDistinct(100, 7, rng.New(5))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("small-n chooseDistinct diverges from the Choose stream")
	}
	big := chooseDistinct(1_000_000, 10, rng.New(6))
	seen := map[int]bool{}
	for _, v := range big {
		if v < 0 || v >= 1_000_000 || seen[v] {
			t.Fatalf("invalid large-n selection %v", big)
		}
		seen[v] = true
	}
	if !reflect.DeepEqual(big, chooseDistinct(1_000_000, 10, rng.New(6))) {
		t.Fatal("large-n chooseDistinct is not deterministic")
	}
}

// TestSingleSetHonorsWorkers: the centralized baseline must accept
// Workers/Pool like RunVirtual (the kernels and evaluation fan out on the same
// engine) and stay bit-identical to its sequential execution.
func TestSingleSetHonorsWorkers(t *testing.T) {
	run := func(workers int, pool *engine.Pool) *Result {
		tr, te := tinyData(t, 53)
		cfg := runConfig(tr, 3, 2)
		cfg.Workers = workers
		cfg.Pool = pool
		return stripTimings(SingleSet(cfg, tr, te))
	}
	ref := run(1, nil)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := run(workers, nil); !reflect.DeepEqual(ref, got) {
			t.Fatalf("SingleSet Workers=%d differs from sequential", workers)
		}
	}
	pool := engine.New(3)
	defer pool.Close()
	if got := run(0, pool); !reflect.DeepEqual(ref, got) {
		t.Fatal("SingleSet on a shared pool differs from sequential")
	}
}

// TestEvaluatorWarmEvalAllocFree gates the eval-arena satellite: after a
// warm-up call, repeated evaluations — contiguous dataset and gathered
// view alike — must not allocate.
func TestEvaluatorWarmEvalAllocFree(t *testing.T) {
	tr, _ := tinyData(t, 59)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	global := f(3).ParamVector()

	ev := NewEvaluator(f, 4, nil)
	ev.Eval(global, tr)
	if allocs := testing.AllocsPerRun(20, func() { ev.Eval(global, tr) }); allocs > 0 {
		t.Fatalf("warm Evaluator.Eval allocates %v per run", allocs)
	}

	// The client inference path (gather over a view) reuses its arena
	// the same way.
	idx := make([]int, tr.N)
	for i := range idx {
		idx[i] = tr.N - 1 - i
	}
	c := NewClient(0, tr.View(idx), f, 61)
	c.model.SetParamVector(global)
	c.evalLoss()
	if allocs := testing.AllocsPerRun(20, func() { c.evalLoss() }); allocs > 0 {
		t.Fatalf("warm client evalLoss allocates %v per run", allocs)
	}
}

// TestEvaluatorPooledEvalAllocBound gates the pooled evaluation path:
// after warm-up, an Eval fanned out over a pool may allocate only the
// constant-size job bookkeeping (one job header, lane list and
// completion channel per fan-out) — never per-chunk or per-sample
// buffers. The bound is deliberately a small constant so a regression
// that reintroduces per-chunk slicing trips it regardless of dataset
// size.
func TestEvaluatorPooledEvalAllocBound(t *testing.T) {
	tr, _ := tinyData(t, 59)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	global := f(3).ParamVector()

	pool := engine.New(2)
	defer pool.Close()
	ev := NewEvaluator(f, 4, pool)
	ev.Eval(global, tr)
	if allocs := testing.AllocsPerRun(20, func() { ev.Eval(global, tr) }); allocs > 8 {
		t.Fatalf("warm pooled Evaluator.Eval allocates %v per run, want <= 8 (job bookkeeping only)", allocs)
	}
}
