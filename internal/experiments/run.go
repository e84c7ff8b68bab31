package experiments

import (
	"fmt"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// Methods compared throughout the evaluation, in the paper's column
// order.
var Methods = []string{"SingleSet", "FedAvg", "FedProx", "FedDRL"}

// PartitionNames in the paper's order for Table 3.
var PartitionNames = []string{"PA", "CE", "CN"}

// defaultDelta is the non-IID level used by Table 3 ("we set δ = 0.6").
const defaultDelta = 0.6

// numGroups is the cluster count of the CE/CN partitions.
const numGroups = 3

// buildPartition constructs the named partition over the training set.
func buildPartition(name string, train *dataset.Dataset, spec dataset.Spec, n int, delta float64, r *rng.RNG) *partition.Assignment {
	lpc := labelsPerClient(spec)
	switch name {
	case "PA":
		return partition.Pareto(train, n, lpc, 1.5, r)
	case "CE":
		return partition.ClusteredEqual(train, n, delta, lpc, numGroups, r)
	case "CN":
		return partition.ClusteredNonEqual(train, n, delta, lpc, numGroups, 1.0, r)
	case "Equal":
		return partition.EqualShards(train, n, 2, r)
	case "Non-equal":
		return partition.NonEqualShards(train, n, 10, 6, 14, r)
	}
	panic(fmt.Sprintf("experiments: unknown partition %q", name))
}

// drlConfig sizes the agent per Table 1, shrunk by the scale.
func (s Scale) drlConfig(k int, seed uint64) core.Config {
	cfg := core.DefaultConfig(k)
	cfg.Hidden = s.DRLHidden
	cfg.BatchSize = s.DRLBatch
	cfg.UpdatesPerRound = s.DRLUpdates
	cfg.WarmupExperiences = s.DRLWarmup
	if s.DRLExploreStd > 0 {
		cfg.ExploreStd = s.DRLExploreStd
	}
	if s.DRLExploreDecay > 0 {
		cfg.ExploreDecay = s.DRLExploreDecay
	}
	cfg.BufferCap = 4096
	cfg.Seed = seed
	return cfg
}

// runMethodOn executes one cell on a shared engine pool and returns its
// result. train and test are the cell's synthesized data
// (dataset.Synthesize(spec, cell.Seed)); the cell only reads them — the
// read-only contract of fl.ClientPool and fl.BuildClients — so
// concurrent cells of one grid share a single copy. cell.Delta applies
// to the clustered partitions only. The cell's client training,
// evaluation and aggregation all borrow the pool's lanes, so many cells
// can run concurrently under one global worker bound. A nil pool falls
// back to the scale's own Workers setting.
//
// The SingleSet branch reads only the fields CellSpec.computation
// keeps (Dataset, Method, Seed). The federated branches read the whole
// spec; the cell's effective attack and merger (Scale.faults) configure
// Byzantine fault injection and the robust merge rule, both defaulting
// to the benign, byte-identical historical behavior. Their names must
// already have passed checkFaults.
func runMethodOn(s Scale, spec dataset.Spec, cell CellSpec, train, test *dataset.Dataset, pool *engine.Pool) *fl.Result {
	partName, method := cell.Partition, cell.Method
	n, k, delta, seed := cell.N, cell.K, cell.Delta, cell.Seed
	if method == "SingleSet" {
		// The centralized run has no cohort; K = 1 only satisfies
		// RunConfig.Validate. The baseline borrows the same pool as the
		// federated cells, so its kernel/eval parallelism — and
		// therefore its timings — are comparable with theirs.
		cfg := s.runConfig(spec, 1, 0, seed+1)
		cfg.Pool = pool
		return fl.SingleSet(cfg, train, test)
	}
	// The paper's default K=10 means full participation at its small
	// federation size (N=10, §4.1.2); mirror that so the FedDRL state's
	// slots stay client-consistent in the SmallN runs.
	if n <= s.SmallN {
		k = n
	}
	if k > n {
		k = n
	}
	r := rng.New(seed + 2)
	assign := buildPartition(partName, train, spec, n, delta, r)

	// A "+mode" suffix selects the asynchronous engine (see async.go);
	// the base method picks the aggregator as before. FedDRL's impact
	// computation is fixed-width, so its agent is sized to the cohort
	// the server actually merges: the async threshold for "+stale"
	// cells, K otherwise.
	base, mode := asyncVariant(method)
	aggCohort := k
	if mode == asyncModeStale {
		aggCohort = asyncThreshold(k)
	}

	proxMu := 0.0
	var agg fl.Aggregator
	switch base {
	case "FedAvg":
		agg = fl.FedAvg{}
	case "FedProx":
		agg = fl.FedProx{}
		proxMu = s.ProxMu
	case "FedDRL":
		agg = fl.NewFedDRL(core.NewAgent(s.drlConfig(aggCohort, seed+3)))
	default:
		panic(fmt.Sprintf("experiments: unknown method %q", method))
	}
	cfg := s.runConfig(spec, k, proxMu, seed+1)
	cfg.Pool = pool
	// Byzantine cells: the attack seed stays 0 (derived from the run
	// seed), so a cell's fault trace is as reproducible as everything
	// else keyed off its CellSpec. Krum's tolerance is sized to the
	// declared malicious fraction of the merge cohort. checkFaults has
	// already rejected every name these parsers would.
	attackName, attackFrac, mergerName := s.faults(cell)
	cfg.Attack, _ = fl.ParseAttack(attackName, attackFrac)
	cfg.Merger, _ = fl.ParseMerger(mergerName, attackFrac, aggCohort)
	// Virtual clients: only the K selected identities occupy client
	// state at a time, so a cell's memory is O(K) in its client count.
	cp := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+4)
	if mode != "" {
		ar, err := fl.RunAsync(asyncConfigFor(mode, cfg, k, seed), cp, test, agg)
		if err != nil {
			// Grid traces are drop-free by construction (asyncStaleTrace
			// sets no OfflineFrac/DropRate), so starvation here means the
			// configuration is broken, not flaky.
			panic(err)
		}
		return ar.Result
	}
	return fl.RunVirtual(cfg, cp, test, agg)
}

// faults returns the cell's effective Byzantine configuration: its own
// Attack/AttackFrac/Merger, or the scale-level ones when the cell leaves
// all three zero.
func (s Scale) faults(cell CellSpec) (attack string, frac float64, merger string) {
	if cell.benign() {
		return s.Attack, s.AttackFrac, s.Merger
	}
	return cell.Attack, cell.AttackFrac, cell.Merger
}

// checkFaults validates every job's effective attack and merger, so a
// bad name fails the grid with an error before any cell runs instead of
// panicking inside a pool lane.
func checkFaults(s Scale, jobs []CellSpec) error {
	for _, j := range jobs {
		attack, frac, merger := s.faults(j)
		if _, err := fl.ParseAttack(attack, frac); err != nil {
			return fmt.Errorf("experiments: cell %s: %w", j.Key(), err)
		}
		if _, err := fl.ParseMerger(merger, frac, 1); err != nil {
			return fmt.Errorf("experiments: cell %s: %w", j.Key(), err)
		}
	}
	return nil
}

// artifactStore executes cell jobs and caches their artifacts within one
// experiment invocation, computing each distinct piece of work once: one
// run per computation key (the Key of CellSpec.computation — a grid's
// SingleSet cells that differ only in partition or client count share
// one run) and one synthesized dataset per (Dataset, Seed), shared
// read-only by every cell that trains on it. Every cell still gets its
// own artifact under its own spec and its own cache record, so
// addresses, artifacts and rendered text are exactly those of running
// each cell alone.
//
// The store owns the invocation's engine pool: prefetch fans the
// syntheses and then the independent runs out across the pool's lanes,
// and every run's inner federated loop borrows the same lanes, keeping
// total parallelism bounded. The pool's work-stealing scheduler is what
// keeps the grid's three layers (cells → FL rounds → evaluation/merge)
// all parallel: a lane that drains its cells steals the nested jobs of
// the cells still running, so the tail of a grid is finished by every
// lane instead of one. Every grid entry point must release the pool
// with `defer st.close()` so a panicking cell run cannot leak it.
//
// An optional content-addressed Cache extends the in-memory store
// across invocations: cells found in the cache are loaded instead of
// recomputed, and freshly computed cells are written back (unless the
// cache is readonly). Lookups and write-backs are bit-exact, so cached
// and uncached runs render byte-identical output.
type artifactStore struct {
	s     Scale
	pool  *engine.Pool
	cache *Cache
	cells map[string]*CellArtifact
	// shared maps the computation key of every held cell whose
	// computation is not its own spec to the first such artifact,
	// computed or loaded, whichever cell it belongs to.
	shared map[string]*CellArtifact
	// runs and syntheses count the cell computations and dataset
	// syntheses the store has performed.
	runs, syntheses int
}

func newStore(s Scale) *artifactStore { return newStoreCached(s, nil) }

func newStoreCached(s Scale, cache *Cache) *artifactStore {
	return &artifactStore{
		s: s, pool: s.newPool(), cache: cache,
		cells: map[string]*CellArtifact{}, shared: map[string]*CellArtifact{},
	}
}

// close releases the store's pool (idempotent; nil-safe).
func (st *artifactStore) close() { st.pool.Close() }

// commit adds an artifact to the store under its own spec's key.
func (st *artifactStore) commit(key string, a *CellArtifact) {
	st.cells[key] = a
	if c := a.Spec.computation(); c != a.Spec {
		if ck := c.Key(); st.shared[ck] == nil {
			st.shared[ck] = a
		}
	}
}

// inputKey identifies one synthesized dataset: dataset.Synthesize is a
// pure function of the (per-store) dataset spec and the seed.
type inputKey struct {
	dataset string
	seed    uint64
}

type cellInputs struct{ train, test *dataset.Dataset }

// synthesize builds the distinct datasets the runs train on, in
// parallel on the pool. The map is the runs' only copy of their data
// and is dropped with them, so the store holds no dataset between
// prefetches.
func (st *artifactStore) synthesize(runs [][]CellSpec) map[inputKey]cellInputs {
	var keys []inputKey
	inputs := map[inputKey]cellInputs{}
	for _, r := range runs {
		k := inputKey{r[0].Dataset, r[0].Seed}
		if _, seen := inputs[k]; !seen {
			inputs[k] = cellInputs{}
			keys = append(keys, k)
		}
	}
	data := make([]cellInputs, len(keys))
	st.pool.For(len(keys), func(i int) {
		data[i].train, data[i].test = dataset.Synthesize(st.s.datasetByName(keys[i].dataset), keys[i].seed)
	})
	st.syntheses += len(keys)
	for i, k := range keys {
		inputs[k] = data[i]
	}
	return inputs
}

// prefetch brings every job into the store, or returns the first bad
// attack/merger name before doing any work. The on-disk cache is
// consulted sequentially first (I/O, not compute). Each remaining cell
// whose computation the store already holds gets a copy of it; the
// rest run once per distinct computation key, on datasets synthesized
// once per (Dataset, Seed), with the runs fanned out across the pool.
// Results land in per-run slots and are committed to the maps only
// after the barrier, so no lock is needed and the store contents do not
// depend on completion order. Callers must enumerate the same cells
// their rendering loop will get(): a cell missing from the job list
// still computes correctly, just on its own.
func (st *artifactStore) prefetch(jobs []CellSpec) error {
	if err := checkFaults(st.s, jobs); err != nil {
		return err
	}
	// runs[i] lists the cells sharing one computation; runs[i][0] runs.
	var runs [][]CellSpec
	index := map[string]int{}
	queued := map[string]bool{}
	for _, j := range jobs {
		key := j.Key()
		if _, done := st.cells[key]; done || queued[key] {
			continue
		}
		if a, ok := st.cache.load(st.s, j); ok {
			st.commit(key, a)
			continue
		}
		ck := j.computation().Key()
		if held := st.shared[ck]; held != nil {
			a := held.as(j)
			st.commit(key, a)
			st.cache.store(st.s, j, a)
			continue
		}
		i, ok := index[ck]
		if !ok {
			i = len(runs)
			index[ck] = i
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], j)
		queued[key] = true
	}
	inputs := st.synthesize(runs)
	results := make([][]*CellArtifact, len(runs))
	st.pool.For(len(runs), func(i int) {
		run := runs[i][0]
		in := inputs[inputKey{run.Dataset, run.Seed}]
		res := runMethodOn(st.s, st.s.datasetByName(run.Dataset), run, in.train, in.test, st.pool)
		for _, m := range runs[i] {
			a := artifactOf(m, res)
			results[i] = append(results[i], a)
			// Publish to the cache immediately, not after the barrier:
			// a killed run must keep every cell it finished, or
			// interrupted shards could never resume. Concurrent stores
			// are safe — each record is its own temp file + rename, and
			// the stats counters are mutex-guarded.
			st.cache.store(st.s, m, a)
		}
	})
	st.runs += len(runs)
	for _, rs := range results {
		for _, a := range rs {
			st.commit(a.Spec.Key(), a)
		}
	}
	return nil
}

// get returns the cell's artifact, bringing it in through prefetch when
// the store does not hold it yet (cache first, then a held computation
// with the same computation key, then a fresh run). It panics on a job
// prefetch rejects; grid entry points prefetch their job lists first
// and return that error instead.
func (st *artifactStore) get(spec CellSpec) *CellArtifact {
	key := spec.Key()
	if a, ok := st.cells[key]; ok {
		return a
	}
	if err := st.prefetch([]CellSpec{spec}); err != nil {
		panic(err)
	}
	return st.cells[key]
}

// runGrid is the single-process execution path of a grid experiment:
// enumerate jobs, compute artifacts concurrently (skipping cells the
// cache already holds), render.
func runGrid(e Experiment, s Scale, seed uint64, cache *Cache) (string, error) {
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(e.Jobs(s, seed)); err != nil {
		return "", err
	}
	return e.Render(s, seed, st.get), nil
}
