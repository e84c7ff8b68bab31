package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/experiments"
	"feddrl/internal/fl"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// A workload is one set of inputs the benchmark runs as a closed loop:
// one caller in one process issues the next pass only after the previous
// one returns, at engine width Workers = nproc. The workload seed is a
// benchmark argument; the program only receives the inputs built from it
// (the experiment seed, the synthesized data, the partition).
type workload struct {
	name string
	// why records what the workload exercises and which layer metrics
	// should move its end-to-end metrics; BENCHMARK.json carries the
	// same text.
	why  string
	open func(seed uint64, workers int, dir string) (instance, error)
}

var workloads = []workload{
	{
		name: "table3-ci",
		why: "Table 3 (72 cells) as users regenerate it: client training and the cross-cell engine fan-out; " +
			"moved by fl.train.ms, experiments.cell_ms.table3.*, dataset.synthesize_ms, engine.speedup",
		open: func(seed uint64, workers int, dir string) (instance, error) {
			return &gridBench{grids: []string{"table3"}, s: ciScale(workers), seed: seed, probes: inputProbes, gain: true}, nil
		},
	},
	{
		name: "feddrl-cell",
		why: "one 150-round FedDRL cell (fedsim defaults): the core agent's decision is most of the wall time; " +
			"moved by core.decide.*, fl.train.ms, fl.round.*, engine.steals",
		open: openCell,
	},
	{
		name: "robust-async",
		why: "byzantine then async-sync grids (30 cells): robust merge rules, attack corruption, the RunAsync engine; " +
			"moved by fl.merge.<rule>.ms_per_call, experiments.cell_ms.*",
		open: func(seed uint64, workers int, dir string) (instance, error) {
			return &gridBench{grids: []string{"byzantine", "async-sync"}, s: ciScale(workers), seed: seed, probes: robustProbes}, nil
		},
	},
	{
		name: "cache-replay",
		why: "re-renders Table 3 from a read-only cache filled in set-up: cache reads, decoding, checksums, rendering, no training; " +
			"moved by experiments.cache.read_us, experiments.render_ms",
		open: openReplay,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// output is what the warm-up pass delivered; later passes are checked
// against its digest.
type output struct {
	digest string
	rounds int       // communication rounds, summed over cells
	cells  int       // cells delivered
	finals []float64 // final test accuracy of every cell, in %
}

// addSet folds an artifact set's cells into the output.
func (o *output) addSet(set *experiments.ArtifactSet) {
	for _, a := range set.Cells {
		o.cells++
		o.rounds += len(a.LossMean)
		o.finals = append(o.finals, a.Final())
	}
}

// finite reports whether every accuracy is a finite number.
func (o output) finite() bool {
	for _, v := range o.finals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return len(o.finals) > 0
}

// instance is a workload with its inputs built.
type instance interface {
	// warm runs the first, untimed pass and returns the reference output.
	warm() (output, error)
	// pass runs one timed pass and returns its output digest.
	pass() (string, error)
	// traced runs one pass with spans recorded under root.
	traced(rec *recorder, root int) (string, error)
	// layers derives the workload's per-layer metrics from the spans of
	// its traced passes (roots) and untraced, the median untraced pass
	// wall in ms, running whatever extra probes its layers need.
	layers(rec *recorder, roots []int, untraced float64, m map[string]float64) error
	// reps is how many passes make one traced or untraced sample.
	reps() int
	// setWorkers changes the engine width of later passes.
	setWorkers(n int)
	close()
}

// ciScale is the experiments' CI scale at the given engine width.
func ciScale(workers int) experiments.Scale {
	s := experiments.CI()
	s.Workers = workers
	return s
}

// gridBench runs whole experiment grids through experiments.Run.
type gridBench struct {
	grids []string
	s     experiments.Scale
	seed  uint64
	// probes measures the layers this workload is home to beyond its
	// cell spans; gain marks the workload that reports
	// experiments.grid_gain.
	probes func(rec *recorder, s experiments.Scale, seed uint64, m map[string]float64) error
	gain   bool
}

// warm goes through RunShard(1 of 1) + RenderSet, which also yields the
// cells' artifacts; its text must equal what experiments.Run renders.
func (g *gridBench) warm() (output, error) {
	var out output
	var texts []string
	for _, name := range g.grids {
		set, err := experiments.RunShard(name, g.s, g.seed, 1, 1, 1)
		if err != nil {
			return out, err
		}
		text, err := experiments.RenderSet(g.s, set)
		if err != nil {
			return out, err
		}
		texts = append(texts, text)
		out.addSet(set)
	}
	out.digest = digestText(texts...)
	return out, nil
}

func (g *gridBench) pass() (string, error) {
	var texts []string
	for _, name := range g.grids {
		text, err := experiments.Run(name, g.s, g.seed)
		if err != nil {
			return "", err
		}
		texts = append(texts, text)
	}
	return digestText(texts...), nil
}

// traced runs every cell as its own RunShard(i, len(jobs)) call, timed
// as experiments.cell.<grid>.<Method>, then merges and renders the
// shards as experiments.render.
func (g *gridBench) traced(rec *recorder, root int) (string, error) {
	var texts []string
	for _, name := range g.grids {
		jobs := experiments.Registry[name].Jobs(g.s, g.seed)
		sets := make([]*experiments.ArtifactSet, len(jobs))
		for i, j := range jobs {
			var err error
			rec.timed(cellSpan(name, j.Method), root, func() {
				sets[i], err = experiments.RunShard(name, g.s, g.seed, 1, i+1, len(jobs))
			})
			if err != nil {
				return "", err
			}
		}
		var text string
		var err error
		rec.timed("experiments.render", root, func() {
			var merged *experiments.ArtifactSet
			if merged, err = experiments.MergeSets(sets); err == nil {
				text, err = experiments.RenderSet(g.s, merged)
			}
		})
		if err != nil {
			return "", err
		}
		texts = append(texts, text)
	}
	return digestText(texts...), nil
}

// cellSpan names a grid cell's span; metric names admit no '+', so
// "FedAvg+stale" becomes "FedAvg-stale".
func cellSpan(grid, method string) string {
	return "experiments.cell." + grid + "." + strings.ReplaceAll(method, "+", "-")
}

func (g *gridBench) layers(rec *recorder, roots []int, untraced float64, m map[string]float64) error {
	var cells float64
	for _, name := range g.grids {
		for _, method := range gridMethods[name] {
			key := cellSpan(name, method)
			var d []float64
			for _, root := range roots {
				d = append(d, rec.children(root, key)...)
			}
			metric := "experiments.cell_ms." + strings.TrimPrefix(key, "experiments.cell.")
			m[metric+".p50"] = median(d)
			m[metric+".sum"] = sum(d)
			cells += sum(d)
		}
	}
	if g.gain {
		m["experiments.grid_gain"] = cells / float64(len(roots)) / untraced
	}
	if g.probes == nil {
		return nil
	}
	return g.probes(rec, g.s, g.seed, m)
}

// gridMethods are the method columns of each grid, as cell spans name them.
var gridMethods = map[string][]string{
	"table3":     {"SingleSet", "FedAvg", "FedProx", "FedDRL"},
	"byzantine":  {"FedAvg"},
	"async-sync": {"FedAvg", "FedAvg-async", "FedAvg-stale", "FedDRL", "FedDRL-async", "FedDRL-stale"},
}

func (g *gridBench) reps() int        { return 1 }
func (g *gridBench) setWorkers(n int) { g.s.Workers = n }
func (g *gridBench) close()           {}

// specByName resolves a dataset spec of the scale by its name.
func specByName(s experiments.Scale, name string) (dataset.Spec, error) {
	for _, spec := range []dataset.Spec{dataset.CIFAR100Sim(), dataset.FashionSim(), dataset.MNISTSim()} {
		if spec.Name == name {
			return spec.Scaled(s.DataScale), nil
		}
	}
	return dataset.Spec{}, fmt.Errorf("unknown dataset %q", name)
}

// buildPartition builds a Table 3 partition with the parameters the
// paper gives (§4.1.1): 2 labels per client (20 for 100 classes), three
// groups, δ as the cell sets it.
func buildPartition(name string, train *dataset.Dataset, n int, delta float64, r *rng.RNG) (*partition.Assignment, error) {
	lpc := 2
	if train.NumClasses >= 100 {
		lpc = 20
	}
	switch name {
	case "PA":
		return partition.Pareto(train, n, lpc, 1.5, r), nil
	case "CE":
		return partition.ClusteredEqual(train, n, delta, lpc, 3, r), nil
	case "CN":
		return partition.ClusteredNonEqual(train, n, delta, lpc, 3, 1.0, r), nil
	}
	return nil, fmt.Errorf("unknown partition %q", name)
}

// inputProbes times the per-cell input builds of Table 3 from outside:
// each cell synthesizes its dataset and (federated cells) builds its
// partition. Each distinct build is timed once and counted once per
// cell that performs it.
func inputProbes(rec *recorder, s experiments.Scale, seed uint64, m map[string]float64) error {
	probe := rec.begin("probe.inputs", -1)
	defer rec.end(probe)
	type partKey struct {
		ds, part string
		n        int
	}
	dsCells := map[string]int{}
	partCells := map[partKey]int{}
	for _, j := range experiments.Registry["table3"].Jobs(s, seed) {
		dsCells[j.Dataset]++
		if j.Method != "SingleSet" {
			partCells[partKey{j.Dataset, j.Partition, j.N}]++
		}
	}
	trains := map[string]*dataset.Dataset{}
	var synth float64
	for name, cells := range dsCells {
		spec, err := specByName(s, name)
		if err != nil {
			return err
		}
		d := rec.timed("dataset.synthesize", probe, func() { trains[name], _ = dataset.Synthesize(spec, seed) })
		synth += ms(d) * float64(cells)
	}
	var part float64
	for k, cells := range partCells {
		var err error
		d := rec.timed("partition.build", probe, func() {
			_, err = buildPartition(k.part, trains[k.ds], k.n, 0.6, rng.New(seed+2))
		})
		if err != nil {
			return err
		}
		part += ms(d) * float64(cells)
	}
	m["dataset.synthesize_ms"] = synth
	m["partition.build_ms"] = part
	return nil
}

// robustProbes builds one byzantine-shaped cell from public calls
// (mnist-sim, Equal shards, N = K = LargeN, 20% sign-flip attackers,
// FedAvg weighting), records how many uploads each merge kept, captures
// one arrived cohort and times every robust merge rule on it.
func robustProbes(rec *recorder, s experiments.Scale, seed uint64, m map[string]float64) error {
	probe := rec.begin("probe.merge", -1)
	defer rec.end(probe)
	spec, err := specByName(s, "mnist-sim")
	if err != nil {
		return err
	}
	train, test := dataset.Synthesize(spec, seed)
	n := s.LargeN
	assign := partition.EqualShards(train, n, 2, rng.New(seed+2))
	attack, err := fl.ParseAttack("signflip", 0.2)
	if err != nil {
		return err
	}
	pool := engine.New(s.Workers)
	defer pool.Close()
	capture := &cohortCapture{inner: fl.WeightedMerge{}}
	factory := mlpFactory(spec)
	cfg := fl.RunConfig{
		Rounds: s.Rounds, K: n,
		Local:   fl.LocalConfig{Epochs: s.Epochs, Batch: s.Batch, LR: s.LR},
		Factory: factory, Seed: seed + 1, Pool: pool,
		Attack: attack, Merger: capture,
	}
	cp := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), factory, seed+4)
	res := fl.RunVirtual(cfg, cp, test, fl.FedAvg{})
	arrived, kept := 0, 0
	for _, r := range res.Rounds {
		arrived += n
		kept += n - r.Quarantined
	}
	m["fl.merge.kept_ratio"] = float64(kept) / float64(arrived)
	if capture.updates == nil {
		return errors.New("robust probe merged no cohort")
	}
	for _, rule := range []string{"weighted", "median", "trimmed", "krum"} {
		mg, err := fl.ParseMerger(rule, 0.2, len(capture.updates))
		if err != nil {
			return err
		}
		name := "fl.merge." + rule
		for i := 0; i < 30; i++ {
			rec.timed(name, probe, func() { mg.Merge(capture.updates, capture.alpha, pool) })
		}
		m[name+".ms_per_call"] = median(rec.children(probe, name))
	}
	return nil
}

// cohortCapture is a pass-through Merger that keeps a copy of the first
// cohort it merges.
type cohortCapture struct {
	inner   fl.Merger
	updates []fl.Update
	alpha   []float64
}

func (c *cohortCapture) Name() string { return c.inner.Name() }

func (c *cohortCapture) Merge(updates []fl.Update, alpha []float64, pool *engine.Pool) []float64 {
	if c.updates == nil {
		for _, u := range updates {
			u.Weights = append([]float64(nil), u.Weights...)
			c.updates = append(c.updates, u)
		}
		c.alpha = append([]float64(nil), alpha...)
	}
	return c.inner.Merge(updates, alpha, pool)
}

func (c *cohortCapture) Merge32(updates []fl.Update, alpha []float64, pool *engine.Pool) []float32 {
	return c.inner.Merge32(updates, alpha, pool)
}

// mlpFactory is the experiments' CI client model: one 48-unit hidden
// layer.
func mlpFactory(spec dataset.Spec) nn.Factory {
	dim := spec.Shape.Len()
	return func(seed uint64) *nn.Network {
		return nn.NewMLP(rng.New(seed), dim, []int{48}, spec.Classes)
	}
}

// cellRounds is the length of the feddrl-cell run.
const cellRounds = 150

// cellBench is one FedDRL cell with fedsim's default configuration
// (mnist-sim ×0.3, CE δ=0.6, N=K=10, E=3, lr 0.03; agent hidden 64,
// batch 32, 4 updates per round, warm-up 8), run through fl.RunVirtual.
type cellBench struct {
	seed        uint64
	rounds      int
	train, test *dataset.Dataset
	part        fl.IndexPartition
	factory     nn.Factory
	workers     int
	pool        *engine.Pool

	// Of the last traced pass: its pool's counters and its result.
	stats engine.Stats
	last  *fl.Result
}

func openCell(seed uint64, workers int, dir string) (instance, error) {
	return newCell(seed, workers, cellRounds), nil
}

func newCell(seed uint64, workers, rounds int) *cellBench {
	spec := dataset.MNISTSim().Scaled(0.3)
	train, test := dataset.Synthesize(spec, seed)
	assign := partition.ClusteredEqual(train, 10, 0.6, 2, 3, rng.New(seed+1))
	b := &cellBench{
		seed: seed, rounds: rounds,
		train: train, test: test,
		part:    fl.IndexPartition(assign.ClientIndices),
		factory: mlpFactory(spec),
	}
	b.setWorkers(workers)
	return b
}

// run executes the cell; a non-nil recorder wraps every injected
// interface in its pass-through tracer.
func (b *cellBench) run(rec *recorder, root int, pool *engine.Pool) *fl.Result {
	const k = 10
	agentCfg := core.DefaultConfig(k)
	agentCfg.Hidden = 64
	agentCfg.BatchSize = 32
	agentCfg.WarmupExperiences = 8
	agentCfg.UpdatesPerRound = 4
	agentCfg.ExploreStd = 0.05
	agentCfg.ExploreDecay = 0.99
	agentCfg.Seed = b.seed + 4
	var agg fl.Aggregator = fl.NewFedDRL(core.NewAgent(agentCfg))
	cfg := fl.RunConfig{
		Rounds:  b.rounds,
		K:       k,
		Local:   fl.LocalConfig{Epochs: 3, Batch: 10, LR: 0.03},
		Factory: b.factory,
		Seed:    b.seed + 2,
		Workers: 1,
		Pool:    pool,
	}
	if rec != nil {
		cfg.Factory = tracedFactory(b.factory, rec, root)
		cfg.Selector = tracedSelector{inner: fl.UniformSelector{}, rec: rec, root: root}
		cfg.Merger = tracedMerger{inner: fl.WeightedMerge{}, rec: rec}
		agg = tracedAggregator{inner: agg, rec: rec}
	}
	cp := fl.NewClientPool(b.train, b.part, cfg.Factory, b.seed+3)
	res := fl.RunVirtual(cfg, cp, b.test, agg)
	if rec != nil {
		rec.openRound(-1)
	}
	return res
}

func (b *cellBench) warm() (output, error) {
	res := b.run(nil, -1, b.pool)
	return output{digest: digestBits(res.Weights), rounds: len(res.Rounds), cells: 1, finals: []float64{res.Final()}}, nil
}

func (b *cellBench) pass() (string, error) {
	return digestBits(b.run(nil, -1, b.pool).Weights), nil
}

// traced runs on a fresh pool with its scheduling counters on, so the
// engine.* metrics count this pass alone.
func (b *cellBench) traced(rec *recorder, root int) (string, error) {
	pool := engine.New(b.workers)
	defer pool.Close()
	pool.EnableStats()
	res := b.run(rec, root, pool)
	b.stats = pool.Stats()
	b.last = res
	return digestBits(res.Weights), nil
}

// layers splits the traced cell's rounds: core.decide and fl.merge are
// timed by the wrappers, fl.eval by timing Evaluator.Eval on the cell's
// test set, and fl.train is what remains of the round spans — client
// local training in nn and tensor.
func (b *cellBench) layers(rec *recorder, roots []int, untraced float64, m map[string]float64) error {
	var rounds []float64
	var wall float64
	for _, root := range roots {
		rounds = append(rounds, rec.children(root, "fl.round")...)
		wall += ms(rec.spans[root].dur())
	}
	decide := rec.durations("core.decide")
	merge := rec.durations("fl.merge")
	builds := rec.durations("nn.build")
	m["engine.enqueues"] = float64(b.stats.Enqueues)
	m["engine.steals"] = float64(b.stats.Steals)
	m["engine.max_lanes_busy"] = float64(b.stats.MaxLanesBusy)
	m["fl.round.count"] = float64(len(rounds))
	m["fl.round.ms_p50"] = median(rounds)
	m["fl.round.ms_p99"] = quantile(rounds, 0.99)
	m["core.decide.calls"] = float64(len(decide))
	m["core.decide.ms_p50"] = median(decide)
	m["core.decide.ms_p99"] = quantile(decide, 0.99)
	m["core.decide.share"] = sum(decide) / wall
	m["fl.merge.calls"] = float64(len(merge))
	m["fl.merge.ms"] = sum(merge)
	m["nn.models_built"] = float64(len(builds))

	probe := rec.begin("probe.eval", -1)
	defer rec.end(probe)
	pool := engine.New(b.workers)
	defer pool.Close()
	ev := fl.NewEvaluator(b.factory, b.seed, pool)
	ev.Eval(b.last.Weights, b.test) // builds the evaluator's lane replicas
	for i := 0; i < 20; i++ {
		rec.timed("fl.eval", probe, func() { ev.Eval(b.last.Weights, b.test) })
	}
	evals := 0
	for _, r := range b.last.Rounds {
		if r.Evaluated {
			evals++
		}
	}
	eval := median(rec.children(probe, "fl.eval")) * float64(evals)
	m["fl.eval.ms"] = eval
	m["fl.train.ms"] = sum(rounds) - sum(decide) - sum(merge) - eval
	return nil
}

func (b *cellBench) reps() int { return 1 }

func (b *cellBench) setWorkers(n int) {
	b.pool.Close()
	b.workers, b.pool = n, nil
	if n > 1 {
		b.pool = engine.New(n)
	}
}

func (b *cellBench) close() { b.pool.Close() }

// replayBench re-renders Table 3 from a read-only cache that its warm-up
// pass fills with one cold run.
type replayBench struct {
	s    experiments.Scale
	seed uint64
	dir  string
	fill *experiments.Cache
	ro   *experiments.Cache
	set  *experiments.ArtifactSet
}

func openReplay(seed uint64, workers int, dir string) (instance, error) {
	cacheDir, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, err
	}
	return &replayBench{s: ciScale(workers), seed: seed, dir: cacheDir}, nil
}

// warm fills the cache with a cold Table 3 run, then reads every cell
// back through the read-only handle; the replayed text must equal the
// cold one.
func (b *replayBench) warm() (output, error) {
	var out output
	var err error
	if b.fill, err = experiments.OpenCache(b.dir, false); err != nil {
		return out, err
	}
	cold, err := experiments.RunCached("table3", b.s, b.seed, b.fill)
	if err != nil {
		return out, err
	}
	if b.ro, err = experiments.OpenCache(b.dir, true); err != nil {
		return out, err
	}
	if b.set, err = experiments.RunShardCached("table3", b.s, b.seed, 1, 1, 1, b.ro); err != nil {
		return out, err
	}
	text, err := experiments.RenderSet(b.s, b.set)
	if err != nil {
		return out, err
	}
	if text != cold {
		return out, errors.New("cache replay renders differently from the cold run")
	}
	out.addSet(b.set)
	out.digest = digestText(cold)
	return out, b.hitsOnly()
}

// hitsOnly fails once any read through the read-only cache missed.
func (b *replayBench) hitsOnly() error {
	if st := b.ro.Stats(); st.Misses > 0 {
		return fmt.Errorf("read-only cache missed %d of %d lookups", st.Misses, st.Hits+st.Misses)
	}
	return nil
}

func (b *replayBench) pass() (string, error) {
	text, err := experiments.RunCached("table3", b.s, b.seed, b.ro)
	if err != nil {
		return "", err
	}
	return digestText(text), b.hitsOnly()
}

// traced splits a replay into the cache read (lookup, record decoding
// and checksum checks) and the render.
func (b *replayBench) traced(rec *recorder, root int) (string, error) {
	var set *experiments.ArtifactSet
	var err error
	rec.timed("experiments.cache.read", root, func() {
		set, err = experiments.RunShardCached("table3", b.s, b.seed, 1, 1, 1, b.ro)
	})
	if err != nil {
		return "", err
	}
	var text string
	rec.timed("experiments.render", root, func() { text, err = experiments.RenderSet(b.s, set) })
	if err != nil {
		return "", err
	}
	return digestText(text), b.hitsOnly()
}

// layers also times LoadArtifactSet on the replayed set saved to disk.
func (b *replayBench) layers(rec *recorder, roots []int, untraced float64, m map[string]float64) error {
	var read, render []float64
	for _, root := range roots {
		read = append(read, rec.children(root, "experiments.cache.read")...)
		render = append(render, rec.children(root, "experiments.render")...)
	}
	cells := float64(b.set.Len())
	m["experiments.cache.read_us"] = median(read) * 1000 / cells
	m["experiments.render_ms"] = median(render)
	st := b.ro.Stats()
	m["experiments.cache.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	m["experiments.cache.written"] = float64(b.fill.Stats().Writes)

	path := filepath.Join(b.dir, "set.bin")
	if err := b.set.SaveFile(path); err != nil {
		return err
	}
	probe := rec.begin("probe.decode", -1)
	defer rec.end(probe)
	for i := 0; i < 20; i++ {
		var err error
		rec.timed("serialize.decode", probe, func() { _, err = experiments.LoadArtifactSet(path) })
		if err != nil {
			return err
		}
	}
	m["serialize.decode_us"] = median(rec.children(probe, "serialize.decode")) * 1000 / cells
	return nil
}

// reps: one replay takes milliseconds, so a sample is many of them.
func (b *replayBench) reps() int { return 100 }

func (b *replayBench) setWorkers(n int) { b.s.Workers = n }

func (b *replayBench) close() { os.RemoveAll(b.dir) }
