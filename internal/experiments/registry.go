package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment at a scale and returns its rendered
// text output. Monolithic experiments (pure partition statistics,
// timing studies, the ablations) are registered as Runners; grid
// experiments decompose further — see Experiment.
type Runner func(s Scale, seed uint64) string

// ArtifactGetter resolves a cell spec to its computed artifact. Inside
// one process it is backed by the artifact store (computing on demand);
// in the merge path it is backed by decoded shard files.
type ArtifactGetter func(spec CellSpec) *CellArtifact

// Experiment is a registry entry. Grid experiments define Jobs (the
// serializable cell decomposition) and Render (a pure artifact→text
// formatter); those are the experiments that support -shard/-merge.
// SeedsRender additionally enables -seeds m (mean±std over seed
// replicates). Monolithic experiments define only Mono.
type Experiment struct {
	// Jobs enumerates the grid's cells in canonical order (the order
	// that defines shard assignment). nil marks a monolithic experiment.
	Jobs func(s Scale, seed uint64) []CellSpec
	// Render formats the grid's artifacts into the experiment's text
	// output. It must consult artifacts only through get, never run
	// training itself.
	Render func(s Scale, seed uint64, get ArtifactGetter) string
	// SeedsRender renders the seeds-replicated grid with mean±std
	// cells; nil means the experiment does not support -seeds.
	SeedsRender func(s Scale, seed uint64, seeds int, get ArtifactGetter) string
	// Mono runs a monolithic experiment end to end.
	Mono Runner
}

// Shardable reports whether the entry decomposes into jobs.
func (e Experiment) Shardable() bool { return e.Jobs != nil }

func mono(r Runner) Experiment { return Experiment{Mono: r} }

// Registry maps experiment ids (the paper's table/figure numbers plus
// the DESIGN.md ablations) to their definitions.
var Registry = map[string]Experiment{
	"table2":  mono(Table2),
	"figure4": mono(Figure4),
	"table3":  {Jobs: table3Jobs, Render: renderTable3, SeedsRender: renderTable3Seeds},
	"figure5": {Jobs: figure5Jobs, Render: renderFigure5},
	"figure6": {Jobs: figure6Jobs, Render: renderFigure6},
	"figure7": {Jobs: figure7Jobs, Render: renderFigure7, SeedsRender: renderFigure7Seeds},
	"figure8": {Jobs: figure8Jobs, Render: renderFigure8, SeedsRender: renderFigure8Seeds},
	"figure9": mono(Figure9),
	"figure10": {
		Jobs: figure10Jobs, Render: renderFigure10,
	},
	"table4":             {Jobs: table4Jobs, Render: renderTable4},
	"ablation-reward":    mono(AblationRewardGap),
	"ablation-statenorm": mono(AblationStateNorm),
	"ablation-twostage":  mono(AblationTwoStage),
	"ablation-prior":     mono(AblationPrior),
	"comm-overhead":      mono(CommOverhead),
	"headline":           {Jobs: headlineJobs, Render: renderHeadline},
	"async-sync":         {Jobs: asyncSyncJobs, Render: renderAsyncSync},
	"byzantine":          {Jobs: byzantineJobs, Render: renderByzantine},
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Shardable reports whether an experiment id supports -shard/-merge.
func Shardable(name string) bool {
	e, ok := Registry[name]
	return ok && e.Shardable()
}

// Run executes a registered experiment by id: monolithic runners
// directly, grid experiments through the spec→artifact→render pipeline
// on the scale's engine pool.
func Run(name string, s Scale, seed uint64) (string, error) {
	return RunCached(name, s, seed, nil)
}

// RunCached is Run with a content-addressed artifact cache: grid cells
// whose records exist in the cache are loaded instead of recomputed,
// fresh cells are written back, and the rendered output is
// byte-identical to an uncached run. A nil cache disables caching.
// Monolithic experiments do not decompose into cells and run in full
// regardless of the cache.
func RunCached(name string, s Scale, seed uint64, cache *Cache) (string, error) {
	e, ok := Registry[name]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
	if e.Mono != nil {
		return e.Mono(s, seed), nil
	}
	return runGrid(e, s, seed, cache)
}

// runNamed is Run for ids known to exist (the exported per-experiment
// wrappers like Figure5).
func runNamed(name string, s Scale, seed uint64) string {
	out, err := Run(name, s, seed)
	if err != nil {
		panic(err)
	}
	return out
}
