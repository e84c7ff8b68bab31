package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/fl"
	"feddrl/internal/metrics"
)

// The async-vs-sync experiment: the same federated cells run under the
// synchronous barrier, under the degenerate asynchronous trace (which
// must reproduce the synchronous numbers exactly — the determinism
// contract rendered as data), and under a seeded straggler trace with
// staleness-weighted merging. Variants are encoded in the cell's Method
// string ("FedAvg+stale"), so the grid/shard/cache machinery amortizes
// them like any other cell with no artifact-schema change.

// Async method-variant suffixes (after the '+' in a cell Method; see
// parseMethod).
const (
	// asyncModeDegenerate runs RunAsync under InstantArrivals with
	// staleness decay 1 — bit-identical to RunVirtual by contract.
	asyncModeDegenerate = "async"
	// asyncModeStale runs a seeded straggler trace with staleness decay.
	asyncModeStale = "stale"
)

// asyncStaleTrace is the fixed straggler trace of the "+stale" cells:
// half the identities are 8× stragglers with exponential jitter on top
// of a base latency, and no updates are dropped — so every dispatched
// update eventually arrives and FedDRL's fixed-K impact computation
// stays applicable. Derived per cell seed for reproducibility.
func asyncStaleTrace(seed uint64) fl.TraceArrivals {
	return fl.TraceArrivals{
		Seed:            seed + 5,
		BaseDelay:       0.5,
		Jitter:          0.3,
		StragglerFrac:   0.5,
		StragglerFactor: 8,
	}
}

// asyncStaleDecay is the "+stale" cells' per-round staleness decay.
const asyncStaleDecay = 0.5

// asyncThreshold is the "+stale" cells' aggregation cohort size: a
// sub-K threshold makes updates genuinely straddle server versions, but
// at least 2 so tiny CI scales still merge more than one update. With a
// drop-free trace every aggregation folds exactly this many updates —
// which is also why the FedDRL agent of a "+stale" cell must be sized
// to the threshold, not K.
func asyncThreshold(k int) int { return max(2, k/2) }

// asyncConfigFor maps an async mode to its engine configuration. The
// degenerate mode keeps the zero values: InstantArrivals, decay 1,
// threshold K.
func asyncConfigFor(mode string, cfg fl.RunConfig, k int, seed uint64) fl.AsyncConfig {
	acfg := fl.AsyncConfig{RunConfig: cfg}
	if mode == asyncModeStale {
		acfg.Arrival = asyncStaleTrace(seed)
		acfg.StalenessDecay = asyncStaleDecay
		acfg.AggregateEvery = asyncThreshold(k)
	}
	return acfg
}

// asyncMethods are the async-sync grid's method columns: each federated
// baseline, its degenerate async twin, and the stale-trace variant.
var asyncMethods = []string{
	"FedAvg", "FedAvg+async", "FedAvg+stale",
	"FedDRL", "FedDRL+async", "FedDRL+stale",
}

// asyncDataset picks the grid's dataset (one is enough — the experiment
// contrasts substrates, not datasets).
func asyncDataset(s Scale) string { return s.datasets()[0].Name }

// asyncSyncJobs enumerates the async-sync cells: every method variant on
// the CE partition at SmallN clients.
func asyncSyncJobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, m := range asyncMethods {
		jobs = append(jobs, table3Spec(s, asyncDataset(s), "CE", m, s.SmallN, seed))
	}
	return jobs
}

// renderAsyncSync formats the async-vs-sync comparison. The "+async"
// rows are the determinism contract made visible: they must match their
// synchronous base rows digit for digit.
func renderAsyncSync(s Scale, seed uint64, get ArtifactGetter) string {
	ds := asyncDataset(s)
	var b strings.Builder
	fmt.Fprintf(&b, "Async vs sync rounds: %s / CE, %d clients\n\n", ds, s.SmallN)
	tab := &metrics.Table{
		Title:   "staleness-weighted asynchronous aggregation",
		Headers: []string{"method", "best acc", "final acc"},
	}
	for _, m := range asyncMethods {
		a := get(table3Spec(s, ds, "CE", m, s.SmallN, seed))
		tab.AddRow(m, metrics.F(a.Best()), metrics.F(a.Final()))
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(+async is the degenerate trace — zero latency, no dropout, staleness\n" +
		"weight 1 — and reproduces the synchronous row exactly; +stale adds a\n" +
		fmt.Sprintf("seeded straggler trace with staleness decay %.2g and a sub-K\n", asyncStaleDecay) +
		"aggregation threshold, so stale updates are merged at reduced weight)\n")
	return b.String()
}

// AsyncSync runs the async-vs-sync grid in-process (Registry-compatible
// wrapper).
func AsyncSync(s Scale, seed uint64) string { return runNamed("async-sync", s, seed) }
