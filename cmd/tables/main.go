// Command tables regenerates the paper's tables and figures.
//
// Usage:
//
//	tables -exp table3 -scale ci -seed 1
//	tables -exp all -scale medium -workers 8
//	tables -exp table3 -seeds 3                 # mean±std over 3 seed replicates
//	tables -exp table3 -shard 1/2 -out s1.art   # run half the grid, write artifacts
//	tables -merge shards/                       # recombine shard artifacts and render
//	tables -exp table3 -cache cells/            # skip cells cached by earlier runs
//	tables -exp table3 -precision f32           # half-width federated state
//	tables -exp byzantine                       # attack × robust-merge grid
//	tables -exp table3 -attack signflip -attack-frac 0.2 -merger median
//	tables -cache-gc -cache cells/ -cache-max-bytes 1000000
//	tables -list
//
// Experiment ids are the paper's table/figure numbers (table2, table3,
// table4, figure4..figure10), the DESIGN.md ablations (ablation-prior,
// ablation-reward, ablation-statenorm, ablation-twostage), the
// communication-cost table (comm-overhead), the headline claim
// (headline), the async-vs-sync substrate comparison (async-sync), whose
// "+async" rows must reproduce their synchronous base rows exactly, and
// the Byzantine robustness grid (byzantine): seeded attacks × robust
// merge rules. -attack/-attack-frac/-merger instead apply one
// scale-wide fault model and merge rule to any grid experiment's cells.
// The ablations are grid experiments too: they take -shard, -cache and
// the scale-wide -attack/-merger, and their reference arms are Table 3
// cells, served from a cache that holds Table 3.
//
// Sharding: a grid experiment's cells are enumerated in a deterministic
// canonical order, and -shard i/n runs exactly the cells whose position
// is congruent to i-1 mod n, writing their results as a binary artifact
// file instead of text. -merge dir/ loads every *.art file in dir,
// verifies the shards cover the full grid, and renders output
// byte-identical to the unsharded run.
//
// Caching: -cache dir/ keeps a content-addressed record per computed
// grid cell, keyed by the cell spec plus every scale field that can
// change its result. Any later invocation — plain, -shard or -seeds —
// loads matching cells instead of recomputing them and renders
// byte-identical output; a one-line hit/miss summary goes to stderr.
// -cache-readonly serves hits without writing back; -no-cache
// explicitly disables caching and conflicts with the other two.
//
// Cache GC: long-lived shared caches grow without bound, so -cache-gc
// runs a maintenance pass over -cache dir/ and exits: records that can
// never hit again (stale schema, corruption) and abandoned temp files
// are pruned, and with -cache-max-bytes the oldest records (by file
// mtime) are evicted until the directory fits the budget. A one-line
// pruned/evicted/kept summary goes to stderr. Eviction only costs
// future hits — an evicted cell is recomputed exactly like a miss.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"feddrl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id or 'all'")
	scaleName := fs.String("scale", "ci", "scale: ci, medium or paper")
	seed := fs.Uint64("seed", 1, "experiment seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	csvDir := fs.String("csvdir", "", "also export figure series as CSV into this directory (figure5/7/8)")
	rounds := fs.Int("rounds", 0, "override the scale's communication rounds (0 = keep)")
	workers := fs.Int("workers", 0, "work-stealing engine lanes shared by the experiment grid, every federated run and every evaluation (0 = the scale's default, -1 = GOMAXPROCS); output is identical at any width")
	precName := fs.String("precision", "f64", "federated-state width for every cell: f64 (full, the default) or f32 (half-width uploads and merge); f32 and f64 cells have separate cache keys")
	attackName := fs.String("attack", "none", "scale-wide Byzantine fault model for every cell: none, signflip, gauss, replace, collude or labelflip; attacked cells have separate cache keys")
	attackFrac := fs.Float64("attack-frac", 0.2, "malicious client fraction for -attack")
	mergerName := fs.String("merger", "", "scale-wide server merge rule for every cell: weighted (the default impact-factor merge), median, trimmed or krum")
	seeds := fs.Int("seeds", 1, "seed replicates per cell; >1 renders mean±std columns (grid experiments with a multi-seed renderer)")
	shard := fs.String("shard", "", "run a deterministic slice of a grid experiment, as i/n (e.g. 1/2); writes a binary artifact file instead of text")
	merge := fs.String("merge", "", "merge the shard artifact files (*.art) in this directory and render the combined experiment")
	out := fs.String("out", "", "artifact output path for -shard (default <exp>_<scale>_seed<seed>_seeds<m>_shard<i>of<n>.art)")
	cacheDir := fs.String("cache", "", "content-addressed artifact cache directory (created if missing): grid cells already cached are loaded instead of recomputed, fresh cells are written back")
	cacheRO := fs.Bool("cache-readonly", false, "with -cache: serve cache hits but never write new records (for shared or audited cache directories)")
	noCache := fs.Bool("no-cache", false, "explicitly disable artifact caching; conflicts with -cache and -cache-readonly")
	cacheGC := fs.Bool("cache-gc", false, "garbage-collect the -cache directory and exit: prune stale-schema/corrupt records and abandoned temp files, then evict oldest records down to -cache-max-bytes")
	cacheMax := fs.Int64("cache-max-bytes", 0, "with -cache-gc: evict records oldest-mtime-first until the cache fits this many bytes (0 = prune only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, n := range feddrl.ExperimentNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	if *merge != "" {
		// -merge reads everything (experiment, scale, rounds, seed,
		// seeds) from the artifact headers; any other experiment flag
		// would be silently ignored, so reject the combination.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "merge":
			default:
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "tables: -merge reads its configuration from the artifact files; drop -%s\n", conflict)
			return 2
		}
		return runMerge(*merge, stdout, stderr)
	}

	if *cacheGC {
		// -cache-gc is a maintenance pass, not a run: any experiment
		// flag would be silently ignored, so reject the combination.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cache-gc", "cache", "cache-max-bytes":
			default:
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "tables: -cache-gc only combines with -cache and -cache-max-bytes; drop -%s\n", conflict)
			return 2
		}
		return runCacheGC(*cacheDir, *cacheMax, stderr)
	}
	if *cacheMax != 0 {
		fmt.Fprintln(stderr, "tables: -cache-max-bytes only applies to -cache-gc")
		return 2
	}

	scale, err := feddrl.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *rounds < 0 {
		fmt.Fprintf(stderr, "tables: -rounds must be >= 0 (0 keeps the scale's rounds), got %d\n", *rounds)
		return 2
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
	}
	switch {
	case *workers > 0:
		scale.Workers = *workers
	case *workers < 0:
		scale.Workers = runtime.GOMAXPROCS(0)
	}
	prec, err := feddrl.ParsePrecision(*precName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// "f64" canonicalizes to the zero value so "-precision f64" and the
	// default share cache records; F32 cells hash to distinct addresses.
	if prec == feddrl.F32 {
		scale.Precision = string(prec)
	}
	// Same canonicalization for the Byzantine knobs: only a real attack
	// or a non-default merge rule reaches the Scale (and hence the cell
	// cache addresses); "-attack none"/"-merger weighted" spellings stay
	// byte-identical to the defaults. Validation runs regardless so a
	// typo fails fast.
	attack, err := feddrl.ParseAttack(*attackName, *attackFrac)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if _, err := feddrl.ParseMerger(*mergerName, *attackFrac, 2); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if attack != nil {
		scale.Attack = *attackName
		scale.AttackFrac = *attackFrac
	}
	if *mergerName != "" && *mergerName != "weighted" {
		scale.Merger = *mergerName
	}
	if *seeds < 1 {
		fmt.Fprintln(stderr, "tables: -seeds must be >= 1")
		return 2
	}
	if *seeds > 1 && *csvDir != "" {
		fmt.Fprintln(stderr, "tables: -csvdir exports single-seed series and cannot be combined with -seeds > 1")
		return 2
	}
	if *shard != "" && *csvDir != "" {
		fmt.Fprintln(stderr, "tables: -shard writes an artifact file and cannot be combined with -csvdir")
		return 2
	}
	if *out != "" && *shard == "" {
		fmt.Fprintln(stderr, "tables: -out only applies to -shard artifact runs")
		return 2
	}
	if *noCache && (*cacheDir != "" || *cacheRO) {
		fmt.Fprintln(stderr, "tables: -no-cache conflicts with -cache/-cache-readonly")
		return 2
	}
	if *cacheRO && *cacheDir == "" {
		fmt.Fprintln(stderr, "tables: -cache-readonly needs -cache dir/")
		return 2
	}
	var cache *feddrl.ExperimentCache
	if *cacheDir != "" {
		var err error
		cache, err = feddrl.OpenExperimentCache(*cacheDir, *cacheRO)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *shard != "" {
		return runShard(*exp, scale, *seed, *seeds, *shard, *out, cache, stdout, stderr)
	}

	ids := []string{*exp}
	if *exp == "all" {
		if *seeds > 1 {
			fmt.Fprintln(stderr, "tables: -seeds needs a specific -exp (not 'all')")
			return 2
		}
		ids = feddrl.ExperimentNames()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := feddrl.RunExperimentSeedsCached(id, scale, *seed, *seeds, cache)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "### %s (scale=%s, seed=%d, took %v)\n\n%s\n", id, scale.Name, *seed, time.Since(start).Round(time.Millisecond), out)
		if *csvDir != "" && (id == "figure5" || id == "figure7" || id == "figure8") {
			paths, err := feddrl.ExportExperimentCSVCached(id, scale, *seed, *csvDir, cache)
			if err != nil {
				fmt.Fprintf(stderr, "csv export of %s failed: %v\n", id, err)
			}
			for _, p := range paths {
				fmt.Fprintf(stdout, "csv: %s\n", p)
			}
		}
	}
	// The summary goes to stderr so cached and uncached stdout stay
	// byte-identical (the byte-identity gate in scripts/verify.sh).
	if cache != nil {
		fmt.Fprintf(stderr, "cache: %s\n", cache.Summary())
	}
	return 0
}

// runCacheGC runs the cache maintenance pass: prune invalid records
// and abandoned temp files, then evict by mtime to the byte budget.
// The summary goes to stderr, like the cache hit/miss line.
func runCacheGC(dir string, maxBytes int64, stderr io.Writer) int {
	if dir == "" {
		fmt.Fprintln(stderr, "tables: -cache-gc needs -cache dir/")
		return 2
	}
	// OpenExperimentCache would create a missing directory; for a
	// maintenance pass a typo'd path should fail instead.
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		fmt.Fprintf(stderr, "tables: -cache-gc: %s is not an existing cache directory\n", dir)
		return 2
	}
	cache, err := feddrl.OpenExperimentCache(dir, false)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	st, err := cache.GC(maxBytes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stderr, "cache-gc: %s\n", st.Summary(dir))
	return 0
}

// runShard executes one 1/n slice of a grid experiment and writes its
// artifact file. With a cache, cells completed by any earlier run —
// including an interrupted attempt at this very shard — are loaded
// instead of recomputed.
func runShard(exp string, scale feddrl.Scale, seed uint64, seeds int, shard, out string, cache *feddrl.ExperimentCache, stdout, stderr io.Writer) int {
	if exp == "all" {
		fmt.Fprintln(stderr, "tables: -shard needs a specific -exp (not 'all')")
		return 2
	}
	index, count, err := parseShard(shard)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	set, err := feddrl.RunExperimentShardCached(exp, scale, seed, seeds, index, count, cache)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if out == "" {
		out = fmt.Sprintf("%s_%s_seed%d_seeds%d_shard%dof%d.art", exp, scale.Name, seed, seeds, index, count)
	}
	if dir := filepath.Dir(out); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "tables: artifact dir: %v\n", err)
			return 2
		}
	}
	if err := set.SaveFile(out); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (%s shard %d/%d, %d cells)\n", out, exp, index, count, set.Len())
	if cache != nil {
		fmt.Fprintf(stderr, "cache: %s\n", cache.Summary())
	}
	return 0
}

// runMerge recombines the shard artifacts in a directory and renders
// the experiment they belong to.
func runMerge(dir string, stdout, stderr io.Writer) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "tables: no *.art shard files in %s\n", dir)
		return 2
	}
	sort.Strings(paths)
	sets := make([]*feddrl.ExperimentArtifacts, 0, len(paths))
	for _, p := range paths {
		set, err := feddrl.LoadExperimentArtifacts(p)
		if err != nil {
			fmt.Fprintf(stderr, "tables: %s: %v\n", p, err)
			return 2
		}
		sets = append(sets, set)
	}
	merged, err := feddrl.MergeExperimentArtifacts(sets)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	scale, err := feddrl.ScaleByName(merged.ScaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	scale.Rounds = merged.Rounds
	out, err := feddrl.RenderExperimentArtifacts(scale, merged)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "### %s (scale=%s, seed=%d, merged from %d shards)\n\n%s\n", merged.Experiment, merged.ScaleName, merged.Seed, len(sets), out)
	return 0
}

// parseShard parses an "i/n" shard selector. Range validation (1 <= i
// <= n) lives in the library's shard scheduler, whose error surfaces
// through RunExperimentShard.
func parseShard(s string) (index, count int, err error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("tables: -shard %q is not of the form i/n", s)
	}
	index, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("tables: -shard index %q: %v", parts[0], err)
	}
	count, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("tables: -shard count %q: %v", parts[1], err)
	}
	return index, count, nil
}
