// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time and prints every metric with its unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, ...}}
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload feddrl-cell --seed 3 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// the separate traced run that reports the per-layer metrics: every
// workload's layers are traced on that workload's own inputs (built from
// the same seed), and the requested workload also gets the untraced and
// single-worker comparisons behind trace.overhead_frac, trace.coverage
// and engine.speedup. Spans are written to .bench_build when the run ends.
//
// Every pass is checked: its output digest (rendered text for the grids,
// the final weights' bits for the FedDRL cell) must equal the warm-up
// pass's, and so must the traced and single-worker passes'; cache replays
// must not miss; every accuracy must be finite. A failed check counts in
// "failed" and makes "correct" false.
//
// Not yet measured from outside the program: the split of client training
// (fl.train.ms) into nn forward, backward and tensor GEMM; the engine
// counters of the pool a grid creates internally; and the f32 precision
// mode, which no workload turns on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. wall_s and cpu_s are per pass; rounds_per_s and
// cells_per_s divide the warm-up pass's rounds and cells by wall_s.
var endToEnd = []metricDef{
	{"wall_s", "s"},         // median wall time of one timed pass
	{"cpu_s", "s"},          // process user+sys CPU per timed pass (mean: rusage ticks are coarse)
	{"setup_s", "s"},        // median of three input builds, plus the warm-up pass
	{"rounds_per_s", "1/s"}, // communication rounds delivered per second, summed over cells
	{"cells_per_s", "1/s"},  // cells delivered per second
	{"peak_rss_mb", "MB"},   // peak resident memory of the process
}

// perLayer are the traced run's metrics. Each note names the end-to-end
// metric it should move and on which workload.
var perLayer = []metricDef{
	{"host.calib_ms", "ms"},            // fixed CPU loop: host speed, not the program
	{"engine.speedup", "ratio"},        // Workers=1 wall / nproc wall of the requested workload: wall_s on table3-ci and robust-async, ~1 on feddrl-cell
	{"engine.enqueues", "count"},       // feddrl-cell pool: wall_s on feddrl-cell
	{"engine.steals", "count"},         // feddrl-cell pool: wall_s on feddrl-cell
	{"engine.max_lanes_busy", "count"}, // feddrl-cell pool: wall_s on feddrl-cell
	{"fl.round.count", "count"},        // feddrl-cell, Selector wrapper: rounds_per_s on feddrl-cell
	{"fl.round.ms_p50", "ms"},
	{"fl.round.ms_p99", "ms"},
	{"fl.train.ms", "ms"},       // round self time minus decide, merge, eval: wall_s on feddrl-cell (table3-ci via cell spans)
	{"fl.merge.calls", "count"}, // feddrl-cell Merger wrapper: predicted flat
	{"fl.merge.ms", "ms"},
	{"fl.merge.weighted.ms_per_call", "ms"}, // robust cells' cohort shape: wall_s on robust-async only
	{"fl.merge.median.ms_per_call", "ms"},
	{"fl.merge.trimmed.ms_per_call", "ms"},
	{"fl.merge.krum.ms_per_call", "ms"},
	{"fl.merge.kept_ratio", "ratio"}, // merged over arrived uploads, robust-async
	{"fl.eval.ms", "ms"},             // Evaluator.Eval x evaluations, feddrl-cell
	{"core.decide.calls", "count"},   // feddrl-cell Aggregator wrapper: wall_s, rounds_per_s on feddrl-cell; a little on table3-ci; none on cache-replay
	{"core.decide.ms_p50", "ms"},
	{"core.decide.ms_p99", "ms"},
	{"core.decide.share", "ratio"},
	{"nn.models_built", "count"},       // Factory calls, must stay O(K)
	{"dataset.synthesize_ms", "ms"},    // per-cell synthesis, table3-ci: wall_s on table3-ci, setup_s on feddrl-cell
	{"partition.build_ms", "ms"},       // per-cell partitioning, same
	{"experiments.grid_gain", "ratio"}, // table3-ci: summed cell spans / untraced wall
	{"experiments.render_ms", "ms"},    // cache-replay: cells_per_s on cache-replay
	{"experiments.cache.read_us", "us"},
	{"experiments.cache.hit_ratio", "ratio"},
	{"experiments.cache.written", "count"},
	{"serialize.decode_us", "us"},
	{"trace.overhead_frac", "ratio"}, // traced / untraced wall - 1, requested workload
	{"trace.coverage", "ratio"},      // time under a layer span / traced wall, requested workload
}

func init() {
	// Cell spans per grid and method (table3-ci and robust-async):
	// wall_s on the workload that runs the grid.
	for _, grid := range []string{"table3", "byzantine", "async-sync"} {
		for _, method := range gridMethods[grid] {
			for _, stat := range []string{"p50", "sum"} {
				perLayer = append(perLayer, metricDef{"experiments.cell_ms." + grid + "." + method + "." + stat, "ms"})
			}
		}
	}
}

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 3

// buildDir is where the benchmark writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: every input is built from it")
	seconds := fs.Int("seconds", 10, "length of the timed region")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	workers := runtime.NumCPU()
	var res *result
	if *trace == 0 {
		res, err = measure(w, *seed, workers, time.Duration(*seconds)*time.Second, dir)
	} else {
		var rec *recorder
		res, rec, err = traceRun(w, *seed, workers, dir)
		if rec != nil {
			spans := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
			if werr := rec.write(spans); werr != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", werr)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := res.finish(defs, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	for _, msg := range res.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// result gathers one run's metrics and correctness checks.
type result struct {
	metrics   map[string]float64
	extra     map[string]float64 // printed in the report, not in the JSON line
	attempted int
	failures  []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, extra: map[string]float64{}}
}

// check counts one attempted operation and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.failures) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable report and returns the JSON line. A
// declared metric that is missing or not finite fails the run.
func (r *result) finish(defs []metricDef, stdout io.Writer) (string, error) {
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.failures = append(r.failures, fmt.Sprintf("metric %s missing or not finite (%v)", d.name, v))
			v = 0
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-48s %14.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for name := range r.extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(stdout, "%-48s %14.6g (not in the result line)\n", name, r.extra[name])
	}
	fmt.Fprintf(stdout, "%-48s %14d of %d\n", "failed", len(r.failures), r.attempted)
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), len(r.failures), out})
	return string(b), err
}

// setUp opens the workload three times (keeping the last) and runs the
// warm-up pass. The warm-up is the process's first pass of the workload,
// so the lazy set-up the first pass pays is part of setup_s.
func setUp(w workload, seed uint64, workers int, dir string, r *result) (instance, output, float64, error) {
	var opens []float64
	var inst instance
	for i := 0; i < 3; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.open(seed, workers, dir); err != nil {
			return nil, output{}, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	ref, err := inst.warm()
	warm := time.Since(t0).Seconds()
	if err != nil {
		inst.close()
		return nil, output{}, 0, err
	}
	r.check(ref.finite(), "%s: warm-up accuracies are not all finite: %v", w.name, ref.finals)
	return inst, ref, median(opens) + warm, nil
}

// passes runs n passes, each checked against want, and returns their
// walls in seconds.
func passes(inst instance, n int, want, label string, r *result) []float64 {
	var walls []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, err := inst.pass()
		walls = append(walls, time.Since(t0).Seconds())
		r.check(err == nil && got == want, "%s pass: digest %s, want %s (err %v)", label, got, want, err)
	}
	return walls
}

// measure is the untraced run: set-up, then passes until the timed
// region has lasted the given time (and at least minPasses).
func measure(w workload, seed uint64, workers int, length time.Duration, dir string) (*result, error) {
	r := newResult()
	calib := calibrate()
	inst, ref, setup, err := setUp(w, seed, workers, dir, r)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var walls []float64
	cpu0 := cpuTime()
	start := time.Now()
	for len(walls) < minPasses || time.Since(start) < length {
		walls = append(walls, passes(inst, inst.reps(), ref.digest, w.name, r)...)
	}
	cpu := cpuTime() - cpu0
	r.extra["host.calib_ms"] = median(append(calib, calibrate()...))

	wall := median(walls)
	r.metrics["wall_s"] = wall
	r.metrics["cpu_s"] = cpu.Seconds() / float64(len(walls))
	r.metrics["setup_s"] = setup
	r.metrics["rounds_per_s"] = float64(ref.rounds) / wall
	r.metrics["cells_per_s"] = float64(ref.cells) / wall
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.extra["final_acc_pct"] = mean(ref.finals)
	r.extra["passes"] = float64(len(walls))
	return r, nil
}

// traceRun is the traced run. Every workload, the requested one first,
// is set up and run untraced, then traced, and its layers report their
// metrics. The requested workload also runs at Workers=1.
func traceRun(w workload, seed uint64, workers int, dir string) (*result, *recorder, error) {
	r := newResult()
	rec := newRecorder()
	calib := calibrate()
	order := []workload{w}
	for _, v := range workloads {
		if v.name != w.name {
			order = append(order, v)
		}
	}
	for _, v := range order {
		inst, ref, _, err := setUp(v, seed, workers, dir, r)
		if err != nil {
			return nil, rec, err
		}
		n := inst.reps()
		untraced := median(passes(inst, n, ref.digest, v.name+" untraced", r))
		var roots []int
		var traced []float64
		var covered float64 // ms
		for i := 0; i < n; i++ {
			root := rec.begin("pass."+v.name, -1)
			got, err := inst.traced(rec, root)
			traced = append(traced, ms(rec.end(root)))
			covered += sum(rec.children(root, ""))
			roots = append(roots, root)
			r.check(err == nil && got == ref.digest, "%s traced pass: digest %s, want %s (err %v)", v.name, got, ref.digest, err)
		}
		if err := inst.layers(rec, roots, untraced*1000, r.metrics); err != nil {
			inst.close()
			return nil, rec, fmt.Errorf("%s layers: %w", v.name, err)
		}
		if v.name == w.name {
			r.metrics["trace.overhead_frac"] = median(traced)/(untraced*1000) - 1
			r.metrics["trace.coverage"] = covered / sum(traced)
			inst.setWorkers(1)
			single := median(passes(inst, n, ref.digest, v.name+" Workers=1", r))
			r.metrics["engine.speedup"] = single / untraced
		}
		inst.close()
	}
	r.metrics["host.calib_ms"] = median(append(calib, calibrate()...))
	return r, rec, nil
}
