package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTablesList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"table2", "table3", "figure9", "headline", "async-sync"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTablesAsyncSync runs the async-vs-sync grid through the real CLI
// at a tiny scale: the "+async" degenerate rows must render, and the
// experiment must complete cleanly end to end.
func TestTablesAsyncSync(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "async-sync", "-scale", "ci", "-rounds", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("async-sync exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"FedAvg+async", "FedDRL+stale", "degenerate trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("async-sync output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTablesRunsExperiment regenerates the cheapest paper artifact
// (Table 2 is pure partition statistics, no training).
func TestTablesRunsExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table2", "-scale", "ci"}, &out, &errOut); code != 0 {
		t.Fatalf("table2 exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "### table2") {
		t.Fatalf("missing experiment header:\n%s", out.String())
	}
}

// TestTablesWorkersFlag checks that -workers reaches the grid runner and
// does not change rendered results (figure4 is training-free; use a
// trained figure at tiny rounds for the real check).
func TestTablesWorkersFlag(t *testing.T) {
	render := func(workers string) string {
		var out, errOut bytes.Buffer
		args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-workers", workers}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, errOut.String())
		}
		// Strip the timing header line, which legitimately varies.
		s := out.String()
		return s[strings.Index(s, "\n"):]
	}
	if render("1") != render("3") {
		t.Fatal("figure8 output differs between -workers 1 and -workers 3")
	}
}

// TestTablesShardMergeRoundTrip runs a small grid as two shards through
// the real CLI, merges the artifact files, and requires the rendered
// body (everything after the one-line header) to be byte-identical to
// the unsharded run.
func TestTablesShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1"}

	var full, errOut bytes.Buffer
	if code := run(base, &full, &errOut); code != 0 {
		t.Fatalf("unsharded run exited %d: %s", code, errOut.String())
	}
	for i := 1; i <= 2; i++ {
		var out bytes.Buffer
		errOut.Reset()
		args := append(append([]string{}, base...),
			"-shard", fmt.Sprintf("%d/2", i),
			"-out", filepath.Join(dir, fmt.Sprintf("s%d.art", i)))
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("shard %d exited %d: %s", i, code, errOut.String())
		}
		if !strings.Contains(out.String(), "wrote ") {
			t.Fatalf("shard %d did not report its artifact: %s", i, out.String())
		}
	}
	var merged bytes.Buffer
	errOut.Reset()
	if code := run([]string{"-merge", dir}, &merged, &errOut); code != 0 {
		t.Fatalf("merge exited %d: %s", code, errOut.String())
	}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }
	if body(merged.String()) != body(full.String()) {
		t.Fatalf("merged body differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			full.String(), merged.String())
	}
}

func TestTablesSeedsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seeds", "2"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("-seeds run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "mean±std of 2 seeds") || !strings.Contains(out.String(), "±") {
		t.Fatalf("-seeds output missing mean±std columns:\n%s", out.String())
	}
}

func TestTablesShardBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-shard", "nope"},
		{"-exp", "table3", "-shard", "3/2"},
		{"-exp", "table3", "-shard", "0/2"},
		{"-exp", "all", "-shard", "1/2"},
		{"-exp", "table2", "-shard", "1/2"}, // monolithic: not shardable
		{"-exp", "all", "-seeds", "2"},
		{"-exp", "table3", "-seeds", "0"},
		{"-exp", "figure7", "-seeds", "2", "-csvdir", "out"},   // CSVs are single-seed
		{"-exp", "figure7", "-shard", "1/2", "-csvdir", "out"}, // shard writes artifacts, not CSVs
		{"-merge", "dir", "-exp", "table3"},                    // merge reads config from artifacts
		{"-exp", "table3", "-out", "x.art"},                    // -out without -shard
		{"-merge", "no-such-dir"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestTablesCacheColdWarm is the CLI half of the cache acceptance
// criterion: a second identical invocation with -cache computes 0 cells
// (the stderr summary says so) and renders a byte-identical body; after
// deleting one record, exactly one cell recomputes.
func TestTablesCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1", "-cache", cacheDir}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }

	var cold, coldErr bytes.Buffer
	if code := run(base, &cold, &coldErr); code != 0 {
		t.Fatalf("cold cached run exited %d: %s", code, coldErr.String())
	}
	if !strings.Contains(coldErr.String(), "cache: ") || !strings.Contains(coldErr.String(), "0 hits") {
		t.Fatalf("cold run summary missing or wrong: %s", coldErr.String())
	}

	var warm, warmErr bytes.Buffer
	if code := run(base, &warm, &warmErr); code != 0 {
		t.Fatalf("warm cached run exited %d: %s", code, warmErr.String())
	}
	if body(warm.String()) != body(cold.String()) {
		t.Fatalf("warm cached body differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
	if !strings.Contains(warmErr.String(), "0 misses") {
		t.Fatalf("warm run should report 0 misses: %s", warmErr.String())
	}

	// Delete one record: exactly one cell recomputes.
	records, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(records) < 2 {
		t.Fatalf("cache records: %v (%d found)", err, len(records))
	}
	if err := os.Remove(records[0]); err != nil {
		t.Fatal(err)
	}
	var again, againErr bytes.Buffer
	if code := run(base, &again, &againErr); code != 0 {
		t.Fatalf("post-delete run exited %d: %s", code, againErr.String())
	}
	if body(again.String()) != body(cold.String()) {
		t.Fatal("post-delete body differs")
	}
	if !strings.Contains(againErr.String(), "1 misses, 1 written") {
		t.Fatalf("post-delete run should recompute exactly one cell: %s", againErr.String())
	}

	// Readonly: hits only, no writes.
	var ro, roErr bytes.Buffer
	if code := run(append(append([]string{}, base...), "-cache-readonly"), &ro, &roErr); code != 0 {
		t.Fatalf("readonly run exited %d: %s", code, roErr.String())
	}
	if body(ro.String()) != body(cold.String()) {
		t.Fatal("readonly body differs")
	}
	if !strings.Contains(roErr.String(), "0 misses, 0 written") {
		t.Fatalf("readonly run summary wrong: %s", roErr.String())
	}
}

// TestTablesCacheShard: -shard composes with -cache, and a shard rerun
// against a warm cache computes nothing.
func TestTablesCacheShard(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1",
		"-shard", "1/2", "-out", filepath.Join(dir, "s1.art"), "-cache", cacheDir}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("cached shard exited %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("warm cached shard exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "0 misses") {
		t.Fatalf("warm shard rerun should compute nothing: %s", errOut.String())
	}
}

func TestTablesCacheFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-no-cache", "-cache", "dir"},
		{"-exp", "table3", "-no-cache", "-cache-readonly"},
		{"-exp", "table3", "-cache-readonly"}, // readonly without -cache
		{"-merge", "dir", "-cache", "dir"},    // merge reads config from artifacts
		{"-exp", "table3", "-cache", ""},      // empty dir with readonly is still invalid
	} {
		args := args
		if args[len(args)-1] == "" {
			args = append(args, "-cache-readonly")
		}
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestTablesCacheGC populates a cache, corrupts one record, GCs with a
// byte budget, and checks the stderr summary plus the warm-rerun
// behavior on what survived.
func TestTablesCacheGC(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1", "-cache", cacheDir}
	var out, errOut bytes.Buffer
	if code := run(base, &out, &errOut); code != 0 {
		t.Fatalf("populate run exited %d: %s", code, errOut.String())
	}
	records, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(records) < 2 {
		t.Fatalf("cache records: %v (%d found)", err, len(records))
	}
	if err := os.Truncate(records[0], 4); err != nil {
		t.Fatal(err)
	}

	// Prune-only pass removes exactly the corrupt record.
	var gcOut, gcErr bytes.Buffer
	if code := run([]string{"-cache-gc", "-cache", cacheDir}, &gcOut, &gcErr); code != 0 {
		t.Fatalf("cache-gc exited %d: %s", code, gcErr.String())
	}
	if gcOut.Len() != 0 {
		t.Fatalf("cache-gc wrote to stdout: %q", gcOut.String())
	}
	want := fmt.Sprintf("cache-gc: pruned 1 stale, evicted 0 old, kept %d", len(records)-1)
	if !strings.Contains(gcErr.String(), want) {
		t.Fatalf("cache-gc summary %q missing %q", gcErr.String(), want)
	}

	// A tiny byte budget evicts everything else.
	gcErr.Reset()
	if code := run([]string{"-cache-gc", "-cache", cacheDir, "-cache-max-bytes", "1"}, &gcOut, &gcErr); code != 0 {
		t.Fatalf("budgeted cache-gc exited %d: %s", code, gcErr.String())
	}
	if want := fmt.Sprintf("evicted %d old, kept 0 (0 bytes)", len(records)-1); !strings.Contains(gcErr.String(), want) {
		t.Fatalf("budgeted cache-gc summary %q missing %q", gcErr.String(), want)
	}
	left, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(left) != 0 {
		t.Fatalf("records left after full eviction: %v", left)
	}
}

func TestTablesCacheGCBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-gc"},                                     // no -cache dir
		{"-cache-gc", "-cache", "does-not-exist-xyz"},     // missing dir must not be created
		{"-cache-gc", "-cache", "d", "-exp", "table3"},    // experiment flags conflict
		{"-cache-gc", "-cache", "d", "-cache-readonly"},   // readonly conflicts
		{"-cache-max-bytes", "10", "-exp", "table3"},      // budget without -cache-gc
		{"-cache-gc", "-cache", "d", "-no-cache"},         // no-cache conflicts
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
	if _, err := os.Stat("does-not-exist-xyz"); !os.IsNotExist(err) {
		t.Fatal("-cache-gc created the missing cache directory")
	}
}

// TestTablesPrecisionFlag checks -precision end to end: f32 runs
// render, "-precision f64" is byte-identical to the default, f32 and
// f64 cells occupy disjoint cache addresses, and invalid spellings or
// mode conflicts are rejected.
func TestTablesPrecisionFlag(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1"}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }

	var f64Out, errOut bytes.Buffer
	if code := run(append(append([]string{}, base...), "-cache", cacheDir), &f64Out, &errOut); code != 0 {
		t.Fatalf("default-precision run exited %d: %s", code, errOut.String())
	}

	var spelled bytes.Buffer
	errOut.Reset()
	if code := run(append(append([]string{}, base...), "-precision", "f64"), &spelled, &errOut); code != 0 {
		t.Fatalf("-precision f64 exited %d: %s", code, errOut.String())
	}
	if body(spelled.String()) != body(f64Out.String()) {
		t.Fatal("-precision f64 body differs from the default run")
	}

	// f32 renders against the same (warm f64) cache with zero hits:
	// the Precision axis keys separate records.
	var f32Out, f32Err bytes.Buffer
	if code := run(append(append([]string{}, base...), "-precision", "f32", "-cache", cacheDir), &f32Out, &f32Err); code != 0 {
		t.Fatalf("-precision f32 exited %d: %s", code, f32Err.String())
	}
	if !strings.Contains(f32Out.String(), "### figure8") {
		t.Fatalf("-precision f32 missing experiment header:\n%s", f32Out.String())
	}
	if !strings.Contains(f32Err.String(), "0 hits") {
		t.Fatalf("f32 run against f64 cache should have 0 hits: %s", f32Err.String())
	}

	for _, args := range [][]string{
		{"-exp", "figure8", "-precision", "f16"},       // unknown spelling
		{"-merge", dir, "-precision", "f32"},           // merge reads config from artifacts
		{"-cache-gc", "-cache", dir, "-precision", "f32"}, // gc is a maintenance pass
	} {
		var out, bad bytes.Buffer
		if code := run(args, &out, &bad); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestTablesBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("bad scale accepted")
	}
	if code := run([]string{"-exp", "nope", "-scale", "ci"}, &out, &errOut); code == 0 {
		t.Fatal("bad experiment id accepted")
	}
	if code := run([]string{"-exp", "table2", "-rounds", "-3"}, &out, &errOut); code != 2 {
		t.Fatalf("-rounds -3 exited %d, want 2", code)
	}
}
