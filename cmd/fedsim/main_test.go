package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs invokes the CLI entrypoint and returns stdout.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) exited %d: %s", args, code, errOut.String())
	}
	return out.String()
}

// tiny holds the flags that make a run finish in well under a second.
var tiny = []string{"-datascale", "0.05", "-rounds", "2", "-clients", "4", "-k", "2", "-epochs", "1"}

func TestFedsimSmoke(t *testing.T) {
	for _, method := range []string{"SingleSet", "FedAvg", "FedProx", "FedDRL"} {
		out := runArgs(t, append([]string{"-method", method}, tiny...)...)
		if !strings.Contains(out, "best ") || !strings.Contains(out, "rounds=2") {
			t.Fatalf("%s: unexpected output:\n%s", method, out)
		}
	}
}

// TestFedsimWorkersDeterminism checks the -workers flag end to end: the
// printed report must be byte-identical at any engine width.
func TestFedsimWorkersDeterminism(t *testing.T) {
	args := append([]string{"-method", "FedAvg"}, tiny...)
	want := runArgs(t, append(args, "-workers", "0")...)
	for _, w := range []string{"2", "4", "-1"} {
		got := runArgs(t, append(args, "-workers", w)...)
		// Timing lines legitimately differ; compare everything above them.
		trim := func(s string) string { return s[:strings.LastIndex(s, "mean decision time")] }
		if trim(got) != trim(want) {
			t.Fatalf("-workers %s output differs:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestFedsimPrecisionFlag runs every method under -precision f32: the
// run must complete, and (for the federated methods) the report must be
// byte-identical at any engine width — the f32 determinism contract
// surfaced end to end through the CLI.
func TestFedsimPrecisionFlag(t *testing.T) {
	for _, method := range []string{"SingleSet", "FedAvg", "FedDRL"} {
		out := runArgs(t, append([]string{"-method", method, "-precision", "f32"}, tiny...)...)
		if !strings.Contains(out, "best ") {
			t.Fatalf("%s -precision f32: unexpected output:\n%s", method, out)
		}
	}
	args := append([]string{"-method", "FedAvg", "-precision", "f32"}, tiny...)
	trim := func(s string) string { return s[:strings.LastIndex(s, "mean decision time")] }
	want := runArgs(t, append(args, "-workers", "0")...)
	for _, w := range []string{"2", "-1"} {
		got := runArgs(t, append(args, "-workers", w)...)
		if trim(got) != trim(want) {
			t.Fatalf("-precision f32 -workers %s output differs:\n%s\nvs\n%s", w, got, want)
		}
	}
	// "-precision f64" is the spelled-out default: identical output.
	base := append([]string{"-method", "FedAvg"}, tiny...)
	if got := runArgs(t, append(base, "-precision", "f64")...); trim(got) != trim(runArgs(t, base...)) {
		t.Fatal("-precision f64 differs from the default run")
	}
}

func TestFedsimBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-partition", "nope"},
		{"-method", "nope"},
		{"-precision", "f16"},
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("run(%v) succeeded, want failure", args)
		}
	}
}

// TestFedsimRejectsInvalidValues: out-of-range sizes and rates exit 2
// with one line on stderr instead of panicking inside the run.
func TestFedsimRejectsInvalidValues(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "0"},
		{"-k", "-1"},
		{"-rounds", "0"},
		{"-clients", "0"},
		{"-epochs", "0"},
		{"-lr", "0"},
		{"-clients", "2", "-partition", "CE"},
		{"-clients", "2", "-partition", "CN"},
		{"-delta", "1"},
		{"-datascale", "NaN"},
		{"-datascale", "0"},
		{"-datascale", "-1"},
		{"-datascale", "Inf"},
		{"-explorestd", "-1"},
		{"-explorestd", "NaN"},
		{"-explorestd", "Inf"},
		{"-exploredecay", "0"},
		{"-exploredecay", "2"},
		{"-exploredecay", "NaN"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("run(%v) exited %d, want 2", args, code)
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "-") {
			t.Fatalf("run(%v) stderr %q, want one line naming the flag", args, msg)
		}
		if out.Len() != 0 {
			t.Fatalf("run(%v) wrote to stdout: %q", args, out.String())
		}
	}
}

// TestFedsimZeroExploreNoise pins that -explorestd 0 is a noise-free
// agent rather than a request for the default noise: with no noise to
// decay, the decay rate cannot change the run, while with noise it does.
func TestFedsimZeroExploreNoise(t *testing.T) {
	args := []string{"-datascale", "0.05", "-rounds", "12", "-clients", "4", "-k", "2", "-epochs", "1"}
	trim := func(s string) string { return s[:strings.LastIndex(s, "mean decision time")] }
	report := func(std, decay string) string {
		return trim(runArgs(t, append(args, "-explorestd", std, "-exploredecay", decay)...))
	}
	if report("0", "1") != report("0", "0.5") {
		t.Fatal("-explorestd 0 run depends on -exploredecay: the agent explores")
	}
	if report("0.05", "1") == report("0", "1") {
		t.Fatal("exploration noise does not reach the run; the zero-noise check has no teeth")
	}
}
