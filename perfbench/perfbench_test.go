package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// smallGrid is the async-sync grid at two rounds: both engines, FedAvg
// and FedDRL, in about a second.
func smallGrid(seed uint64) *gridBench {
	s := ciScale(2)
	s.Rounds = 2
	return &gridBench{grids: []string{"async-sync"}, s: s, seed: seed}
}

// TestTracedMatchesUntraced checks that the pass-through wrappers and the
// per-cell traced path change no output bit.
func TestTracedMatchesUntraced(t *testing.T) {
	cases := map[string]instance{
		"cell": newCell(7, 2, 6),
		"grid": smallGrid(7),
	}
	for name, inst := range cases {
		ref, err := inst.warm()
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		got, err := inst.pass()
		if err != nil || got != ref.digest {
			t.Fatalf("%s untraced pass: digest %s, want %s (err %v)", name, got, ref.digest, err)
		}
		rec := newRecorder()
		root := rec.begin("pass", -1)
		got, err = inst.traced(rec, root)
		rec.end(root)
		if err != nil || got != ref.digest {
			t.Fatalf("%s traced pass: digest %s, want %s (err %v)", name, got, ref.digest, err)
		}
		inst.setWorkers(1)
		if got, err = inst.pass(); err != nil || got != ref.digest {
			t.Fatalf("%s Workers=1 pass: digest %s, want %s (err %v)", name, got, ref.digest, err)
		}
		inst.close()
	}
}

// TestCellSpans checks the round structure the wrappers record.
func TestCellSpans(t *testing.T) {
	const rounds = 6
	b := newCell(3, 2, rounds)
	defer b.close()
	rec := newRecorder()
	root := rec.begin("pass", -1)
	if _, err := b.traced(rec, root); err != nil {
		t.Fatal(err)
	}
	rec.end(root)
	for _, name := range []string{"fl.round", "core.decide", "fl.merge"} {
		if got := len(rec.durations(name)); got != rounds {
			t.Errorf("%d %s spans, want %d", got, name, rounds)
		}
	}
	for i, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) not closed", i, s.Name)
		}
		if s.Name == "core.decide" || s.Name == "fl.merge" {
			if p := rec.spans[s.Parent].Name; p != "fl.round" {
				t.Errorf("%s span under %q, want fl.round", s.Name, p)
			}
		}
	}
	m := map[string]float64{}
	if err := b.layers(rec, []int{root}, 1, m); err != nil {
		t.Fatal(err)
	}
	if m["fl.train.ms"] <= 0 || m["nn.models_built"] <= 0 {
		t.Errorf("layer metrics %v", m)
	}
}

// TestReplayMatchesCold checks the cache workload's gate on a short grid.
func TestReplayMatchesCold(t *testing.T) {
	inst, err := openReplay(5, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	b := inst.(*replayBench)
	b.s.Rounds = 2
	ref, err := b.warm()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	root := rec.begin("pass", -1)
	got, err := b.traced(rec, root)
	rec.end(root)
	if err != nil || got != ref.digest {
		t.Fatalf("traced replay: digest %s, want %s (err %v)", got, ref.digest, err)
	}
	if got, err = b.pass(); err != nil || got != ref.digest {
		t.Fatalf("replay: digest %s, want %s (err %v)", got, ref.digest, err)
	}
}

// TestSeedChangesInputsAndOutput checks that the seed argument reaches
// the inputs and the outputs.
func TestSeedChangesInputsAndOutput(t *testing.T) {
	a, b := newCell(1, 2, 3), newCell(2, 2, 3)
	defer a.close()
	defer b.close()
	if digestBits(a.train.X) == digestBits(b.train.X) {
		t.Error("seeds 1 and 2 synthesize the same training data")
	}
	da, _ := a.pass()
	db, _ := b.pass()
	if da == db {
		t.Error("seeds 1 and 2 give the same FedDRL cell digest")
	}
	ga, err := smallGrid(1).pass()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := smallGrid(2).pass()
	if err != nil {
		t.Fatal(err)
	}
	if ga == gb {
		t.Error("seeds 1 and 2 give the same grid digest")
	}
}

// TestMetricNames checks every metric name and that BENCHMARK.json
// declares exactly the workloads and metrics this program reports.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
