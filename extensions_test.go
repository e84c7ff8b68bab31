package feddrl

import (
	"math"
	"path/filepath"
	"testing"
)

// TestDirichletPartitionPublic exercises the related-work Dirichlet
// partitioner through the façade.
func TestDirichletPartitionPublic(t *testing.T) {
	train, _ := Synthesize(MNISTSim().Scaled(0.1), 1)
	a := DirichletPartition(train, 8, 0.5, NewRNG(2))
	st := ComputePartitionStats(train, a)
	if !st.Disjoint || st.Coverage != 1 {
		t.Fatalf("Dirichlet partition invalid: %+v", st)
	}
}

// TestSelectorsWithFedDRL combines the selection-side and
// aggregation-side approaches — the composition §1 positions FedDRL to
// be orthogonal to.
func TestSelectorsWithFedDRL(t *testing.T) {
	spec := MNISTSim().Scaled(0.1)
	train, test := Synthesize(spec, 3)
	assign := ClusteredEqual(train, 6, 0.5, 2, 2, NewRNG(4))
	factory := MLPFactory(train.Dim, []int{16}, train.NumClasses)
	for _, sel := range []Selector{
		UniformSelector{},
		SizeWeightedSelector{},
		PowerOfChoiceSelector{D: 2},
		RoundRobinSelector{},
	} {
		cfg := RunConfig{
			Rounds:   3,
			K:        4,
			Local:    LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
			Factory:  factory,
			Seed:     5,
			Selector: sel,
		}
		res := RunVirtual(cfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 5), test, FedAvg{})
		if len(res.Rounds) != 3 {
			t.Fatalf("selector %s: run incomplete", sel.Name())
		}
	}
}

// TestCompressionPublic round-trips compressed updates through the
// façade and checks the §5.3-adjacent payload accounting.
func TestCompressionPublic(t *testing.T) {
	global := make([]float64, 100)
	w := append([]float64(nil), global...)
	w[7] = 5
	w[42] = -3
	ups := []Update{{ClientID: 0, N: 10, Weights: w}}
	deltas := CompressUpdates(ups, global, 0.05) // keep 5 coords
	if deltas[0].CompressionRatio() < 5 {
		t.Fatalf("compression ratio %v too low", deltas[0].CompressionRatio())
	}
	rec := DecompressUpdates(ups, deltas, global)
	if rec[0].Weights[7] != 5 || rec[0].Weights[42] != -3 {
		t.Fatal("dominant deltas lost in compression")
	}
}

// TestAgentCheckpointPublic saves and restores a trained agent through
// the façade, then verifies the restored policy is usable in a run.
func TestAgentCheckpointPublic(t *testing.T) {
	cfg := DefaultAgentConfig(4)
	cfg.Hidden = 8
	cfg.BatchSize = 4
	cfg.WarmupExperiences = 2
	cfg.UpdatesPerRound = 1
	agent := NewAgent(cfg)
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	if err := agent.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgentFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	spec := MNISTSim().Scaled(0.05)
	train, test := Synthesize(spec, 6)
	assign := ClusteredEqual(train, 4, 0.5, 2, 2, NewRNG(7))
	factory := MLPFactory(train.Dim, []int{8}, train.NumClasses)
	runCfg := RunConfig{
		Rounds:  2,
		K:       4,
		Local:   LocalConfig{Epochs: 1, Batch: 10, LR: 0.05},
		Factory: factory,
		Seed:    8,
	}
	res := RunVirtual(runCfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 8), test, NewFedDRL(restored))
	if len(res.Accuracy) == 0 {
		t.Fatal("restored agent run produced no evaluations")
	}
}

// TestCommAccountingPublic checks the §5.3 overhead claim end to end.
func TestCommAccountingPublic(t *testing.T) {
	cfg := DefaultAgentConfig(10)
	cfg.Hidden = 8
	drl := NewFedDRL(NewAgent(cfg))
	c := CommPerRound(drl, 10, 50000, F64)
	if c.OverheadBytes != 160 {
		t.Fatalf("overhead %d", c.OverheadBytes)
	}
	if f := c.OverheadFraction(); f > 0.001 {
		t.Fatalf("overhead fraction %v should be negligible", f)
	}
	base := CommPerRound(FedAvg{}, 10, 50000, F64)
	if base.UplinkBytes+c.OverheadBytes != c.UplinkBytes {
		t.Fatal("FedDRL uplink should be FedAvg's plus the loss metadata")
	}
}

// TestScaleRoundsOverride mirrors cmd/tables' -rounds flag behaviour.
func TestScaleRoundsOverride(t *testing.T) {
	s, err := ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	s.Rounds = 3
	s.DataScale = 0.06
	s.SmallN, s.LargeN, s.K, s.Epochs = 4, 6, 4, 1
	out, err := RunExperiment("table2", s, 1)
	if err != nil || out == "" {
		t.Fatalf("override run failed: %v", err)
	}
}

// TestCSVExportPublic writes figure series through the façade.
func TestCSVExportPublic(t *testing.T) {
	s := CIScale()
	s.DataScale = 0.06
	s.Rounds = 3
	s.SmallN, s.LargeN, s.K, s.Epochs = 4, 6, 4, 1
	s.KSweep = []int{2, 4}
	dir := t.TempDir()
	paths, err := ExportExperimentCSV("figure7", s, 1, dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("csv export failed: %v %v", err, paths)
	}
}

// TestEvalLossAccBounds sanity-checks the shared evaluation helper.
func TestEvalLossAccBounds(t *testing.T) {
	spec := MNISTSim().Scaled(0.05)
	_, test := Synthesize(spec, 9)
	m := MLPFactory(test.Dim, []int{8}, test.NumClasses)(1)
	loss, acc := EvalLossAcc(m, test)
	if loss <= 0 || math.IsNaN(loss) || acc < 0 || acc > 1 {
		t.Fatalf("eval out of bounds: %v %v", loss, acc)
	}
	// Untrained 10-class model ≈ ln(10) loss.
	if loss < 1 || loss > 5 {
		t.Fatalf("untrained loss %v implausible", loss)
	}
}
