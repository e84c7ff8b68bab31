package feddrl

import (
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the full public surface end to end:
// synthesize a dataset, partition it with cluster skew, run FedAvg and
// FedDRL, and compare.
func TestPublicAPIQuickstart(t *testing.T) {
	spec := MNISTSim()
	spec = spec.Scaled(0.1)
	train, test := Synthesize(spec, 42)

	const nClients, k = 6, 6
	assign := ClusteredEqual(train, nClients, 0.6, 2, 3, NewRNG(1))
	factory := MLPFactory(train.Dim, []int{16}, train.NumClasses)

	cfg := RunConfig{
		Rounds:  6,
		K:       k,
		Local:   LocalConfig{Epochs: 2, Batch: 10, LR: 0.05},
		Factory: factory,
		Seed:    7,
	}

	avg := RunVirtual(cfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 7), test, FedAvg{})
	if avg.Best() <= 0 {
		t.Fatal("FedAvg run produced no accuracy")
	}

	drlCfg := DefaultAgentConfig(k)
	drlCfg.Hidden = 16
	drlCfg.BatchSize = 8
	drlCfg.WarmupExperiences = 2
	drlCfg.UpdatesPerRound = 1
	drl := RunVirtual(cfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 7), test, NewFedDRL(NewAgent(drlCfg)))
	if drl.Method != "FedDRL" || drl.Best() <= 0 {
		t.Fatalf("FedDRL run broken: %q best %v", drl.Method, drl.Best())
	}

	single := SingleSet(cfg, train, test)
	if single.Best() < avg.Best()-10 {
		t.Fatalf("SingleSet (%v) unexpectedly far below FedAvg (%v)", single.Best(), avg.Best())
	}
}

// TestFedDRLBeatsFedAvgOnClusterSkew is the headline claim of the paper
// reproduced as an integration test: under strong cluster skew a DRL
// aggregator should at least match sample-proportional averaging. We
// compare mean tail accuracy over a seed to absorb noise at test scale.
func TestFedDRLBeatsFedAvgOnClusterSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison")
	}
	spec := MNISTSim().Scaled(0.2)
	train, test := Synthesize(spec, 9)
	const nClients, k = 8, 8
	// Strong skew: delta 0.75, unequal quantities.
	assign := ClusteredNonEqual(train, nClients, 0.7, 2, 3, 1.2, NewRNG(2))
	factory := MLPFactory(train.Dim, []int{24}, train.NumClasses)
	cfg := RunConfig{
		Rounds:  14,
		K:       k,
		Local:   LocalConfig{Epochs: 2, Batch: 10, LR: 0.05},
		Factory: factory,
		Seed:    3,
	}
	avg := RunVirtual(cfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 3), test, FedAvg{})
	drlCfg := DefaultAgentConfig(k)
	drlCfg.Hidden = 32
	drlCfg.BatchSize = 16
	drlCfg.WarmupExperiences = 4
	drlCfg.UpdatesPerRound = 2
	drl := RunVirtual(cfg, NewClientPool(train, IndexPartition(assign.ClientIndices), factory, 3), test, NewFedDRL(NewAgent(drlCfg)))

	// FedDRL must stay within noise of FedAvg or beat it; a collapse
	// would indicate the agent harms aggregation.
	if drl.Best() < avg.Best()-6 {
		t.Fatalf("FedDRL collapsed: best %v vs FedAvg %v", drl.Best(), avg.Best())
	}
	// And its client-loss variance (fairness) should not explode.
	dv := drl.ClientLossVars().Tail(4)
	av := avg.ClientLossVars().Tail(4)
	if dv > 4*av+1 {
		t.Fatalf("FedDRL fairness collapsed: tail variance %v vs FedAvg %v", dv, av)
	}
}

func TestRunExperimentPublic(t *testing.T) {
	s := CIScale()
	s.DataScale = 0.06
	s.Rounds = 3
	s.SmallN = 6
	s.LargeN = 8
	s.K = 4
	s.Epochs = 1
	out, err := RunExperiment("table2", s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("experiment output malformed:\n%s", out)
	}
	if len(ExperimentNames()) < 13 {
		t.Fatalf("expected ≥13 registered experiments, got %v", ExperimentNames())
	}
}

func TestCNNFactoryPublic(t *testing.T) {
	spec := MNISTSim().Scaled(0.05)
	train, test := Synthesize(spec, 5)
	factory := CNNFactory(spec.Shape, spec.Classes)
	m := factory(1)
	if m.NumParams() == 0 {
		t.Fatal("CNN factory produced empty model")
	}
	loss, acc := EvalLossAcc(m, test)
	if loss <= 0 || acc < 0 || acc > 1 {
		t.Fatalf("eval wrong: %v %v", loss, acc)
	}
	_ = train
}
