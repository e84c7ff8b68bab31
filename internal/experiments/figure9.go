package experiments

import (
	"fmt"
	"strings"
	"time"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// Figure9 reproduces the server computation-time study: the per-round
// cost of the DRL impact-factor decision versus the weighted weight
// aggregation, for a small CNN-sized model and a VGG-sized model. The
// paper's claim — the DRL overhead is trivial and model-size-independent
// while aggregation cost grows with the model — is checked by the
// benchmark harness as well.
func Figure9(s Scale, seed uint64) string {
	var b strings.Builder
	b.WriteString("Figure 9: average server computation time per round\n\n")
	tab := &metrics.Table{
		Headers: []string{"model", "params", "DRL decision", "aggregation"},
	}
	type modelCase struct {
		name    string
		factory nn.Factory
		spec    dataset.Spec
	}
	mnist := dataset.MNISTSim().Scaled(s.DataScale)
	cifar := dataset.CIFAR100Sim().Scaled(s.DataScale)
	cases := []modelCase{
		{
			name: "SimpleCNN",
			factory: func(sd uint64) *nn.Network {
				sh := mnist.Shape
				return nn.NewSimpleCNN(rng.New(sd), sh.C, sh.H, sh.W, mnist.Classes)
			},
			spec: mnist,
		},
		{
			name: "VGGMini",
			factory: func(sd uint64) *nn.Network {
				sh := cifar.Shape
				return nn.NewVGGMini(rng.New(sd), sh.C, sh.H, sh.W, cifar.Classes)
			},
			spec: cifar,
		},
	}
	rounds := s.Rounds / 2
	if rounds < 3 {
		rounds = 3
	}
	for _, mc := range cases {
		train, test := dataset.Synthesize(mc.spec, seed)
		assign := partition.ClusteredEqual(train, s.SmallN, defaultDelta, labelsPerClient(mc.spec), numGroups, rng.New(seed+5))
		cfg := fl.RunConfig{
			Rounds:    rounds,
			K:         s.K,
			Local:     fl.LocalConfig{Epochs: 1, Batch: s.Batch, LR: s.LR},
			Factory:   mc.factory,
			Seed:      seed + 6,
			EvalEvery: rounds, // timing study; skip most evaluations
		}
		k := cfg.K
		if k > s.SmallN {
			k = s.SmallN
		}
		agent := core.NewAgent(s.drlConfig(k, seed+7))
		clients := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+8)
		res := fl.RunVirtual(cfg, clients, test, fl.NewFedDRL(agent))
		tab.AddRow(mc.name,
			fmt.Sprintf("%d", res.NumParam),
			fmtDur(res.MeanDecisionTime()),
			fmtDur(res.MeanAggTime()))
	}
	b.WriteString(tab.RenderString())
	b.WriteString("\n(The paper reports ~3 ms DRL overhead regardless of model, and 3 ms vs 45 ms\naggregation for CNN vs VGG-11; the shape to check is decision-time constancy\nand aggregation growth with parameter count.)\n")
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1000)
	}
}
