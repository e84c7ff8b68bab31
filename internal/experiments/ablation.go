package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/rng"
)

// AblationPrior compares the FedAvg-anchored residual parameterization
// (α = softmax(z + log n_k/Σn), the compressed-horizon adaptation in
// DESIGN.md) against the paper's plain softmax actions (Eq. 5), on the
// 100-class dataset where the difference is largest.
func AblationPrior(s Scale, seed uint64) string {
	spec := s.datasets()[0] // cifar100-sim
	n := s.SmallN
	k := n // full participation at the small federation size (§4.1.2)
	train, test := dataset.Synthesize(spec, seed)
	assign := buildPartition("CE", train, spec, n, defaultDelta, rng.New(seed+2))
	cfg := s.runConfig(spec, k, 0, seed+1)

	runWith := func(prior bool) *fl.Result {
		agg := fl.NewFedDRL(core.NewAgent(s.drlConfig(k, seed+3)))
		agg.FedAvgPrior = prior
		clients := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+4)
		return fl.RunVirtual(cfg, clients, test, agg)
	}
	withPrior := runWith(true)
	without := runWith(false)
	avg := func() *fl.Result {
		clients := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+4)
		return fl.RunVirtual(cfg, clients, test, fl.FedAvg{})
	}()
	tab := &metrics.Table{
		Title:   "Ablation: FedAvg-anchored actions vs plain Eq. 5 softmax, cifar100-sim / CE",
		Headers: []string{"variant", "best acc", "final acc"},
	}
	tab.AddRow("FedAvg baseline", metrics.F(avg.Best()), metrics.F(avg.Final()))
	tab.AddRow("FedDRL, prior-anchored", metrics.F(withPrior.Best()), metrics.F(withPrior.Final()))
	tab.AddRow("FedDRL, plain softmax", metrics.F(without.Best()), metrics.F(without.Final()))
	return tab.RenderString()
}

// runFedDRLVariant runs FedDRL on a CE-partitioned dataset with a
// modified agent configuration, returning the run result.
func runFedDRLVariant(s Scale, spec dataset.Spec, seed uint64, modify func(*core.Config), agent *core.Agent) *fl.Result {
	train, test := dataset.Synthesize(spec, seed)
	n := s.SmallN
	k := n // full participation at the small federation size (§4.1.2)
	assign := buildPartition("CE", train, spec, n, defaultDelta, rng.New(seed+2))
	if agent == nil {
		drlCfg := s.drlConfig(k, seed+3)
		if modify != nil {
			modify(&drlCfg)
		}
		agent = core.NewAgent(drlCfg)
	}
	cfg := s.runConfig(spec, k, 0, seed+1)
	clients := fl.NewClientPool(train, fl.IndexPartition(assign.ClientIndices), cfg.Factory, seed+4)
	return fl.RunVirtual(cfg, clients, test, fl.NewFedDRL(agent))
}

// AblationRewardGap compares the full Eq. 7 reward against a variant
// without the fairness (max−min) term. The fairness term should reduce
// the variance of client inference losses.
func AblationRewardGap(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	tail := s.Rounds / 4
	if tail < 1 {
		tail = 1
	}
	full := runFedDRLVariant(s, spec, seed, nil, nil)
	noGap := runFedDRLVariant(s, spec, seed, func(c *core.Config) { c.RewardGapWeight = 0 }, nil)
	tab := &metrics.Table{
		Title:   "Ablation: reward fairness term (Eq. 7 gap component), mnist-sim / CE",
		Headers: []string{"variant", "best acc", "client loss var (tail)"},
	}
	tab.AddRow("full reward (gap w=1)", metrics.F(full.Best()), fmt.Sprintf("%.4f", full.ClientLossVars().Tail(tail)))
	tab.AddRow("mean-only (gap w=0)", metrics.F(noGap.Best()), fmt.Sprintf("%.4f", noGap.ClientLossVars().Tail(tail)))
	return tab.RenderString()
}

// AblationStateNorm compares normalized against raw state encodings
// (DESIGN.md records normalization as a stability choice the paper leaves
// unspecified).
func AblationStateNorm(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	norm := runFedDRLVariant(s, spec, seed, nil, nil)
	raw := runFedDRLVariant(s, spec, seed, func(c *core.Config) { c.NormalizeState = false }, nil)
	tab := &metrics.Table{
		Title:   "Ablation: state normalization, mnist-sim / CE",
		Headers: []string{"variant", "best acc", "final acc"},
	}
	tab.AddRow("normalized state", metrics.F(norm.Best()), metrics.F(norm.Final()))
	tab.AddRow("raw state", metrics.F(raw.Best()), metrics.F(raw.Final()))
	return tab.RenderString()
}

// AblationTwoStage compares a FedDRL run whose agent was pre-trained with
// the two-stage strategy (§3.4.2: m online workers on simulated FL
// environments, then offline training on the merged buffer) against a
// cold-started agent. Pre-training should help most in early rounds.
func AblationTwoStage(s Scale, seed uint64) string {
	spec := dataset.MNISTSim().Scaled(s.DataScale)
	k := s.SmallN // full participation at the small federation size
	drlCfg := s.drlConfig(k, seed+3)

	// Stage 1+2: two workers on independently seeded FL environments.
	episode := s.Rounds / 2
	if episode < 3 {
		episode = 3
	}
	res := core.TrainTwoStage(drlCfg, func(w int, wseed uint64) core.Env {
		return newFLEnv(s, spec, drlCfg, wseed+uint64(w)*977, episode)
	}, 2, episode, 4)

	pre := runFedDRLVariant(s, spec, seed, nil, res.Agent)
	cold := runFedDRLVariant(s, spec, seed, nil, nil)

	early := len(pre.Accuracy) / 3
	if early < 1 {
		early = 1
	}
	tab := &metrics.Table{
		Title:   "Ablation: two-stage pre-training vs cold start, mnist-sim / CE",
		Headers: []string{"variant", "best acc", "early-rounds mean acc", "worker experiences"},
	}
	tab.AddRow("two-stage pre-trained",
		metrics.F(pre.Best()),
		metrics.F(pre.Accuracy[:early].Mean()),
		fmt.Sprintf("%v", res.WorkerExperiences))
	tab.AddRow("cold start (basic training)",
		metrics.F(cold.Best()),
		metrics.F(cold.Accuracy[:early].Mean()),
		"-")
	var b strings.Builder
	b.WriteString(tab.RenderString())
	return b.String()
}
