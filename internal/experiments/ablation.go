package experiments

import (
	"fmt"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
)

// FedDRL agent variants (the suffix after '+' in a cell Method, see
// parseMethod): each switches off one design choice the ablations judge.
const (
	variantPlain    = "plain"    // plain Eq. 5 softmax actions (FedAvgPrior off)
	variantNoGap    = "nogap"    // Eq. 7 reward without its fairness (max−min) term
	variantRawState = "rawstate" // unnormalized agent states
	variantTwoStage = "twostage" // agent pre-trained by the two-stage strategy (§3.4.2)
)

var agentVariants = []string{variantPlain, variantNoGap, variantRawState, variantTwoStage}

// twoStageWorkers online workers pre-train a "+twostage" agent, then the
// main agent makes twoStageOffline offline Algorithm 1 calls on their
// merged buffers.
const twoStageWorkers, twoStageOffline = 2, 4

// twoStageEpisode is the length in FL rounds of each online worker's one
// pre-training episode: half the run, at least 3 rounds. Each online
// step stores one transition (unless it is non-finite) in a buffer far
// larger than any episode, so it is also each worker's experience count.
func (s Scale) twoStageEpisode() int { return max(3, s.Rounds/2) }

// newFedDRL builds a cell's FedDRL aggregator: an agent sized to a
// k-client cohort and seeded with seed, with the given agent variant
// ("" for the default agent). A "+twostage" agent is pre-trained on
// simulated FL environments over spec (newFLEnv).
func (s Scale) newFedDRL(spec dataset.Spec, variant string, k int, seed uint64) *fl.FedDRL {
	cfg := s.drlConfig(k, seed)
	switch variant {
	case variantNoGap:
		cfg.RewardGapWeight = 0
	case variantRawState:
		cfg.NormalizeState = false
	}
	var agent *core.Agent
	if variant == variantTwoStage {
		episode := s.twoStageEpisode()
		agent = core.TrainTwoStage(cfg, func(w int, wseed uint64) core.Env {
			return newFLEnv(s, spec, cfg, wseed+uint64(w)*977, episode)
		}, twoStageWorkers, episode, twoStageOffline).Agent
	} else {
		agent = core.NewAgent(cfg)
	}
	agg := fl.NewFedDRL(agent)
	agg.FedAvgPrior = variant != variantPlain
	return agg
}

// ablation is one design-choice ablation (DESIGN.md) as a grid
// experiment: each arm is a Table 3 cell shape — the CE partition at
// SmallN clients — whose Method names a variant, so an arm without a
// variant is the very Table 3 cell and shares its cache record.
type ablation struct {
	// title is a format string taking the dataset name.
	title   string
	dataset int // index into Scale.datasets()
	headers []string
	arms    []ablationArm
	// columns formats an arm's result columns after its label.
	columns func(s Scale, method string, a *CellArtifact) []string
}

type ablationArm struct{ label, method string }

func (ab ablation) cell(s Scale, seed uint64, method string) CellSpec {
	return table3Spec(s, s.datasets()[ab.dataset].Name, "CE", method, s.SmallN, seed)
}

func (ab ablation) experiment() Experiment {
	return Experiment{
		Jobs: func(s Scale, seed uint64) []CellSpec {
			var jobs []CellSpec
			for _, arm := range ab.arms {
				jobs = append(jobs, ab.cell(s, seed, arm.method))
			}
			return jobs
		},
		Render: func(s Scale, seed uint64, get ArtifactGetter) string {
			tab := &metrics.Table{Title: fmt.Sprintf(ab.title, s.datasets()[ab.dataset].Name), Headers: ab.headers}
			for _, arm := range ab.arms {
				cols := ab.columns(s, arm.method, get(ab.cell(s, seed, arm.method)))
				tab.AddRow(append([]string{arm.label}, cols...)...)
			}
			return tab.RenderString()
		},
	}
}

// bestFinal is the columns of the ablations that report best and final
// accuracy.
func bestFinal(_ Scale, _ string, a *CellArtifact) []string {
	return []string{metrics.F(a.Best()), metrics.F(a.Final())}
}

// Dataset indices into Scale.datasets().
const cifar100, mnist = 0, 2

// ablationPrior compares the FedAvg-anchored residual parameterization
// (α = softmax(z + log n_k/Σn), the compressed-horizon adaptation in
// DESIGN.md) against the paper's plain softmax actions (Eq. 5), on the
// 100-class dataset where the difference is largest.
var ablationPrior = ablation{
	title:   "Ablation: FedAvg-anchored actions vs plain Eq. 5 softmax, %s / CE",
	dataset: cifar100,
	headers: []string{"variant", "best acc", "final acc"},
	arms: []ablationArm{
		{"FedAvg baseline", "FedAvg"},
		{"FedDRL, prior-anchored", "FedDRL"},
		{"FedDRL, plain softmax", "FedDRL+" + variantPlain},
	},
	columns: bestFinal,
}

// ablationRewardGap compares the full Eq. 7 reward against a variant
// without the fairness (max−min) term. The fairness term should reduce
// the variance of client inference losses.
var ablationRewardGap = ablation{
	title:   "Ablation: reward fairness term (Eq. 7 gap component), %s / CE",
	dataset: mnist,
	headers: []string{"variant", "best acc", "client loss var (tail)"},
	arms: []ablationArm{
		{"full reward (gap w=1)", "FedDRL"},
		{"mean-only (gap w=0)", "FedDRL+" + variantNoGap},
	},
	columns: func(s Scale, _ string, a *CellArtifact) []string {
		tail := max(1, s.Rounds/4)
		return []string{metrics.F(a.Best()), fmt.Sprintf("%.4f", a.LossVar.Tail(tail))}
	},
}

// ablationStateNorm compares normalized against raw state encodings
// (DESIGN.md records normalization as a stability choice the paper
// leaves unspecified).
var ablationStateNorm = ablation{
	title:   "Ablation: state normalization, %s / CE",
	dataset: mnist,
	headers: []string{"variant", "best acc", "final acc"},
	arms: []ablationArm{
		{"normalized state", "FedDRL"},
		{"raw state", "FedDRL+" + variantRawState},
	},
	columns: bestFinal,
}

// ablationTwoStage compares a FedDRL run whose agent was pre-trained
// with the two-stage strategy (§3.4.2: m online workers on simulated FL
// environments, then offline training on the merged buffer) against a
// cold-started agent. Pre-training should help most in early rounds.
var ablationTwoStage = ablation{
	title:   "Ablation: two-stage pre-training vs cold start, %s / CE",
	dataset: mnist,
	headers: []string{"variant", "best acc", "early-rounds mean acc", "worker experiences"},
	arms: []ablationArm{
		{"two-stage pre-trained", "FedDRL+" + variantTwoStage},
		{"cold start (basic training)", "FedDRL"},
	},
	columns: func(s Scale, method string, a *CellArtifact) []string {
		early := max(1, len(a.Accuracy)/3)
		experiences := "-"
		if method == "FedDRL+"+variantTwoStage {
			perWorker := make([]int, twoStageWorkers)
			for w := range perWorker {
				perWorker[w] = s.twoStageEpisode()
			}
			experiences = fmt.Sprint(perWorker)
		}
		return []string{metrics.F(a.Best()), metrics.F(a.Accuracy[:early].Mean()), experiences}
	},
}
