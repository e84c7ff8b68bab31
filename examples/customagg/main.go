// Customagg shows how to implement a custom aggregation strategy against
// the public Aggregator interface — the extension point §3.1 motivates.
// The example implements "inverse-loss weighting" (clients whose local
// models fit worse get more aggregation weight, a crude fairness
// heuristic) and compares it with FedAvg and FedDRL on cluster-skewed
// data.
package main

import (
	"fmt"
	"math"

	"feddrl"
)

// invLoss weights clients by softmax of their pre-training global-model
// loss: clients the global model serves worst get the most say. It is a
// hand-written rule — exactly the kind of heuristic the paper replaces
// with a learned policy.
type invLoss struct{ temp float64 }

func (invLoss) Name() string { return "InvLoss" }

func (a invLoss) ImpactFactors(round int, updates []feddrl.Update) []float64 {
	w := make([]float64, len(updates))
	max := math.Inf(-1)
	for i, u := range updates {
		w[i] = u.LossBefore / a.temp
		if w[i] > max {
			max = w[i]
		}
	}
	sum := 0.0
	for i := range w {
		w[i] = math.Exp(w[i] - max)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func main() {
	spec := feddrl.MNISTSim().Scaled(0.25)
	train, test := feddrl.Synthesize(spec, 99)
	const nClients, k = 10, 10
	assign := feddrl.ClusteredEqual(train, nClients, 0.6, 2, 3, feddrl.NewRNG(4))
	factory := feddrl.MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cfg := feddrl.RunConfig{
		Rounds:  12,
		K:       k,
		Local:   feddrl.LocalConfig{Epochs: 3, Batch: 10, LR: 0.03},
		Factory: factory,
		Seed:    13,
	}
	// A pool carries its clients' RNG positions, so each run gets a
	// fresh one.
	clients := func() *feddrl.ClientPool {
		return feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 13)
	}

	avg := feddrl.RunVirtual(cfg, clients(), test, feddrl.FedAvg{})
	inv := feddrl.RunVirtual(cfg, clients(), test, invLoss{temp: 0.5})

	drlCfg := feddrl.DefaultAgentConfig(k)
	drlCfg.Hidden = 64
	drlCfg.BatchSize = 32
	drlCfg.WarmupExperiences = 4
	drlCfg.UpdatesPerRound = 4
	drl := feddrl.RunVirtual(cfg, clients(), test, feddrl.NewFedDRL(feddrl.NewAgent(drlCfg)))

	fmt.Println("method   best acc   loss-variance (fairness, tail)")
	for _, r := range []*feddrl.Result{avg, inv, drl} {
		fmt.Printf("%-8s %6.2f%%    %.4f\n", r.Method, r.Best(), r.ClientLossVars().Tail(4))
	}
	fmt.Println("\nInvLoss is a fixed rule: it helps on this distribution but has no way")
	fmt.Println("to adapt if the skew pattern changes — the gap FedDRL's learning closes.")
}
