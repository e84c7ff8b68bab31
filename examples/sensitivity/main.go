// Sensitivity sweeps the two knobs the paper studies in §4.3: the number
// of participating clients K (Fig. 7) and the cluster-skew level δ
// (Fig. 8), comparing FedAvg with FedDRL at each setting.
package main

import (
	"fmt"

	"feddrl"
)

func run(train, test *feddrl.Dataset, assign *feddrl.Assignment, k int, drlAgent bool, seed uint64) *feddrl.Result {
	factory := feddrl.MLPFactory(train.Dim, []int{32}, train.NumClasses)
	cfg := feddrl.RunConfig{
		Rounds:  10,
		K:       k,
		Local:   feddrl.LocalConfig{Epochs: 2, Batch: 10, LR: 0.04},
		Factory: factory,
		Seed:    seed,
	}
	clients := feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, seed)
	if !drlAgent {
		return feddrl.RunVirtual(cfg, clients, test, feddrl.FedAvg{})
	}
	drlCfg := feddrl.DefaultAgentConfig(k)
	drlCfg.Hidden = 32
	drlCfg.BatchSize = 16
	drlCfg.WarmupExperiences = 3
	drlCfg.UpdatesPerRound = 2
	return feddrl.RunVirtual(cfg, clients, test, feddrl.NewFedDRL(feddrl.NewAgent(drlCfg)))
}

func main() {
	spec := feddrl.FashionSim().Scaled(0.25)
	train, test := feddrl.Synthesize(spec, 77)
	const nClients = 20

	// --- Fig. 7 analogue: participation sweep at fixed delta = 0.6. ---
	fmt.Println("participation sweep (CE, delta=0.6):")
	fmt.Println("  K    FedAvg   FedDRL")
	assign := feddrl.ClusteredEqual(train, nClients, 0.6, 2, 3, feddrl.NewRNG(5))
	for _, k := range []int{5, 10, 20} {
		avg := run(train, test, assign, k, false, 101)
		drl := run(train, test, assign, k, true, 101)
		fmt.Printf(" %3d   %5.2f%%   %5.2f%%\n", k, avg.Best(), drl.Best())
	}

	// --- Fig. 8 analogue: non-IID level sweep at fixed K. ---
	fmt.Println("\nnon-IID level sweep (CE, K=10):")
	fmt.Println(" delta  FedAvg   FedDRL")
	for _, delta := range []float64{0.2, 0.4, 0.6} {
		a := feddrl.ClusteredEqual(train, nClients, delta, 2, 3, feddrl.NewRNG(6))
		avg := run(train, test, a, 10, false, 202)
		drl := run(train, test, a, 10, true, 202)
		fmt.Printf("  %.1f   %5.2f%%   %5.2f%%\n", delta, avg.Best(), drl.Best())
	}
	fmt.Println("\n(the paper finds: K changes convergence speed, not final accuracy;")
	fmt.Println(" higher delta hurts all methods but FedDRL degrades the least)")
}
