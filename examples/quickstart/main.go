// Quickstart: train a federated model on a cluster-skewed partition with
// FedAvg and with FedDRL, and compare. Runs in well under a minute on one
// CPU core.
package main

import (
	"fmt"
	"io"
	"os"

	"feddrl"
)

func main() {
	if err := run(os.Stdout, 0.3, 15, 3); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the quickstart at the given dataset scale, round count
// and local-epoch budget (the defaults above match the package comment;
// the test shrinks them).
func run(out io.Writer, dataScale float64, rounds, epochs int) error {
	// 1. Synthesize the MNIST analogue (10 classes, 8x8 images).
	spec := feddrl.MNISTSim().Scaled(dataScale)
	train, test := feddrl.Synthesize(spec, 42)
	fmt.Fprintf(out, "dataset %s: %d train / %d test samples, %d classes\n",
		spec.Name, train.N, test.N, train.NumClasses)

	// 2. Partition with the paper's cluster skew (CE): 10 clients, a main
	// group holding 60% of them, 2 labels per client.
	const nClients, k = 10, 10
	assign := feddrl.ClusteredEqual(train, nClients, 0.6, 2, 3, feddrl.NewRNG(1))
	stats := feddrl.ComputePartitionStats(train, assign)
	fmt.Fprintf(out, "partition CE: coverage %.0f%%, cluster score %.3f\n\n",
		stats.Coverage*100, stats.ClusterScore)

	// 3. Shared model and run configuration (Algorithm 2).
	factory := feddrl.MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cfg := feddrl.RunConfig{
		Rounds:  rounds,
		K:       k,
		Local:   feddrl.LocalConfig{Epochs: epochs, Batch: 10, LR: 0.03},
		Factory: factory,
		Seed:    7,
		Workers: 4, // bounded engine; results identical at any width
	}

	// 4. Baseline: FedAvg (impact factors proportional to sample counts).
	avg := feddrl.RunVirtual(cfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 7), test, feddrl.FedAvg{})

	// 5. FedDRL: a DDPG agent decides the impact factors each round.
	drlCfg := feddrl.DefaultAgentConfig(k)
	drlCfg.Hidden = 64 // scaled down from Table 1's 256 for the quickstart
	drlCfg.BatchSize = 32
	drlCfg.WarmupExperiences = 4
	drlCfg.UpdatesPerRound = 4
	agent := feddrl.NewAgent(drlCfg)
	drl := feddrl.RunVirtual(cfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 7), test, feddrl.NewFedDRL(agent))

	// 6. Compare.
	fmt.Fprintln(out, "round   FedAvg   FedDRL")
	for i := range avg.Accuracy {
		fmt.Fprintf(out, "%5d   %5.2f%%   %5.2f%%\n", avg.AccRounds[i], avg.Accuracy[i], drl.Accuracy[i])
	}
	fmt.Fprintf(out, "\nbest accuracy: FedAvg %.2f%%  FedDRL %.2f%%\n", avg.Best(), drl.Best())
	fmt.Fprintf(out, "client-loss variance (fairness, last rounds): FedAvg %.4f  FedDRL %.4f\n",
		avg.ClientLossVars().Tail(4), drl.ClientLossVars().Tail(4))
	fmt.Fprintf(out, "server overhead per round: decision %v, aggregation %v\n",
		drl.MeanDecisionTime(), drl.MeanAggTime())
	return nil
}
