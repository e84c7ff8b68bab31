// Command fedsim runs one federated-learning experiment cell from flags:
// a dataset, a non-IID partition, a method, and federation sizes. It
// prints the per-round accuracy timeline and a summary.
//
// The cell runs through the same path as every table cell
// (feddrl.RunCell), so -seed s is derived like a grid cell's seed: data
// synthesis s, run s+1, partition s+2, DRL agent s+3, client pool s+4.
//
// Example:
//
//	fedsim -dataset mnist -partition CE -method FedDRL -clients 10 -k 10 -rounds 30 -workers 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"feddrl"
)

// clusterGroups is the number of label groups the clustered partitions
// (CE, CN) split the classes into; each group needs a client.
const clusterGroups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entrypoint: flags in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dsName := fs.String("dataset", "mnist", "dataset: mnist, fashion or cifar100")
	partName := fs.String("partition", "CE", "partition: PA, CE, CN, Equal or Non-equal")
	method := fs.String("method", "FedDRL", "method: SingleSet, FedAvg, FedProx or FedDRL, optionally with one variant suffix: +async or +stale (asynchronous rounds), or for FedDRL +plain, +nogap, +rawstate or +twostage (the ablations' agent variants)")
	clients := fs.Int("clients", 10, "number of clients N")
	k := fs.Int("k", 10, "participating clients per round K")
	rounds := fs.Int("rounds", 20, "communication rounds")
	delta := fs.Float64("delta", 0.6, "cluster-skew level (CE/CN)")
	dataScale := fs.Float64("datascale", 0.3, "dataset size multiplier")
	epochs := fs.Int("epochs", 3, "local epochs E")
	lr := fs.Float64("lr", 0.03, "local learning rate")
	exploreStd := fs.Float64("explorestd", 0.05, "FedDRL exploration noise scale")
	exploreDecay := fs.Float64("exploredecay", 0.99, "FedDRL exploration decay per action")
	workers := fs.Int("workers", 0, "work-stealing engine lanes shared by client training, evaluation and the weight merge (0 = sequential, -1 = GOMAXPROCS); results are identical at any width")
	precName := fs.String("precision", "f64", "federated-state width: f64 (full, the default) or f32 (half-width uploads and merge; local training stays f64; SingleSet ignores it)")
	attackName := fs.String("attack", "none", "Byzantine fault model corrupting a seeded identity-stable client fraction: none, signflip, gauss, replace, collude or labelflip")
	attackFrac := fs.Float64("attack-frac", 0.2, "malicious client fraction for -attack (identity-stable across rounds)")
	mergerName := fs.String("merger", "", "server merge rule: weighted (the default impact-factor merge), median, trimmed or krum")
	seed := fs.Uint64("seed", 1, "run seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Out-of-range sizes and rates would otherwise panic deep inside the
	// run, so they are rejected before anything is built.
	clustered := *partName == "CE" || *partName == "CN"
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*clients < 1, fmt.Sprintf("-clients must be at least 1, got %d", *clients)},
		{*k < 1, fmt.Sprintf("-k must be at least 1, got %d", *k)},
		{*rounds < 1, fmt.Sprintf("-rounds must be at least 1, got %d", *rounds)},
		{*epochs < 1, fmt.Sprintf("-epochs must be at least 1, got %d", *epochs)},
		{!(*lr > 0), fmt.Sprintf("-lr must be positive, got %v", *lr)},
		{!(*dataScale > 0) || math.IsInf(*dataScale, 1), fmt.Sprintf("-datascale must be positive and finite, got %v", *dataScale)},
		{!(*exploreStd >= 0) || math.IsInf(*exploreStd, 1), fmt.Sprintf("-explorestd must be non-negative and finite, got %v", *exploreStd)},
		{!(*exploreDecay > 0 && *exploreDecay <= 1), fmt.Sprintf("-exploredecay must be in (0, 1], got %v", *exploreDecay)},
		{clustered && *clients < clusterGroups, fmt.Sprintf("-partition %s needs at least %d clients, got %d", *partName, clusterGroups, *clients)},
		{clustered && !(*delta > 0 && *delta < 1), fmt.Sprintf("-delta must be in (0, 1), got %v", *delta)},
	} {
		if c.bad {
			fmt.Fprintln(stderr, c.msg)
			return 2
		}
	}

	// The cell runs on the experiments' shared cell path with the
	// medium scale's solver and agent sizing, overridden by the flags.
	// SmallN 0 keeps -k below -clients honoured (the grids give their
	// small federations full participation).
	s := feddrl.MediumScale()
	s.DataScale = *dataScale
	s.Rounds = *rounds
	s.Epochs = *epochs
	s.LR = *lr
	s.DRLExploreStd = *exploreStd
	s.DRLExploreDecay = *exploreDecay
	s.Workers = *workers
	if *workers < 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	s.Precision = *precName
	s.Attack, s.AttackFrac, s.Merger = *attackName, *attackFrac, *mergerName
	s.EvalEvery = 1
	s.SmallN = 0
	res, err := feddrl.RunCell(s, feddrl.ExperimentCellSpec{
		Dataset: *dsName, Partition: *partName, Method: *method,
		N: *clients, K: *k, Delta: *delta, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "%s on %s/%s, N=%d K=%d rounds=%d\n", res.Method, *dsName, *partName, *clients, min(*k, *clients), *rounds)
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	for i, acc := range res.Accuracy {
		fmt.Fprintf(stdout, "round %3d  acc %6.2f%%\n", res.AccRounds[i], acc)
	}
	fmt.Fprintln(stdout, strings.Repeat("-", 48))
	fmt.Fprintf(stdout, "best %.2f%%  final %.2f%%  params %d\n", res.Best(), res.Final(), res.NumParam)
	fmt.Fprintf(stdout, "mean decision time %v, mean aggregation time %v\n", res.MeanDecisionTime(), res.MeanAggTime())
	return 0
}
