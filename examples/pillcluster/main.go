// Pillcluster reproduces the paper's motivating scenario (Figure 1): a
// federation of patients whose pill-image data is cluster-skewed by
// disease. Patients with the same disease take similar medications, and
// common diseases have many patients — exactly the inter-client
// correlation the paper's CE/CN partitions model.
//
// The example builds a 12-pill synthetic dataset, groups 30 patients into
// three disease cohorts (diabetes, hypertension, other) with a dominant
// cohort, trains FedAvg and FedDRL, and reports how much the global model
// favors the dominant cohort under each method.
package main

import (
	"fmt"

	"feddrl"
)

func main() {
	// A "pill camera" dataset: 12 medication classes on small images.
	spec := feddrl.DataSpec{
		Name:          "pills",
		Classes:       12,
		Shape:         feddrl.ImageShape{C: 1, H: 8, W: 8},
		TrainPerClass: 60, TestPerClass: 15,
		ProtoStd: 1.4, NoiseStd: 0.8,
	}
	train, test := feddrl.Synthesize(spec, 2026)
	fmt.Printf("pill dataset: %d train / %d test images, %d medications\n",
		train.N, test.N, train.NumClasses)

	// 30 patients; the diabetes cohort dominates (60%), mirroring Fig. 1's
	// distribution of 100 real patients into three disease groups. Each
	// patient photographs 4 of their cohort's medications; quantities are
	// skewed (some patients log many more pills).
	const patients, k = 30, 10
	assign := feddrl.ClusteredNonEqual(train, patients, 0.6, 4, 3, 1.2, feddrl.NewRNG(3))
	names := []string{"diabetes", "hypertension", "other"}
	counts := map[int]int{}
	for _, g := range assign.Clusters {
		counts[g]++
	}
	fmt.Println("\ncohorts:")
	for g, name := range names {
		fmt.Printf("  %-12s %2d patients\n", name, counts[g])
	}
	st := feddrl.ComputePartitionStats(train, assign)
	fmt.Printf("cluster score %.3f, quantity CV %.3f (both >0: cluster skew + pill-count imbalance)\n\n",
		st.ClusterScore, st.QuantityCV)

	factory := feddrl.MLPFactory(train.Dim, []int{48}, train.NumClasses)
	cfg := feddrl.RunConfig{
		Rounds:  15,
		K:       k,
		Local:   feddrl.LocalConfig{Epochs: 3, Batch: 10, LR: 0.03},
		Factory: factory,
		Seed:    11,
	}

	avg := feddrl.RunVirtual(cfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 11), test, feddrl.FedAvg{})

	drlCfg := feddrl.DefaultAgentConfig(k)
	drlCfg.Hidden = 64
	drlCfg.BatchSize = 32
	drlCfg.WarmupExperiences = 4
	drlCfg.UpdatesPerRound = 4
	drl := feddrl.RunVirtual(cfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 11), test, feddrl.NewFedDRL(feddrl.NewAgent(drlCfg)))

	fmt.Printf("global accuracy: FedAvg %.2f%%  FedDRL %.2f%%\n", avg.Best(), drl.Best())

	// Fairness across cohorts: variance of per-patient inference loss.
	// High variance means the global model memorized the dominant cohort's
	// pills and neglects the rare diseases.
	fmt.Printf("per-patient loss variance (tail): FedAvg %.4f  FedDRL %.4f\n",
		avg.ClientLossVars().Tail(4), drl.ClientLossVars().Tail(4))
	fmt.Printf("per-patient loss mean     (tail): FedAvg %.4f  FedDRL %.4f\n",
		avg.ClientLossMeans().Tail(4), drl.ClientLossMeans().Tail(4))
	fmt.Println("\n(lower variance = fairer across disease cohorts; see paper Fig. 6)")
}
