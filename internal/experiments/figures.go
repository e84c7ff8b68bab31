package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/mathx"
	"feddrl/internal/metrics"
)

// fedMethods are the three federated methods (SingleSet excluded).
var fedMethods = []string{"FedAvg", "FedProx", "FedDRL"}

// figure5Jobs enumerates the Fig. 5 timeline cells: each non-MNIST
// dataset × partition × federated method at SmallN clients.
func figure5Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, spec := range s.datasets() {
		if spec.Name == "mnist-sim" {
			continue
		}
		for _, part := range PartitionNames {
			for _, m := range fedMethods {
				jobs = append(jobs, table3Spec(s, spec.Name, part, m, s.SmallN, seed))
			}
		}
	}
	return jobs
}

// renderFigure5 reproduces the accuracy-vs-round timelines: for each
// dataset × partition (SmallN clients), the test accuracy of each method
// per evaluated round. The fashion-sim series are 10-round smoothed, as
// in the paper's plot.
func renderFigure5(s Scale, seed uint64, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: top-1 test accuracy (%%) vs communication round, %d clients\n\n", s.SmallN)
	for _, spec := range s.datasets() {
		if spec.Name == "mnist-sim" {
			continue // the paper omits MNIST from Fig. 5 for space
		}
		for _, part := range PartitionNames {
			tab := &metrics.Table{
				Title:   fmt.Sprintf("%s / %s", spec.Name, part),
				Headers: []string{"round", "FedAvg", "FedProx", "FedDRL"},
			}
			series := map[string]metrics.Series{}
			for _, m := range fedMethods {
				acc := get(table3Spec(s, spec.Name, part, m, s.SmallN, seed)).Accuracy
				if strings.HasPrefix(spec.Name, "fashion") {
					acc = acc.Smoothed(10)
				}
				series[m] = acc
			}
			ref := get(table3Spec(s, spec.Name, part, "FedAvg", s.SmallN, seed))
			for i, round := range ref.AccRounds {
				tab.AddRow(fmt.Sprintf("%d", round),
					metrics.F(series["FedAvg"][i]),
					metrics.F(series["FedProx"][i]),
					metrics.F(series["FedDRL"][i]))
			}
			b.WriteString(tab.RenderString())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Figure5 runs the Fig. 5 grid in-process (Registry-compatible wrapper).
func Figure5(s Scale, seed uint64) string { return runNamed("figure5", s, seed) }

// figure6Jobs enumerates the Fig. 6 robustness cells: the 100-class
// dataset × partition × federated method at SmallN clients.
func figure6Jobs(s Scale, seed uint64) []CellSpec {
	spec := s.datasets()[0] // cifar100-sim
	var jobs []CellSpec
	for _, part := range PartitionNames {
		for _, m := range fedMethods {
			jobs = append(jobs, table3Spec(s, spec.Name, part, m, s.SmallN, seed))
		}
	}
	return jobs
}

// renderFigure6 reproduces the robustness study: the mean and variance
// of the per-client inference loss (tail-averaged), normalized to
// FedDRL, on the 100-class dataset with SmallN clients. Values above
// 1.00 mean the baseline is worse than FedDRL.
func renderFigure6(s Scale, seed uint64, get ArtifactGetter) string {
	spec := s.datasets()[0] // cifar100-sim
	tail := s.Rounds / 4
	if tail < 1 {
		tail = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: client inference loss normalized to FedDRL (tail %d rounds), %s, %d clients\n\n",
		tail, spec.Name, s.SmallN)
	tabMean := &metrics.Table{
		Title:   "average inference loss (normalized; >1 = worse than FedDRL)",
		Headers: append([]string{"method"}, PartitionNames...),
	}
	tabVar := &metrics.Table{
		Title:   "variance of inference loss (normalized; >1 = worse than FedDRL)",
		Headers: append([]string{"method"}, PartitionNames...),
	}
	means := map[string]map[string]float64{}
	vars := map[string]map[string]float64{}
	for _, part := range PartitionNames {
		means[part] = map[string]float64{}
		vars[part] = map[string]float64{}
		for _, m := range fedMethods {
			a := get(table3Spec(s, spec.Name, part, m, s.SmallN, seed))
			means[part][m] = a.LossMean.Tail(tail)
			vars[part][m] = a.LossVar.Tail(tail)
		}
	}
	for _, m := range fedMethods {
		rowM := []string{m}
		rowV := []string{m}
		for _, part := range PartitionNames {
			refM, refV := means[part]["FedDRL"], vars[part]["FedDRL"]
			rowM = append(rowM, ratioStr(means[part][m], refM))
			rowV = append(rowV, ratioStr(vars[part][m], refV))
		}
		tabMean.AddRow(rowM...)
		tabVar.AddRow(rowV...)
	}
	b.WriteString(tabMean.RenderString())
	b.WriteByte('\n')
	b.WriteString(tabVar.RenderString())
	return b.String()
}

// Figure6 runs the Fig. 6 grid in-process.
func Figure6(s Scale, seed uint64) string { return runNamed("figure6", s, seed) }

func ratioStr(v, ref float64) string {
	if ref == 0 {
		if v == 0 {
			return "1.00"
		}
		return "inf"
	}
	return metrics.F(v / ref)
}

// figure7Spec builds one cell of the participation sweep (K varies; the
// cell seed is offset by K, preserving the historical seeding).
func figure7Spec(s Scale, k int, method string, seed uint64) CellSpec {
	ds := s.datasets()[0] // cifar100-sim
	return CellSpec{Dataset: ds.Name, Partition: "CE", Method: method, N: s.LargeN, K: k, Delta: defaultDelta, Seed: seed + uint64(k)}
}

// figure7Jobs enumerates the Fig. 7 sweep: KSweep × federated methods.
func figure7Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, k := range s.KSweep {
		for _, m := range fedMethods {
			jobs = append(jobs, figure7Spec(s, k, m, seed))
		}
	}
	return jobs
}

// renderFigure7 reproduces the participation sweep: accuracy on the
// 100-class dataset (LargeN clients, CE partition) as the number of
// participating clients K varies.
func renderFigure7(s Scale, seed uint64, get ArtifactGetter) string {
	spec := s.datasets()[0] // cifar100-sim
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: accuracy vs participating clients K (%s, CE, N=%d)\n\n", spec.Name, s.LargeN)
	tab := &metrics.Table{
		Headers: append([]string{"K"}, fedMethods...),
	}
	for _, k := range s.KSweep {
		row := []string{fmt.Sprintf("%d", k)}
		for _, m := range fedMethods {
			row = append(row, metrics.F(get(figure7Spec(s, k, m, seed)).Best()))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.RenderString())
	return b.String()
}

// renderFigure7Seeds is the seed-replicated Fig. 7: mean±std cells.
func renderFigure7Seeds(s Scale, seed uint64, seeds int, get ArtifactGetter) string {
	spec := s.datasets()[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: accuracy vs participating clients K (%s, CE, N=%d), mean±std of %d seeds\n\n", spec.Name, s.LargeN, seeds)
	tab := &metrics.Table{
		Headers: append([]string{"K"}, fedMethods...),
	}
	for _, k := range s.KSweep {
		row := []string{fmt.Sprintf("%d", k)}
		for _, m := range fedMethods {
			vals := replicateBests(get, figure7Spec(s, k, m, seed), seeds)
			row = append(row, metrics.MeanStd(mathx.Mean(vals), mathx.Std(vals)))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.RenderString())
	return b.String()
}

// Figure7 runs the Fig. 7 sweep in-process.
func Figure7(s Scale, seed uint64) string { return runNamed("figure7", s, seed) }

// figure8Spec builds one cell of the non-IID sweep (delta varies; the
// cell seed is offset by delta*100, preserving the historical seeding).
func figure8Spec(s Scale, delta float64, method string, seed uint64) CellSpec {
	ds := s.datasets()[1] // fashion-sim
	return CellSpec{Dataset: ds.Name, Partition: "CE", Method: method, N: s.LargeN, K: s.K, Delta: delta, Seed: seed + uint64(delta*100)}
}

// figure8Jobs enumerates the Fig. 8 sweep: Deltas × federated methods.
func figure8Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, delta := range s.Deltas {
		for _, m := range fedMethods {
			jobs = append(jobs, figure8Spec(s, delta, m, seed))
		}
	}
	return jobs
}

// renderFigure8 reproduces the non-IID-level sweep: accuracy on
// fashion-sim (LargeN clients, CE partition) as the main-group share δ
// varies.
func renderFigure8(s Scale, seed uint64, get ArtifactGetter) string {
	spec := s.datasets()[1] // fashion-sim
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: accuracy vs non-IID level delta (%s, CE, N=%d)\n\n", spec.Name, s.LargeN)
	tab := &metrics.Table{
		Headers: append([]string{"delta"}, fedMethods...),
	}
	for _, delta := range s.Deltas {
		row := []string{fmt.Sprintf("%.1f", delta)}
		for _, m := range fedMethods {
			row = append(row, metrics.F(get(figure8Spec(s, delta, m, seed)).Best()))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.RenderString())
	return b.String()
}

// renderFigure8Seeds is the seed-replicated Fig. 8: mean±std cells.
func renderFigure8Seeds(s Scale, seed uint64, seeds int, get ArtifactGetter) string {
	spec := s.datasets()[1]
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: accuracy vs non-IID level delta (%s, CE, N=%d), mean±std of %d seeds\n\n", spec.Name, s.LargeN, seeds)
	tab := &metrics.Table{
		Headers: append([]string{"delta"}, fedMethods...),
	}
	for _, delta := range s.Deltas {
		row := []string{fmt.Sprintf("%.1f", delta)}
		for _, m := range fedMethods {
			vals := replicateBests(get, figure8Spec(s, delta, m, seed), seeds)
			row = append(row, metrics.MeanStd(mathx.Mean(vals), mathx.Std(vals)))
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.RenderString())
	return b.String()
}

// Figure8 runs the Fig. 8 sweep in-process.
func Figure8(s Scale, seed uint64) string { return runNamed("figure8", s, seed) }

// figure10Jobs enumerates the Fig. 10 convergence cells: every dataset ×
// partition × federated method at SmallN clients.
func figure10Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, spec := range s.datasets() {
		for _, part := range PartitionNames {
			for _, m := range fedMethods {
				jobs = append(jobs, table3Spec(s, spec.Name, part, m, s.SmallN, seed))
			}
		}
	}
	return jobs
}

// renderFigure10 reproduces the convergence study: communication rounds
// needed by each method to reach the target accuracy (the minimum best
// accuracy across methods, as in §5.2), per dataset × partition at
// SmallN clients.
func renderFigure10(s Scale, seed uint64, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: rounds to reach target accuracy (target = min of methods' best), %d clients\n\n", s.SmallN)
	tab := &metrics.Table{
		Headers: []string{"dataset", "partition", "target", "FedAvg", "FedProx", "FedDRL"},
	}
	for _, spec := range s.datasets() {
		for _, part := range PartitionNames {
			arts := map[string]*CellArtifact{}
			target := -1.0
			for _, m := range fedMethods {
				a := get(table3Spec(s, spec.Name, part, m, s.SmallN, seed))
				arts[m] = a
				if target < 0 || a.Best() < target {
					target = a.Best()
				}
			}
			row := []string{spec.Name, part, metrics.F(target)}
			for _, m := range fedMethods {
				// Translate eval index to communication round.
				idx := arts[m].Accuracy.RoundsToTarget(target)
				if idx < 0 {
					row = append(row, "n/a")
				} else {
					row = append(row, fmt.Sprintf("%d", arts[m].AccRounds[idx-1]+1))
				}
			}
			tab.AddRow(row...)
		}
	}
	b.WriteString(tab.RenderString())
	return b.String()
}

// Figure10 runs the Fig. 10 grid in-process.
func Figure10(s Scale, seed uint64) string { return runNamed("figure10", s, seed) }
