package experiments

import (
	"fmt"
	"strings"

	"feddrl/internal/mathx"
	"feddrl/internal/metrics"
)

// Table3Cell is one (dataset, partition, N) column of Table 3.
type Table3Cell struct {
	Dataset   string
	Partition string
	N         int
	Best      map[string]float64 // method → best top-1 accuracy (%)
}

// ImprA returns FedDRL's relative improvement over the best baseline
// (impr.(a) of Table 3).
func (c Table3Cell) ImprA() float64 {
	best := c.baseline(true)
	return metrics.RelImprovement(c.Best["FedDRL"], best)
}

// ImprB returns FedDRL's relative improvement over the worst baseline
// (impr.(b)).
func (c Table3Cell) ImprB() float64 {
	worst := c.baseline(false)
	return metrics.RelImprovement(c.Best["FedDRL"], worst)
}

func (c Table3Cell) baseline(best bool) float64 {
	fa, fp := c.Best["FedAvg"], c.Best["FedProx"]
	if best == (fa > fp) {
		return fa
	}
	return fp
}

// Table3Result holds every cell, in dataset-major order.
type Table3Result struct {
	Scale string
	Cells []Table3Cell
}

// table3Spec builds the cell spec of one Table 3 grid cell.
func table3Spec(s Scale, ds, part, method string, n int, seed uint64) CellSpec {
	return CellSpec{Dataset: ds, Partition: part, Method: method, N: n, K: s.K, Delta: defaultDelta, Seed: seed}
}

// table3Jobs enumerates the full Table 3 grid: three datasets ×
// {PA, CE, CN} × {SmallN, LargeN} clients × four methods, in canonical
// (shard-defining) order.
func table3Jobs(s Scale, seed uint64) []CellSpec {
	var jobs []CellSpec
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			for _, part := range PartitionNames {
				for _, m := range Methods {
					jobs = append(jobs, table3Spec(s, spec.Name, part, m, n, seed))
				}
			}
		}
	}
	return jobs
}

// BuildTable3 assembles the Table 3 result from cell artifacts — the
// pure merge stage shared by unsharded runs and shard merges.
func BuildTable3(s Scale, seed uint64, get ArtifactGetter) *Table3Result {
	res := &Table3Result{Scale: s.Name}
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			for _, part := range PartitionNames {
				cell := Table3Cell{Dataset: spec.Name, Partition: part, N: n, Best: map[string]float64{}}
				for _, m := range Methods {
					cell.Best[m] = get(table3Spec(s, spec.Name, part, m, n, seed)).Best()
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// RunTable3 executes the full Table 3 grid in-process. Independent
// cells run concurrently on the scale's engine pool (Scale.Workers);
// each cell is seeded independently, so the rendered table is identical
// at any width. It panics on an unknown Scale.Attack or Scale.Merger,
// which Run returns as an error.
func RunTable3(s Scale, seed uint64) *Table3Result {
	st := newStore(s)
	defer st.close()
	if err := st.prefetch(table3Jobs(s, seed)); err != nil {
		panic(err)
	}
	return BuildTable3(s, seed, st.get)
}

// Render prints the Table 3 layout: one block per (dataset, N), rows =
// methods plus impr.(a)/impr.(b).
func (t *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: best top-1 test accuracy (%%), scale=%s\n\n", t.Scale)
	// Group cells by (dataset, n).
	type groupKey struct {
		ds string
		n  int
	}
	order := []groupKey{}
	groups := map[groupKey][]Table3Cell{}
	for _, c := range t.Cells {
		k := groupKey{c.Dataset, c.N}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		cells := groups[k]
		tab := &metrics.Table{
			Title:   fmt.Sprintf("%s, %d clients", k.ds, k.n),
			Headers: append([]string{"method"}, PartitionNames...),
		}
		for _, m := range Methods {
			row := []string{m}
			for _, part := range PartitionNames {
				row = append(row, metrics.F(findCell(cells, part).Best[m]))
			}
			tab.AddRow(row...)
		}
		ra := []string{"impr.(a)"}
		rb := []string{"impr.(b)"}
		for _, part := range PartitionNames {
			c := findCell(cells, part)
			ra = append(ra, metrics.Pct(c.ImprA()))
			rb = append(rb, metrics.Pct(c.ImprB()))
		}
		tab.AddRow(ra...)
		tab.AddRow(rb...)
		b.WriteString(tab.RenderString())
		b.WriteByte('\n')
	}
	return b.String()
}

func findCell(cells []Table3Cell, part string) Table3Cell {
	for _, c := range cells {
		if c.Partition == part {
			return c
		}
	}
	panic(fmt.Sprintf("experiments: missing Table 3 cell for partition %q", part))
}

// renderTable3 is the Registry render stage.
func renderTable3(s Scale, seed uint64, get ArtifactGetter) string {
	return BuildTable3(s, seed, get).Render()
}

// renderTable3Seeds renders the seed-replicated Table 3: every cell is
// mean±std of the replicates' best accuracies, and the impr.(a)/(b)
// rows are computed from the mean values.
func renderTable3Seeds(s Scale, seed uint64, seeds int, get ArtifactGetter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: best top-1 test accuracy (%%), mean±std of %d seeds, scale=%s\n\n", seeds, s.Name)
	for _, spec := range s.datasets() {
		for _, n := range []int{s.SmallN, s.LargeN} {
			tab := &metrics.Table{
				Title:   fmt.Sprintf("%s, %d clients", spec.Name, n),
				Headers: append([]string{"method"}, PartitionNames...),
			}
			// Collect each cell's replicate values once; the mean±std
			// rows and the impr rows both derive from bests.
			bests := map[string]map[string][]float64{} // part → method → replicate bests
			meanCells := map[string]Table3Cell{}
			for _, part := range PartitionNames {
				bests[part] = map[string][]float64{}
				cell := Table3Cell{Dataset: spec.Name, Partition: part, N: n, Best: map[string]float64{}}
				for _, m := range Methods {
					vals := replicateBests(get, table3Spec(s, spec.Name, part, m, n, seed), seeds)
					bests[part][m] = vals
					cell.Best[m] = mathx.Mean(vals)
				}
				meanCells[part] = cell
			}
			for _, m := range Methods {
				row := []string{m}
				for _, part := range PartitionNames {
					vals := bests[part][m]
					row = append(row, metrics.MeanStd(mathx.Mean(vals), mathx.Std(vals)))
				}
				tab.AddRow(row...)
			}
			ra := []string{"impr.(a)"}
			rb := []string{"impr.(b)"}
			for _, part := range PartitionNames {
				c := meanCells[part]
				ra = append(ra, metrics.Pct(c.ImprA()))
				rb = append(rb, metrics.Pct(c.ImprB()))
			}
			tab.AddRow(ra...)
			tab.AddRow(rb...)
			b.WriteString(tab.RenderString())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// replicateBests collects the best accuracies of a cell's seed
// replicates.
func replicateBests(get ArtifactGetter, spec CellSpec, seeds int) []float64 {
	vals := make([]float64, seeds)
	for r := 0; r < seeds; r++ {
		vals[r] = get(replicateSpec(spec, r)).Best()
	}
	return vals
}

// Table3 renders the single-seed Table 3 (the Registry entry's
// historical signature, kept for library users and tests).
func Table3(s Scale, seed uint64) string { return RunTable3(s, seed).Render() }
