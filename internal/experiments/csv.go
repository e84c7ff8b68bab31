package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"feddrl/internal/metrics"
)

// CSV export: the figure runners print text tables; these helpers emit
// the same series as CSV files for external plotting (one file per
// figure panel). Used by cmd/tables -csvdir. They consume the same
// CellSpec→artifact pipeline as the text renderers.

// Figure5Series returns one SeriesSet per (dataset, partition) panel of
// Figure 5, keyed "figure5-<dataset>-<partition>". Like Figure7Series
// and Figure8Series, it panics on an unknown Scale.Attack or
// Scale.Merger, which ExportCSV returns as an error.
func Figure5Series(s Scale, seed uint64) map[string]*metrics.SeriesSet {
	return must(figure5Series(s, seed, nil))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func figure5Series(s Scale, seed uint64, cache *Cache) (map[string]*metrics.SeriesSet, error) {
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(figure5Jobs(s, seed)); err != nil {
		return nil, err
	}
	out := map[string]*metrics.SeriesSet{}
	for _, spec := range s.datasets() {
		if spec.Name == "mnist-sim" {
			continue
		}
		for _, part := range PartitionNames {
			ref := st.get(table3Spec(s, spec.Name, part, "FedAvg", s.SmallN, seed))
			x := make([]float64, len(ref.AccRounds))
			for i, r := range ref.AccRounds {
				x[i] = float64(r)
			}
			ss := metrics.NewSeriesSet("round", x)
			for _, m := range fedMethods {
				ss.Add(m, st.get(table3Spec(s, spec.Name, part, m, s.SmallN, seed)).Accuracy)
			}
			out[fmt.Sprintf("figure5-%s-%s", spec.Name, part)] = ss
		}
	}
	return out, nil
}

// Figure7Series returns the participation-sweep series (x = K).
func Figure7Series(s Scale, seed uint64) *metrics.SeriesSet {
	return must(figure7Series(s, seed, nil))
}

func figure7Series(s Scale, seed uint64, cache *Cache) (*metrics.SeriesSet, error) {
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(figure7Jobs(s, seed)); err != nil {
		return nil, err
	}
	x := make([]float64, len(s.KSweep))
	cols := map[string]metrics.Series{}
	for i, k := range s.KSweep {
		x[i] = float64(k)
		for _, m := range fedMethods {
			cols[m] = append(cols[m], st.get(figure7Spec(s, k, m, seed)).Best())
		}
	}
	ss := metrics.NewSeriesSet("K", x)
	for _, m := range fedMethods {
		ss.Add(m, cols[m])
	}
	return ss, nil
}

// Figure8Series returns the non-IID-level-sweep series (x = delta).
func Figure8Series(s Scale, seed uint64) *metrics.SeriesSet {
	return must(figure8Series(s, seed, nil))
}

func figure8Series(s Scale, seed uint64, cache *Cache) (*metrics.SeriesSet, error) {
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(figure8Jobs(s, seed)); err != nil {
		return nil, err
	}
	x := make([]float64, len(s.Deltas))
	cols := map[string]metrics.Series{}
	for i, delta := range s.Deltas {
		x[i] = delta
		for _, m := range fedMethods {
			cols[m] = append(cols[m], st.get(figure8Spec(s, delta, m, seed)).Best())
		}
	}
	ss := metrics.NewSeriesSet("delta", x)
	for _, m := range fedMethods {
		ss.Add(m, cols[m])
	}
	return ss, nil
}

// ExportCSV writes the figure series of the given experiment id into
// dir, returning the written file paths. Supported ids: figure5,
// figure7, figure8.
func ExportCSV(id string, s Scale, seed uint64, dir string) ([]string, error) {
	return ExportCSVCached(id, s, seed, dir, nil)
}

// ExportCSVCached is ExportCSV backed by a content-addressed artifact
// cache — after a cached text render of the same figure, the CSV export
// reloads every cell instead of retraining it.
func ExportCSVCached(id string, s Scale, seed uint64, dir string, cache *Cache) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: csv dir: %w", err)
	}
	sets := map[string]*metrics.SeriesSet{}
	var err error
	switch id {
	case "figure5":
		sets, err = figure5Series(s, seed, cache)
	case "figure7":
		sets["figure7"], err = figure7Series(s, seed, cache)
	case "figure8":
		sets["figure8"], err = figure8Series(s, seed, cache)
	default:
		return nil, fmt.Errorf("experiments: no CSV export for %q (supported: figure5, figure7, figure8)", id)
	}
	if err != nil {
		return nil, err
	}
	var paths []string
	for name, ss := range sets {
		p := filepath.Join(dir, name+".csv")
		if err := ss.SaveCSV(p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}
