package fl

import (
	"fmt"
	"math"
	"slices"

	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Merger is the server-side merge seam: it turns a cohort of client
// updates (plus the aggregator's impact factors) into the next global
// model directly. The Aggregator interface can only express convex
// impact factors, which is enough for FedAvg/FedProx/FedDRL but cannot
// express coordinate-wise median, trimmed mean, or Krum; Merger
// generalizes the final reduction while leaving the decision layer
// (ImpactFactors) untouched, so robust merges compose with every
// aggregator.
//
// Contract, shared by all implementations in this package:
//
//   - Merge returns a freshly allocated vector (callers may retain it
//     as the new global model) and must not mutate updates or alpha.
//   - The result is a pure function of (updates, alpha): bit-identical
//     for any pool width, including a nil pool. Parallel
//     implementations fan out over disjoint units (coordinate segments
//     or pairwise distances) and keep every per-unit fold sequential.
//   - Merge reads Update.Weights and Merge32 reads Update.Weights32;
//     the run loop calls the one matching its Precision. A cohort of
//     the other width, of mixed widths or without weights panics.
//
// Each built-in rule is one generic body over tensor.Elem that both
// methods call.
type Merger interface {
	Name() string
	// Merge produces the merged float64 vector. pool may be nil for a
	// sequential merge.
	Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64
	// Merge32 is Merge over an f32 cohort, producing a float32 vector.
	Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32
}

// mergeP dispatches the merge on the run's precision through an
// optional Merger. A nil merger resolves to WeightedMerge, whose
// output is byte-identical to AggregateOn, so the zero value of
// RunConfig.Merger changes nothing.
func mergeP(prec Precision, m Merger, updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	if m == nil {
		m = WeightedMerge{}
	}
	if prec == F32 {
		return tensor.Widen(nil, m.Merge32(updates, alpha, pool))
	}
	return m.Merge(updates, alpha, pool)
}

// WeightedMerge is the default impact-factor merger: the convex
// combination Σ_k α_k·w_k of AggregateOn. It is byte-identical to
// calling AggregateOn directly, which keeps every historical run (and
// every cached experiment cell) valid.
type WeightedMerge struct{}

// Name implements Merger.
func (WeightedMerge) Name() string { return "weighted" }

// Merge implements Merger.
func (WeightedMerge) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return aggregate[float64](updates, alpha, pool)
}

// Merge32 implements Merger.
func (WeightedMerge) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return aggregate[float32](updates, alpha, pool)
}

// Median merges by coordinate-wise median, ignoring impact factors.
// Robust to up to ⌈k/2⌉-1 arbitrary (Byzantine) updates per
// coordinate. Even cohort sizes take the mean of the two middle
// values.
type Median struct{}

// Name implements Merger.
func (Median) Name() string { return "median" }

// Merge implements Merger.
func (Median) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return coordMerge(updates, alpha, pool, median[float64])
}

// Merge32 implements Merger.
func (Median) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return coordMerge(updates, alpha, pool, median[float32])
}

// median sorts vals (NaNs first, as slices.Sort orders them) and
// returns the middle value, or the mean of the two middle values.
func median[E tensor.Elem](vals []E) E {
	slices.Sort(vals)
	k := len(vals)
	if k%2 == 1 {
		return vals[k/2]
	}
	return (vals[k/2-1] + vals[k/2]) / 2
}

// TrimmedMean merges by coordinate-wise β-trimmed mean: per
// coordinate, the k values are sorted, the ⌊β·k⌋ smallest and largest
// are discarded, and the remainder is averaged (summed in ascending
// order, so the result is independent of update order and pool width).
// Beta is clamped so at least one value survives the trim.
type TrimmedMean struct {
	// Beta is the trim fraction per tail, typically the expected
	// malicious fraction. Values outside [0, 0.5) are clamped.
	Beta float64
}

// Name implements Merger.
func (t TrimmedMean) Name() string { return "trimmed" }

// trimCount resolves the number of values dropped from each tail of a
// sorted k-cohort.
func (t TrimmedMean) trimCount(k int) int {
	b := t.Beta
	if b < 0 || math.IsNaN(b) {
		b = 0
	}
	n := int(b * float64(k))
	if 2*n >= k {
		n = (k - 1) / 2
	}
	return n
}

// Merge implements Merger.
func (t TrimmedMean) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return coordMerge(updates, alpha, pool, trimmedMean[float64](t))
}

// Merge32 implements Merger.
func (t TrimmedMean) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return coordMerge(updates, alpha, pool, trimmedMean[float32](t))
}

// trimmedMean returns t's per-coordinate statistic at width E: the
// mean of the sorted values left after the trim, summed at width E.
func trimmedMean[E tensor.Elem](t TrimmedMean) func(vals []E) E {
	return func(vals []E) E {
		slices.Sort(vals)
		n := t.trimCount(len(vals))
		kept := vals[n : len(vals)-n]
		var sum E
		for _, v := range kept {
			sum += v
		}
		return sum / E(len(kept))
	}
}

// Krum merges by selecting the single update whose summed squared
// distance to its n−f−2 nearest neighbours is smallest (Blanchard et
// al., NeurIPS 2017) and returning a copy of it. Selection needs
// n ≥ f+3 for the textbook guarantee; smaller cohorts clamp the
// neighbour count to at least 1. Ties break toward the lowest client
// index, so the choice is deterministic.
type Krum struct {
	// F is the number of Byzantine updates the selection must
	// tolerate.
	F int
}

// Name implements Merger.
func (k Krum) Name() string { return "krum" }

// krumPick returns the index of the selected update given the pairwise
// squared distances d2 (flattened upper triangle, see pairIndex).
func (k Krum) krumPick(n int, d2 []float64) int {
	neighbors := n - k.F - 2
	if neighbors < 1 {
		neighbors = 1
	}
	if neighbors > n-1 {
		neighbors = n - 1
	}
	best, bestScore := 0, math.Inf(1)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			row = append(row, d2[pairIndex(n, i, j)])
		}
		slices.Sort(row)
		var score float64
		for _, d := range row[:neighbors] {
			score += d
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// pairIndex maps an unordered pair {i,j}, i≠j, into the flattened
// upper-triangle distance buffer.
func pairIndex(n, i, j int) int {
	if i > j {
		i, j = j, i
	}
	// offset of row i in the packed triangle, plus the column offset.
	return i*n - i*(i+1)/2 + (j - i - 1)
}

// Merge implements Merger.
func (k Krum) Merge(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	return krum[float64](k, updates, alpha, pool)
}

// Merge32 implements Merger.
func (k Krum) Merge32(updates []Update, alpha []float64, pool *engine.Pool) []float32 {
	return krum[float32](k, updates, alpha, pool)
}

// krum returns a copy of the update k selects from a width-E cohort.
func krum[E tensor.Elem](k Krum, updates []Update, alpha []float64, pool *engine.Pool) []E {
	vecs := mergeVecs[E](updates, alpha)
	d2 := krumDistances(vecs, pool)
	return slices.Clone(vecs[k.krumPick(len(vecs), d2)])
}

// krumDistances fills the flattened upper triangle of pairwise squared
// distances. Each pair is one pool task with a sequential fold, so the
// buffer is bit-identical at any pool width.
func krumDistances[E tensor.Elem](vecs [][]E, pool *engine.Pool) []float64 {
	n := len(vecs)
	d2 := make([]float64, n*(n-1)/2)
	if pool == nil || len(d2) < 2 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d2[pairIndex(n, i, j)] = sqDist(vecs[i], vecs[j])
			}
		}
		return d2
	}
	pool.ForWorkerHinted(len(d2), engine.SizeCoarse, 0, func(_, p int) {
		i, j := pairFromIndex(n, p)
		d2[p] = sqDist(vecs[i], vecs[j])
	})
	return d2
}

// pairFromIndex is the inverse of pairIndex: flat triangle offset back
// to the ordered pair (i, j), i < j.
func pairFromIndex(n, p int) (int, int) {
	i := 0
	for rowLen := n - 1; p >= rowLen; rowLen-- {
		p -= rowLen
		i++
	}
	return i, i + 1 + p
}

// sqDist is the squared L2 distance between two equal-length vectors,
// folded sequentially in f64 at either width (f32 state may use f64
// compute as long as the result is deterministic).
func sqDist[E tensor.Elem](a, b []E) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// mergeVecs validates a width-E merge cohort — non-empty, one impact
// factor per update, every update carrying width-E weights of one
// dimension (the checks of AggregateOn minus the convexity constraint,
// which order-statistic mergers do not require) — and returns the
// weight vectors.
func mergeVecs[E tensor.Elem](updates []Update, alpha []float64) [][]E {
	if len(updates) == 0 {
		panic("fl: merge of zero updates")
	}
	if len(alpha) != len(updates) {
		panic(fmt.Sprintf("fl: %d impact factors for %d updates", len(alpha), len(updates)))
	}
	vecs := make([][]E, len(updates))
	for i := range updates {
		vecs[i] = weightsAt[E](updates, i)
		if len(vecs[i]) != len(vecs[0]) {
			panic(fmt.Sprintf("fl: update %d has dim %d, want %d", i, len(vecs[i]), len(vecs[0])))
		}
	}
	return vecs
}

// coordMerge applies a per-coordinate order statistic to a width-E
// cohort, fanned out over aggSegment coordinate spans. Each coordinate
// gathers its k values into a span-local scratch and reduces them with
// stat; coordinates are independent, so any pool width produces
// identical bytes.
func coordMerge[E tensor.Elem](updates []Update, alpha []float64, pool *engine.Pool, stat func(vals []E) E) []E {
	vecs := mergeVecs[E](updates, alpha)
	out := make([]E, len(vecs[0]))
	forSegments(pool, len(out), func(lo, hi int) {
		vals := make([]E, len(vecs))
		for c := lo; c < hi; c++ {
			for i, v := range vecs {
				vals[i] = v[c]
			}
			out[c] = stat(vals)
		}
	})
	return out
}

// ParseMerger resolves a CLI merger name. The empty string and
// "weighted" both select the default impact-factor merge ("" maps to a
// nil Merger so the zero-value configuration stays byte-identical to
// historical runs). frac is the expected malicious fraction and k the
// merge cohort size; together they size Krum's tolerance f =
// max(1, round(frac·k)).
func ParseMerger(name string, frac float64, k int) (Merger, error) {
	switch name {
	case "":
		return nil, nil
	case "weighted":
		return WeightedMerge{}, nil
	case "median":
		return Median{}, nil
	case "trimmed":
		// β tracks the declared malicious fraction with a sampling
		// margin: membership is a per-identity Bernoulli trait, so a
		// k-cohort's malicious count fluctuates around frac·k and a
		// trim sized exactly at frac loses to the variance. Floor 0.2
		// keeps the benign default; cap 0.45 stays below the
		// half-cohort clamp.
		b := frac + 0.1
		if b < 0.2 {
			b = 0.2
		}
		if b > 0.45 {
			b = 0.45
		}
		return TrimmedMean{Beta: b}, nil
	case "krum":
		f := int(math.Round(frac * float64(k)))
		if f < 1 {
			f = 1
		}
		return Krum{F: f}, nil
	}
	return nil, fmt.Errorf("fl: unknown merger %q (valid: weighted, median, trimmed, krum)", name)
}
