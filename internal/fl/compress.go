package fl

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Sparse update compression (§3.5: "our technique is still applicable to
// other communication techniques such as sparse data compression
// [4, 18]"). Clients upload only the top-k weight *deltas* against the
// broadcast global model; the server reconstructs w_k = w_global + Δ_k
// before aggregation. FedDRL's impact factors are orthogonal to the
// compression, which is exactly the compatibility the paper claims — and
// TestFedDRLWithCompression exercises the combination.

// SparseDelta is a compressed client update: the coordinates and values
// of the largest-magnitude weight changes, at the width of the update it
// compresses. Like Update's Weights/Weights32, exactly one of Values
// (f64) and Values32 (f32, 4-byte values on the wire) is set, so
// sparsification and narrow encoding compose exactly as §3.5 claims the
// method's impact factors compose with any communication technique.
type SparseDelta struct {
	Dim      int
	Indices  []int
	Values   []float64
	Values32 []float32
}

// CompressTopK keeps the k largest-magnitude entries of (weights −
// base), in the vectors' own arithmetic. k is clamped to the vector
// length.
func CompressTopK[E tensor.Elem](weights, base []E, k int) SparseDelta {
	if len(weights) != len(base) {
		panic(fmt.Sprintf("fl: CompressTopK length mismatch %d vs %d", len(weights), len(base)))
	}
	if k <= 0 {
		panic("fl: CompressTopK with non-positive k")
	}
	n := len(weights)
	if k > n {
		k = n
	}
	type iv struct {
		i int
		v E
	}
	all := make([]iv, n)
	for i := range weights {
		all[i] = iv{i, weights[i] - base[i]}
	}
	sort.Slice(all, func(a, b int) bool {
		da, db := all[a].v, all[b].v
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return da > db
	})
	d := SparseDelta{Dim: n, Indices: make([]int, k)}
	vals := make([]E, k)
	top := all[:k]
	sort.Slice(top, func(a, b int) bool { return top[a].i < top[b].i })
	for j, e := range top {
		d.Indices[j] = e.i
		vals[j] = e.v
	}
	switch v := any(vals).(type) {
	case []float64:
		d.Values = v
	case []float32:
		d.Values32 = v
	}
	return d
}

// Decompress reconstructs the full weight vector w = base + Δ. An f32
// delta applies to the float32 image of base in float32 arithmetic and
// returns the exact widening, like AggregateOn on an f32 cohort.
func (d SparseDelta) Decompress(base []float64) []float64 {
	if d.Values32 != nil {
		return tensor.Widen(nil, applyDelta(d, d.Values32, tensor.Quantize(nil, base)))
	}
	return applyDelta(d, d.Values, base)
}

// applyDelta returns a copy of base with the delta's values added at
// its indices, at width E.
func applyDelta[E tensor.Elem](d SparseDelta, vals, base []E) []E {
	if len(base) != d.Dim {
		panic(fmt.Sprintf("fl: Decompress base length %d, delta dim %d", len(base), d.Dim))
	}
	out := slices.Clone(base)
	for j, i := range d.Indices {
		if i < 0 || i >= d.Dim {
			panic(fmt.Sprintf("fl: Decompress index %d out of %d", i, d.Dim))
		}
		out[i] += vals[j]
	}
	return out
}

// WireSize returns the encoded byte size of the sparse delta (4-byte
// indices, 8- or 4-byte values, plus header), for comparing against the
// dense payload of serialize.VectorWireSize/VectorWireSize32.
func (d SparseDelta) WireSize() int {
	return 8 + 4*len(d.Indices) + 8*len(d.Values) + 4*len(d.Values32)
}

// CompressionRatio returns dense/sparse payload size at the delta's
// width.
func (d SparseDelta) CompressionRatio() float64 {
	prec := F64
	if d.Values32 != nil {
		prec = F32
	}
	return float64(weightWireSize(prec, d.Dim)) / float64(d.WireSize())
}

// CompressionError returns the L2 norm of the dropped delta mass — the
// reconstruction error the top-k truncation introduces.
func CompressionError(weights, base []float64, d SparseDelta) float64 {
	rec := d.Decompress(base)
	sum := 0.0
	for i := range weights {
		diff := weights[i] - rec[i]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

// CompressUpdates converts a round's dense updates into sparse deltas
// against the global model, keeping a fraction of coordinates.
func CompressUpdates(updates []Update, global []float64, keepFrac float64) []SparseDelta {
	return CompressUpdatesOn(updates, global, keepFrac, nil)
}

// CompressUpdatesOn is CompressUpdates executed on an engine pool: the
// per-client top-k selections are independent, so they fan out across
// the pool's lanes (stealable like any engine job when the pool is
// busy), one update per index slot. A nil pool runs inline. The result
// is bit-identical to the sequential path at any pool width.
//
// The deltas take the cohort's width: an f32 cohort compresses against
// the float32 image of global — exact, since the run loop keeps an f32
// run's global model on the float32 lattice.
func CompressUpdatesOn(updates []Update, global []float64, keepFrac float64, pool *engine.Pool) []SparseDelta {
	if keepFrac <= 0 || keepFrac > 1 {
		panic(fmt.Sprintf("fl: keepFrac %v out of (0,1]", keepFrac))
	}
	k := int(keepFrac * float64(len(global)))
	if k < 1 {
		k = 1
	}
	if cohortWidth(updates) == F32 {
		return compressOn(updates, tensor.Quantize(nil, global), k, pool)
	}
	return compressOn(updates, global, k, pool)
}

// compressOn compresses every update of a width-E cohort against base.
func compressOn[E tensor.Elem](updates []Update, base []E, k int, pool *engine.Pool) []SparseDelta {
	out := make([]SparseDelta, len(updates))
	pool.For(len(updates), func(i int) {
		out[i] = CompressTopK(weightsAt[E](updates, i), base, k)
	})
	return out
}

// DecompressUpdates reconstructs dense updates from sparse deltas at
// each delta's width, preserving the metadata of the originals.
func DecompressUpdates(updates []Update, deltas []SparseDelta, global []float64) []Update {
	if len(updates) != len(deltas) {
		panic("fl: DecompressUpdates length mismatch")
	}
	var base32 []float32
	out := make([]Update, len(updates))
	for i, u := range updates {
		out[i] = u
		d := deltas[i]
		if d.Values32 == nil {
			out[i].Weights = applyDelta(d, d.Values, global)
			continue
		}
		if base32 == nil {
			base32 = tensor.Quantize(nil, global)
		}
		out[i].Weights32 = applyDelta(d, d.Values32, base32)
	}
	return out
}
