// Package mathx collects the small numeric kernels shared by every other
// package in the FedDRL reproduction: a numerically stable softmax,
// softplus, a finite check, and summary statistics over slices (sum,
// mean, variance, extrema).
package mathx

import "math"

// Softmax returns the softmax of x in a freshly allocated slice. It is
// numerically stable (shifts by the max) and returns a uniform
// distribution for an empty-range degenerate input of all -Inf.
func Softmax(x []float64) []float64 {
	out := make([]float64, len(x))
	SoftmaxTo(out, x)
	return out
}

// SoftmaxTo writes softmax(x) into dst. dst and x must have equal length;
// they may alias.
func SoftmaxTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mathx: SoftmaxTo length mismatch")
	}
	if len(x) == 0 {
		return
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Sum returns the sum of x using Kahan compensation, which matters when
// accumulating many small per-sample losses.
func Sum(x []float64) float64 {
	sum, c := 0.0, 0.0
	for _, v := range x {
		y := v - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// elements.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	acc := 0.0
	for _, v := range x {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Min returns the minimum of x. It panics on an empty slice.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("mathx: Min of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("mathx: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the first maximal element of x. It panics
// on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}

// Softplus returns log(1 + e^x) computed stably.
func Softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
