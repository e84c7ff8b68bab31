package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSoftmaxBasic(t *testing.T) {
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if !almostEq(v, 1.0/3, 1e-12) {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	p = Softmax([]float64{0, math.Log(3)})
	if !almostEq(p[0], 0.25, 1e-12) || !almostEq(p[1], 0.75, 1e-12) {
		t.Fatalf("softmax([0,ln3]) = %v", p)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 999})
	sum := 0.0
	for _, v := range p {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("unstable softmax: %v", p)
		}
		sum += v
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("softmax sum = %v", sum)
	}
	// Degenerate all -Inf input falls back to uniform.
	q := Softmax([]float64{math.Inf(-1), math.Inf(-1)})
	if !almostEq(q[0], 0.5, 1e-12) || !almostEq(q[1], 0.5, 1e-12) {
		t.Fatalf("degenerate softmax = %v", q)
	}
}

func TestSoftmaxSimplexProperty(t *testing.T) {
	// Property: for arbitrary finite inputs, softmax lies on the simplex
	// and is invariant to additive shifts.
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = math.Mod(v, 50) // keep finite and moderate
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		shift = math.Mod(shift, 50)
		p := Softmax(x)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-9) {
			return false
		}
		shifted := make([]float64, len(x))
		for i := range x {
			shifted[i] = x[i] + shift
		}
		q := Softmax(shifted)
		for i := range p {
			if !almostEq(p[i], q[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxToAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	SoftmaxTo(x, x)
	sum := x[0] + x[1] + x[2]
	if !almostEq(sum, 1, 1e-12) {
		t.Fatalf("aliased SoftmaxTo sum = %v", sum)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SoftmaxTo(make([]float64, 2), x)
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	x := make([]float64, 0, 10001)
	x = append(x, 1)
	for i := 0; i < 10000; i++ {
		x = append(x, 1e-16)
	}
	got := Sum(x)
	want := 1 + 1e-12
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("Kahan sum = %.18f, want %.18f", got, want)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(x); !almostEq(v, 4, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := Std(x); !almostEq(s, 2, 1e-12) {
		t.Fatalf("std = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("empty/singleton statistics should be 0")
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := []float64{3, -1, 7, 7, 2}
	if Min(x) != -1 || Max(x) != 7 {
		t.Fatalf("min/max wrong: %v %v", Min(x), Max(x))
	}
	if ArgMax(x) != 2 {
		t.Fatalf("ArgMax = %d, want first maximal index 2", ArgMax(x))
	}
	for _, f := range []func(){func() { Min(nil) }, func() { Max(nil) }, func() { ArgMax(nil) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("empty-slice extremum did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSoftplus(t *testing.T) {
	if !almostEq(Softplus(0), math.Log(2), 1e-12) {
		t.Fatalf("softplus(0) = %v", Softplus(0))
	}
	if !almostEq(Softplus(100), 100, 1e-9) {
		t.Fatalf("softplus(100) = %v", Softplus(100))
	}
	if Softplus(-100) <= 0 || Softplus(-100) > 1e-40 {
		t.Fatalf("softplus(-100) = %v", Softplus(-100))
	}
	// Monotone property over random points.
	r := rng.New(1)
	prevX, prevY := -40.0, Softplus(-40)
	for i := 0; i < 100; i++ {
		x := prevX + r.Float64()
		y := Softplus(x)
		if y < prevY {
			t.Fatalf("softplus not monotone at %v", x)
		}
		prevX, prevY = x, y
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slice reported finite")
	}
	if !AllFinite(nil) {
		t.Fatal("empty slice should be finite")
	}
}
