package nn

import (
	"math"
	"testing"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// trainStep runs one optimization step — forward, loss, backward, SGD
// update — through the arena: the parameter-only backward that client
// training takes, or with full the backward that also returns the input
// gradient.
func trainStep(net *Network, sc *Scratch, ce *CrossEntropy, opt *SGD, x *tensor.Tensor, y []int, full bool) {
	ce.Forward(net.ForwardScratch(sc, x, true), y)
	net.ZeroGrads()
	if full {
		net.BackwardScratch(sc, ce.Backward())
	} else {
		net.BackwardParams(sc, ce.Backward())
	}
	opt.Step(net)
}

// assertZeroAllocTrainStep warms the arena and asserts that subsequent
// steps, through both backward passes, perform zero heap allocations.
func assertZeroAllocTrainStep(t *testing.T, net *Network, in int) {
	t.Helper()
	sc := NewScratch()
	ce := NewCrossEntropy()
	opt := NewSGD(0.05)
	r := rng.New(42)
	const batch = 8
	x := tensor.New(batch, in)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = r.Intn(2)
	}
	// Warm: let every slot and kernel scratch buffer reach steady state.
	step := func() {
		trainStep(net, sc, ce, opt, x, y, false)
		trainStep(net, sc, ce, opt, x, y, true)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(10, step)
	if allocs != 0 {
		t.Fatalf("warm train step allocates %.1f times per run, want 0", allocs)
	}
}

// TestTrainStepAllocsDense is the allocation gate for the dense stack
// (run explicitly by scripts/verify.sh): a warm MLP train step through
// an arena must not touch the heap.
func TestTrainStepAllocsDense(t *testing.T) {
	r := rng.New(1)
	net := NewMLP(r, 24, []int{32, 16}, 4)
	assertZeroAllocTrainStep(t, net, 24)
}

// TestTrainStepAllocsConv is the allocation gate for the convolution
// stack: a warm SimpleCNN train step (conv, pool, ReLU, dense, batched
// im2col, blocked GEMMs) must not touch the heap.
func TestTrainStepAllocsConv(t *testing.T) {
	r := rng.New(2)
	net := NewSimpleCNN(r, 1, 8, 8, 4)
	assertZeroAllocTrainStep(t, net, 64)
}

// TestScratchPathMatchesPlain pins the arena's bit-identity: training
// the same seeded network with and without a Scratch must produce
// byte-identical parameter trajectories.
func TestScratchPathMatchesPlain(t *testing.T) {
	build := func() *Network { return NewSimpleCNN(rng.New(7), 1, 8, 8, 3) }
	plain, scratched := build(), build()
	sc := NewScratch()
	cePlain, ceScratch := NewCrossEntropy(), NewCrossEntropy()
	optPlain, optScratch := NewSGD(0.05), NewSGD(0.05)
	r := rng.New(9)
	const batch, in = 6, 64
	x := tensor.New(batch, in)
	y := make([]int, batch)
	for step := 0; step < 4; step++ {
		for i := range x.Data {
			x.Data[i] = r.Normal(0, 1)
		}
		for i := range y {
			y[i] = r.Intn(3)
		}
		lp := cePlain.Forward(plain.Forward(x, true), y)
		plain.ZeroGrads()
		plain.Backward(cePlain.Backward())
		optPlain.Step(plain)

		ls := ceScratch.Forward(scratched.ForwardScratch(sc, x, true), y)
		scratched.ZeroGrads()
		scratched.BackwardScratch(sc, ceScratch.Backward())
		optScratch.Step(scratched)

		if lp != ls {
			t.Fatalf("step %d: loss diverged: plain %x scratch %x", step, lp, ls)
		}
	}
	pv, sv := plain.ParamVector(), scratched.ParamVector()
	for i := range pv {
		if pv[i] != sv[i] {
			t.Fatalf("param %d diverged: plain %x scratch %x", i, pv[i], sv[i])
		}
	}
}

// TestBackwardParamsMatchesFull pins the parameter-only backward: on a
// dense MLP and on a Conv2D+pool stack, BackwardParams must accumulate
// gradients bit-identical to BackwardScratch's over several SGD steps,
// while its bottom layer never draws its input-gradient buffers (Dense
// slot 2; Conv2D's dCols and dx, slots 6 and 3) from the arena.
func TestBackwardParamsMatchesFull(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Network
		in      int
		dInSlot []int
	}{
		{"mlp", func() *Network { return NewMLP(rng.New(4), 24, []int{32, 16}, 3) }, 24, []int{2}},
		{"cnn", func() *Network { return NewSimpleCNN(rng.New(5), 1, 8, 8, 3) }, 64, []int{3, 6}},
	}
	for _, c := range cases {
		full, params := c.build(), c.build()
		scFull, scParams := NewScratch(), NewScratch()
		ceFull, ceParams := NewCrossEntropy(), NewCrossEntropy()
		optFull, optParams := NewSGD(0.05), NewSGD(0.05)
		r := rng.New(11)
		const batch = 10
		x := tensor.New(batch, c.in)
		y := make([]int, batch)
		for step := 0; step < 4; step++ {
			for i := range x.Data {
				x.Data[i] = r.Normal(0, 1)
			}
			for i := range y {
				y[i] = r.Intn(3)
			}
			ceFull.Forward(full.ForwardScratch(scFull, x, true), y)
			full.ZeroGrads()
			if dx := full.BackwardScratch(scFull, ceFull.Backward()); dx == nil || dx.Rows() != batch || dx.Cols() != c.in {
				t.Fatalf("%s: full backward returned no input gradient", c.name)
			}
			ceParams.Forward(params.ForwardScratch(scParams, x, true), y)
			params.ZeroGrads()
			params.BackwardParams(scParams, ceParams.Backward())
			gf, gp := full.GradVector(), params.GradVector()
			for i := range gf {
				if math.Float64bits(gf[i]) != math.Float64bits(gp[i]) {
					t.Fatalf("%s step %d: grad %d = %x, full backward %x", c.name, step, i, gp[i], gf[i])
				}
			}
			optFull.Step(full)
			optParams.Step(params)
		}
		for _, slot := range c.dInSlot {
			if _, ok := scParams.slots[scratchKey{layer: 0, slot: slot}]; ok {
				t.Fatalf("%s: BackwardParams drew the bottom layer's input-gradient slot %d", c.name, slot)
			}
			if _, ok := scFull.slots[scratchKey{layer: 0, slot: slot}]; !ok {
				t.Fatalf("%s: full backward never drew slot %d; the check above is vacuous", c.name, slot)
			}
		}
	}
}
