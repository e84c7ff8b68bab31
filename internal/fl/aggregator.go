package fl

import (
	"fmt"
	"math"

	"feddrl/internal/core"
	"feddrl/internal/engine"
	"feddrl/internal/tensor"
)

// Aggregator decides the impact factors used to merge client updates
// into the next global model (§3.1). Implementations receive the round's
// updates and return a convex combination weight per update.
type Aggregator interface {
	// Name identifies the method in results ("FedAvg", "FedProx", "FedDRL").
	Name() string
	// ImpactFactors returns one non-negative weight per update, summing
	// to 1.
	ImpactFactors(round int, updates []Update) []float64
}

// FedAvg is the sample-count-proportional aggregation of Eq. 1
// (McMahan et al. 2017): α_k = n_k / Σn.
type FedAvg struct{}

// Name returns "FedAvg".
func (FedAvg) Name() string { return "FedAvg" }

// ImpactFactors returns n_k/Σn per update.
func (FedAvg) ImpactFactors(round int, updates []Update) []float64 {
	if len(updates) == 0 {
		panic("fl: FedAvg with no updates")
	}
	total := 0
	for _, u := range updates {
		total += u.N
	}
	out := make([]float64, len(updates))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(updates))
		}
		return out
	}
	for i, u := range updates {
		out[i] = float64(u.N) / float64(total)
	}
	return out
}

// FedProx aggregates exactly like FedAvg — the method's difference is the
// client-side proximal term (Li et al. 2020), enabled via
// RunConfig.Local.ProxMu. A separate type keeps result labels honest.
type FedProx struct{ FedAvg }

// Name returns "FedProx".
func (FedProx) Name() string { return "FedProx" }

// FedDRL is the paper's contribution: impact factors produced by the
// deep-reinforcement-learning agent of internal/core (§3.3–3.4,
// Algorithm 2 lines 13–20). One pending (state, action) is kept per
// round; when the next round's losses arrive they complete the previous
// experience with the Eq. 7 reward, and the agent trains online.
type FedDRL struct {
	Agent *core.Agent
	// Explore enables action noise and stochastic impact factors. On for
	// training runs; experiments switch it off for frozen-policy replays.
	Explore bool
	// FedAvgPrior anchors the impact factors on the sample-count prior:
	// α = softmax(z + log n_k/Σn), so a zero action reproduces FedAvg and
	// the policy learns deviations. Essential at compressed round budgets
	// (the paper's 1000-round runs can learn the n_k dependence from
	// scratch via the state); ablated by bench_test.go. Default on.
	FedAvgPrior bool

	pendingState  []float64
	pendingAction []float64
	havePending   bool
}

// NewFedDRL wraps an agent as an aggregator with exploration and the
// FedAvg prior enabled.
func NewFedDRL(agent *core.Agent) *FedDRL {
	if agent == nil {
		panic("fl: NewFedDRL with nil agent")
	}
	return &FedDRL{Agent: agent, Explore: true, FedAvgPrior: true}
}

// Name returns "FedDRL".
func (*FedDRL) Name() string { return "FedDRL" }

// ImpactFactors implements Algorithm 2 lines 13–20: build the state from
// the updates, complete and store the previous round's experience, train
// the agent when the buffer is warm, then act and return softmaxed
// Gaussian impact factors.
//
// During buffer warmup ("while D is insufficient") the aggregator acts
// with the FedAvg behavior policy instead of the untrained network: the
// sample-count weights are encoded as the equivalent Gaussian action
// (z = log α gives softmax(z) = α), so the critic's first experiences
// describe a sensible aggregation instead of random noise. This is the
// standard DDPG warmup treatment and is recorded in DESIGN.md; it
// matters at compressed round budgets, where the paper's 200–300 rounds
// of early exploration are unavailable.
func (f *FedDRL) ImpactFactors(round int, updates []Update) []float64 {
	k := f.Agent.Config().K
	if len(updates) != k {
		panic(fmt.Sprintf("fl: FedDRL configured for K=%d but received %d updates", k, len(updates)))
	}
	lb := make([]float64, k)
	la := make([]float64, k)
	ns := make([]int, k)
	for i, u := range updates {
		lb[i], la[i], ns[i] = u.LossBefore, u.LossAfter, u.N
	}
	state := f.Agent.BuildState(lb, la, ns)

	if f.havePending {
		// The new global model's client losses l_b score last round's
		// action (Algorithm 2 line 17; reward per Eq. 7).
		r := f.Agent.Reward(lb)
		f.Agent.Observe(f.pendingState, f.pendingAction, r, state)
		f.Agent.Train()
	}

	var action, alpha []float64
	switch {
	case !f.Agent.ReadyToTrain() && f.FedAvgPrior:
		// Warmup under the prior parameterization: the zero action IS
		// FedAvg, so the stored experience is exactly consistent.
		alpha = (FedAvg{}).ImpactFactors(round, updates)
		action = make([]float64, 2*k)
	case !f.Agent.ReadyToTrain():
		alpha = (FedAvg{}).ImpactFactors(round, updates)
		action = behaviorAction(alpha, f.Agent.Config().Beta)
	case f.FedAvgPrior:
		action = f.Agent.Act(state, f.Explore)
		alpha = f.Agent.ImpactFactorsWithPrior(action, (FedAvg{}).ImpactFactors(round, updates), f.Explore)
	default:
		action = f.Agent.Act(state, f.Explore)
		alpha = f.Agent.ImpactFactors(action, f.Explore)
	}
	f.pendingState = state
	f.pendingAction = action
	f.havePending = true
	return alpha
}

// behaviorAction encodes a weight vector as the Gaussian action whose
// deterministic impact factors reproduce it: μ = log(α), σ at the Eq. 6
// bound.
func behaviorAction(alpha []float64, beta float64) []float64 {
	k := len(alpha)
	act := make([]float64, 2*k)
	for i, a := range alpha {
		if a < 1e-12 {
			a = 1e-12
		}
		act[i] = math.Log(a)
		act[k+i] = beta * math.Abs(act[i]) * 0.1
	}
	return act
}

// Aggregate computes the weighted model merge of Eq. 4 into a fresh
// vector: w ← Σ_k α_k·w_k. It panics unless the weights form a
// (near-)convex combination aligned with the updates, and unless every
// upload is finite — see AllFinite for the misuse-vs-fault split.
func Aggregate(updates []Update, alpha []float64) []float64 {
	return AggregateOn(updates, alpha, nil)
}

// AllFinite reports whether every element of v is a finite number (no
// NaN, no ±Inf), at either width.
//
// The aggregation entry points panic on non-finite uploads because a
// single poisoned coordinate contaminates the whole merged model, and a
// caller reaching Aggregate with one has skipped the screening it owns
// — library misuse. The round loop never trips that panic: its ingress
// gate (QuarantineConfig) treats a non-finite upload as a runtime fault
// from a diverging or malicious client, drops it from the cohort, and
// counts it in RoundMetrics.Quarantined.
func AllFinite[E tensor.Elem](v []E) bool {
	for _, x := range v {
		// x-x is 0 for finite x and NaN for NaN/±Inf: one branch per
		// element instead of two math.Is* calls.
		if x-x != x-x {
			return false
		}
	}
	return true
}

// aggSegment is the column span each pool task merges in AggregateOn.
// Segmentation cannot change the result: every output element is the
// same k-ordered fold whichever segment it lands in.
const aggSegment = 8192

// AggregateOn is Aggregate executed segment-parallel on a worker pool
// (nil means sequential). Results are bit-identical to Aggregate.
// Under a saturated shared pool the segments enqueue for stealing like
// any nested job, so the merge stays parallel inside a busy grid.
//
// The width comes from the cohort: an f32 cohort (Update.Weights32)
// folds in pure float32 arithmetic — impact factors rounded once each
// to float32, one rounding per multiply and per add — and returns the
// exact widening of that result, which lies on the float32 lattice.
func AggregateOn(updates []Update, alpha []float64, pool *engine.Pool) []float64 {
	if cohortWidth(updates) == F32 {
		return tensor.Widen(nil, aggregate[float32](updates, alpha, pool))
	}
	return aggregate[float64](updates, alpha, pool)
}

// aggregate is the Eq. 4 fold at width E: for every output element a
// single k-ascending chain of the SIMD axpy kernel, whatever the
// segmentation, so any pool width and kernel backend gives the same
// bytes.
func aggregate[E tensor.Elem](updates []Update, alpha []float64, pool *engine.Pool) []E {
	vecs := mergeVecs[E](updates, alpha)
	sum := 0.0
	for _, a := range alpha {
		if a < 0 {
			panic("fl: negative impact factor")
		}
		sum += a
	}
	if sum < 0.999 || sum > 1.001 {
		panic(fmt.Sprintf("fl: impact factors sum to %v, want 1", sum))
	}
	for i, v := range vecs {
		if !AllFinite(v) {
			panic(fmt.Sprintf("fl: non-finite weights in update %d (client %d); screen uploads with AllFinite or the run loop's quarantine gate", i, updates[i].ClientID))
		}
	}
	a := make([]E, len(alpha))
	for i, x := range alpha {
		a[i] = E(x)
	}
	out := make([]E, len(vecs[0]))
	// Segments are microsecond-scale axpy strips: forSegments publishes
	// them on the fine scheduling class so idle lanes drain them before
	// any coarse grid cells pending in the same deques.
	forSegments(pool, len(out), func(lo, hi int) {
		dst := out[lo:hi]
		clear(dst)
		for k, v := range vecs {
			axpy(a[k], v[lo:hi], dst)
		}
	})
	return out
}

// axpy computes y += a·x on the SIMD kernel of E's width.
func axpy[E tensor.Elem](a E, x, y []E) {
	switch y := any(y).(type) {
	case []float64:
		tensor.Axpy(float64(a), any(x).([]float64), y)
	case []float32:
		tensor.Axpy32(float32(a), any(x).([]float32), y)
	}
}

// forSegments runs body over [0, dim) in aggSegment-wide spans, fanned
// out on pool's fine scheduling class when there are at least two. A
// nil pool or a single span runs body(0, dim) inline.
func forSegments(pool *engine.Pool, dim int, body func(lo, hi int)) {
	segs := (dim + aggSegment - 1) / aggSegment
	if pool == nil || segs < 2 {
		body(0, dim)
		return
	}
	pool.ForWorkerHinted(segs, engine.SizeFine, 0, func(_, s int) {
		lo := s * aggSegment
		body(lo, min(lo+aggSegment, dim))
	})
}
