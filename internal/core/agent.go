package core

import (
	"fmt"
	"math"
	"slices"

	"feddrl/internal/mathx"
	"feddrl/internal/nn"
	"feddrl/internal/replay"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Agent is the DDPG-style impact-factor agent of §3.4.1 (Fig. 3a): main
// and target policy networks, main and target value networks, and a
// TD-prioritized experience buffer. It is not safe for concurrent use;
// the two-stage trainer runs one Agent per worker.
type Agent struct {
	cfg Config

	policy, policyT *nn.Network
	value, valueT   *nn.Network
	popt, vopt      *nn.Adam

	// Buffer is the agent's experience store; exposed for the two-stage
	// merge (Fig. 3b).
	Buffer *replay.Buffer

	rng *rng.RNG

	// exploreScale decays multiplicatively with every exploratory action.
	exploreScale float64

	ts trainScratch
}

// trainScratch holds Train's reusable state: one nn.Scratch arena per
// network and the batch-shaped buffers around them, so a warm Train
// step performs no heap allocation. Every buffer is fully overwritten
// before it is read.
type trainScratch struct {
	policy, policyT, value, valueT *nn.Scratch

	mse     nn.MSE
	batch   []replay.Experience
	prio    []float64
	targets []float64
	clamped []bool

	s, in, act, dRaw, up mat2D
}

// mat2D is a reusable matrix: a tensor header over a backing slice that
// grows only when a larger shape is requested.
type mat2D struct {
	t    tensor.Tensor
	data []float64
}

// shape rebinds m to (rows, cols). Contents are unspecified.
func (m *mat2D) shape(rows, cols int) *tensor.Tensor {
	if cap(m.data) < rows*cols {
		m.data = make([]float64, rows*cols)
	}
	return m.t.Bind2D(m.data[:rows*cols], rows, cols)
}

// reprioChunk bounds the rows of one batched reprioritize forward, so
// the value network's arena stays small however full the buffer is.
// Per-row results do not depend on the batch size (the GEMM kernels'
// k-ascending contract), so chunking cannot change a priority.
const reprioChunk = 256

// NewAgent builds an agent from the configuration.
func NewAgent(cfg Config) *Agent {
	cfg.Validate()
	r := rng.New(cfg.Seed)
	a := &Agent{
		cfg:     cfg,
		policy:  nn.NewPolicyMLP(r.Split(), cfg.StateDim(), cfg.K, cfg.Hidden),
		policyT: nn.NewPolicyMLP(r.Split(), cfg.StateDim(), cfg.K, cfg.Hidden),
		value:   nn.NewValueMLP(r.Split(), cfg.StateDim(), cfg.ActionDim(), cfg.Hidden),
		valueT:  nn.NewValueMLP(r.Split(), cfg.StateDim(), cfg.ActionDim(), cfg.Hidden),
		Buffer:  replay.New(cfg.BufferCap, r.Split()),
		rng:     r,

		exploreScale: 1,
	}
	a.ts.policy, a.ts.policyT = nn.NewScratch(), nn.NewScratch()
	a.ts.value, a.ts.valueT = nn.NewScratch(), nn.NewScratch()
	a.popt = nn.NewAdam(cfg.PolicyLR)
	a.vopt = nn.NewAdam(cfg.ValueLR)
	a.popt.MaxGradNorm = cfg.MaxGradNorm
	a.vopt.MaxGradNorm = cfg.MaxGradNorm
	// Targets start as exact copies of the mains (Algorithm 1 input).
	a.policyT.CopyFrom(a.policy)
	a.valueT.CopyFrom(a.value)
	return a
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// BuildState assembles the 3K state of §3.3.2 from the per-client
// global-model losses (l_b), local-model losses (l_a) and sample counts.
// With NormalizeState, losses are scaled by 1/(1+mean(l_b)) and counts
// become fractions of the round total.
func (a *Agent) BuildState(lossesBefore, lossesAfter []float64, sampleCounts []int) []float64 {
	return BuildState(a.cfg, lossesBefore, lossesAfter, sampleCounts)
}

// BuildState is the package-level form of Agent.BuildState, usable by
// environments that simulate the server without holding an agent.
func BuildState(cfg Config, lossesBefore, lossesAfter []float64, sampleCounts []int) []float64 {
	k := cfg.K
	if len(lossesBefore) != k || len(lossesAfter) != k || len(sampleCounts) != k {
		panic(fmt.Sprintf("core: BuildState expects %d clients, got %d/%d/%d",
			k, len(lossesBefore), len(lossesAfter), len(sampleCounts)))
	}
	s := make([]float64, 3*k)
	copy(s[:k], lossesBefore)
	copy(s[k:2*k], lossesAfter)
	total := 0
	for _, n := range sampleCounts {
		total += n
	}
	for i, n := range sampleCounts {
		if cfg.NormalizeState && total > 0 {
			s[2*k+i] = float64(n) / float64(total)
		} else {
			s[2*k+i] = float64(n)
		}
	}
	if cfg.NormalizeState {
		scale := 1 / (1 + mathx.Mean(lossesBefore))
		for i := 0; i < 2*k; i++ {
			s[i] *= scale
		}
	}
	return s
}

// actionTransform converts raw policy outputs (batch, 2K) into
// constrained actions written to act (same shape), recording in clamped
// (batch·K, or nil when no backprop follows) the chain needed for
// backprop: μ_k = raw_k; σ_k = min(softplus(raw_{K+k}), β·|μ_k|).
func (a *Agent) actionTransform(raw, act *tensor.Tensor, clamped []bool) {
	k := a.cfg.K
	for i := 0; i < raw.Rows(); i++ {
		rr, ar := raw.Row(i), act.Row(i)
		for j := 0; j < k; j++ {
			mu := rr[j]
			ar[j] = mu
			sp := mathx.Softplus(rr[k+j])
			bound := a.cfg.Beta * math.Abs(mu)
			clamp := sp > bound
			if clamp {
				ar[k+j] = bound
			} else {
				ar[k+j] = sp
			}
			if clamped != nil {
				clamped[i*k+j] = clamp
			}
		}
	}
}

// actionBackward chains dQ/dAction to dQ/dRaw (written to dRaw) given
// the transform record. dIn is the value network's input gradient; its
// action columns start at StateDim.
func (a *Agent) actionBackward(raw, dIn *tensor.Tensor, clamped []bool, dRaw *tensor.Tensor) {
	k, sd := a.cfg.K, a.cfg.StateDim()
	for i := 0; i < raw.Rows(); i++ {
		rr, da, dr := raw.Row(i), dIn.Row(i)[sd:], dRaw.Row(i)
		for j := 0; j < k; j++ {
			dMu, dSigma := da[j], da[k+j]
			dr[j] = dMu
			if clamped[i*k+j] {
				// σ = β·|μ|: gradient flows into μ.
				sign := 1.0
				if rr[j] < 0 {
					sign = -1
				}
				dr[j] += dSigma * a.cfg.Beta * sign
				dr[k+j] = 0
			} else {
				// σ = softplus(raw): d softplus = sigmoid.
				dr[k+j] = dSigma / (1 + math.Exp(-rr[k+j]))
			}
		}
	}
}

// Act runs the main policy on one state and returns the constrained
// action (K means followed by K standard deviations). With explore,
// Gaussian noise ε ~ N(0, ExploreStd²) is added to the raw policy output
// before the constraint (Algorithm 2 line 14).
func (a *Agent) Act(state []float64, explore bool) []float64 {
	if len(state) != a.cfg.StateDim() {
		panic(fmt.Sprintf("core: Act state length %d, want %d", len(state), a.cfg.StateDim()))
	}
	x := tensor.FromSlice(append([]float64(nil), state...), 1, len(state))
	raw := a.policy.Forward(x, false)
	if explore && a.cfg.ExploreStd > 0 {
		std := a.cfg.ExploreStd * a.exploreScale
		for i := range raw.Data {
			raw.Data[i] += a.rng.Normal(0, std)
		}
		a.exploreScale *= a.cfg.ExploreDecay
	}
	act := tensor.New(1, a.cfg.ActionDim())
	a.actionTransform(raw, act, nil)
	return act.Data
}

// ImpactFactors converts an action into the aggregation weights of
// Eq. 5: α = softmax(z), z_k ~ N(μ_k, σ_k) when explore, z_k = μ_k
// otherwise. The result is a convex combination (non-negative, sums to 1).
func (a *Agent) ImpactFactors(action []float64, explore bool) []float64 {
	k := a.cfg.K
	if len(action) != 2*k {
		panic(fmt.Sprintf("core: ImpactFactors action length %d, want %d", len(action), 2*k))
	}
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		if explore {
			z[i] = a.rng.Normal(action[i], action[k+i])
		} else {
			z[i] = action[i]
		}
	}
	return mathx.Softmax(z)
}

// ImpactFactorsWithPrior converts an action into aggregation weights
// anchored on a prior: α = softmax(z + log prior), z_k ~ N(μ_k, σ_k)
// when explore (z_k = μ_k otherwise). A zero action reproduces the prior
// exactly, so the policy learns *deviations* from it — the residual
// parameterization the FL aggregator uses with the FedAvg prior at
// compressed round budgets (DESIGN.md "compressed-horizon adaptations").
func (a *Agent) ImpactFactorsWithPrior(action, prior []float64, explore bool) []float64 {
	k := a.cfg.K
	if len(action) != 2*k || len(prior) != k {
		panic(fmt.Sprintf("core: ImpactFactorsWithPrior lengths %d/%d, want %d/%d",
			len(action), len(prior), 2*k, k))
	}
	z := make([]float64, k)
	for i := 0; i < k; i++ {
		if explore {
			z[i] = a.rng.Normal(action[i], action[k+i])
		} else {
			z[i] = action[i]
		}
		p := prior[i]
		if p < 1e-12 {
			p = 1e-12
		}
		z[i] += math.Log(p)
	}
	return mathx.Softmax(z)
}

// Reward computes Eq. 7 (negated for maximization; see DESIGN.md):
// r = −( mean(l_b) + w·(max(l_b) − min(l_b)) ) over the next round's
// global-model losses.
func (a *Agent) Reward(nextLossesBefore []float64) float64 {
	return RewardOf(a.cfg, nextLossesBefore)
}

// RewardOf is the package-level form of Agent.Reward (Eq. 7, negated).
func RewardOf(cfg Config, nextLossesBefore []float64) float64 {
	if len(nextLossesBefore) == 0 {
		panic("core: Reward with no losses")
	}
	avg := mathx.Mean(nextLossesBefore)
	gap := mathx.Max(nextLossesBefore) - mathx.Min(nextLossesBefore)
	return -(avg + cfg.RewardGapWeight*gap)
}

// Observe stores a non-terminal transition in the buffer with its
// current TD error as priority. It reports whether the experience was
// accepted (non-finite data is rejected). The FL aggregation task is a
// continuing one; episodic environments should use ObserveDone for
// terminal steps.
func (a *Agent) Observe(s, act []float64, r float64, s2 []float64) bool {
	return a.observe(s, act, r, s2, false)
}

// ObserveDone stores a terminal transition: the TD target is r alone,
// without bootstrapping through s′.
func (a *Agent) ObserveDone(s, act []float64, r float64, s2 []float64) bool {
	return a.observe(s, act, r, s2, true)
}

func (a *Agent) observe(s, act []float64, r float64, s2 []float64, done bool) bool {
	target := r
	if !done {
		target += a.cfg.Gamma * a.QValue(s2, act)
	}
	prior := target - a.QValue(s, act)
	return a.Buffer.Add(replay.Experience{
		S:     append([]float64(nil), s...),
		A:     append([]float64(nil), act...),
		R:     r,
		S2:    append([]float64(nil), s2...),
		Done:  done,
		Prior: math.Abs(prior),
	})
}

// ReadyToTrain reports whether the buffer has reached the warmup fill
// ("if D is sufficient", Algorithm 2 line 19).
func (a *Agent) ReadyToTrain() bool { return a.Buffer.Len() >= a.cfg.WarmupExperiences }

// QValue evaluates the main value network on one (state, action) pair.
func (a *Agent) QValue(s, act []float64) float64 {
	in := make([]float64, 0, len(s)+len(act))
	in = append(in, s...)
	in = append(in, act...)
	x := tensor.FromSlice(in, 1, len(in))
	return a.value.Forward(x, false).At(0, 0)
}

// stateOf returns the experience's next state s′ when next, else s.
func stateOf(e replay.Experience, next bool) []float64 {
	if next {
		return e.S2
	}
	return e.S
}

// fillInput writes the value-network input rows [s | act] of the batch
// into the reusable input matrix: s per stateOf, act from acts when
// non-nil, else each experience's stored action A.
func (a *Agent) fillInput(batch []replay.Experience, next bool, acts *tensor.Tensor) *tensor.Tensor {
	sd := a.cfg.StateDim()
	in := a.ts.in.shape(len(batch), sd+a.cfg.ActionDim())
	for i, e := range batch {
		row := in.Row(i)
		copy(row[:sd], stateOf(e, next))
		if acts != nil {
			copy(row[sd:], acts.Row(i))
		} else {
			copy(row[sd:], e.A)
		}
	}
	return in
}

// states writes each experience's state (per stateOf) into the rows of
// the reusable state matrix.
func (a *Agent) states(batch []replay.Experience, next bool) *tensor.Tensor {
	s := a.ts.s.shape(len(batch), a.cfg.StateDim())
	for i, e := range batch {
		copy(s.Row(i), stateOf(e, next))
	}
	return s
}

// tdErrors returns every buffered experience's TD error
// r + γ·Q(s′, a) − Q(s, a) under the current value network, in buffer
// order (Algorithm 1 lines 1–2), from two batched value-network
// forwards per reprioChunk rows.
func (a *Agent) tdErrors() []float64 {
	ts := &a.ts
	all := a.Buffer.All()
	ts.prio = slices.Grow(ts.prio[:0], len(all))[:len(all)]
	for c0 := 0; c0 < len(all); c0 += reprioChunk {
		chunk := all[c0:min(c0+reprioChunk, len(all))]
		prio := ts.prio[c0 : c0+len(chunk)]
		q := a.value.ForwardScratch(ts.value, a.fillInput(chunk, true, nil), false)
		for i, e := range chunk {
			prio[i] = e.R
			if !e.Done {
				prio[i] += a.cfg.Gamma * q.Data[i]
			}
		}
		q = a.value.ForwardScratch(ts.value, a.fillInput(chunk, false, nil), false)
		for i := range chunk {
			prio[i] -= q.Data[i]
		}
	}
	return ts.prio
}

// targetQ computes r-independent bootstrap targets y = r + γ·Q′(s′, π′(s′))
// for a batch (Algorithm 1 line 5).
func (a *Agent) targetQ(batch []replay.Experience) []float64 {
	ts := &a.ts
	raw := a.policyT.ForwardScratch(ts.policyT, a.states(batch, true), false)
	act := ts.act.shape(len(batch), a.cfg.ActionDim())
	a.actionTransform(raw, act, nil)
	q := a.valueT.ForwardScratch(ts.valueT, a.fillInput(batch, true, act), false)
	out := ts.targets[:0]
	for i, e := range batch {
		y := e.R
		if !e.Done {
			y += a.cfg.Gamma * q.At(i, 0)
		}
		out = append(out, y)
	}
	ts.targets = out
	return out
}

// Train performs Algorithm 1: reprioritize the buffer by TD error, then
// UpdatesPerRound iterations of value descent, policy ascent and soft
// target updates. It is a no-op until ReadyToTrain. Every forward and
// backward runs on the networks' scratch arenas.
func (a *Agent) Train() {
	if !a.ReadyToTrain() {
		return
	}
	ts := &a.ts
	// Lines 1–2: TD-error priorities under the current networks.
	a.Buffer.Reprioritize(a.tdErrors())
	n := min(a.cfg.BatchSize, a.Buffer.Len())
	if cap(ts.batch) < n {
		ts.batch = make([]replay.Experience, n)
		ts.clamped = make([]bool, n*a.cfg.K)
	}
	batch, clamped := ts.batch[:n], ts.clamped[:n*a.cfg.K]
	for step := 0; step < a.cfg.UpdatesPerRound; step++ {
		a.Buffer.SampleInto(batch)
		targets := a.targetQ(batch)

		// Line 6: value descent on (Q(s,a) − y)².
		pred := a.value.ForwardScratch(ts.value, a.fillInput(batch, false, nil), true)
		ts.mse.Forward(pred, targets)
		a.value.ZeroGrads()
		a.value.BackwardParams(ts.value, ts.mse.Backward())
		a.vopt.Step(a.value)
		a.value.ZeroGrads()

		// Line 7: policy ascent on mean Q(s, π(s)).
		raw := a.policy.ForwardScratch(ts.policy, a.states(batch, false), true)
		act := ts.act.shape(n, a.cfg.ActionDim())
		a.actionTransform(raw, act, clamped)
		a.value.ForwardScratch(ts.value, a.fillInput(batch, false, act), true)
		// dMeanQ/dQ_i = 1/n; ascend → feed −1/n and let Adam minimize.
		up := ts.up.shape(n, 1)
		for i := range up.Data {
			up.Data[i] = -1.0 / float64(n)
		}
		a.value.ZeroGrads()
		dIn := a.value.BackwardScratch(ts.value, up)
		dRaw := ts.dRaw.shape(n, a.cfg.ActionDim())
		a.actionBackward(raw, dIn, clamped, dRaw)
		a.policy.ZeroGrads()
		a.policy.BackwardParams(ts.policy, dRaw)
		a.popt.Step(a.policy)
		a.policy.ZeroGrads()
		a.value.ZeroGrads() // discard critic grads from the policy pass

		// Lines 8–9: ρ-soft target updates.
		a.policyT.SoftUpdateFrom(a.policy, a.cfg.Rho)
		a.valueT.SoftUpdateFrom(a.value, a.cfg.Rho)
	}
}

// PolicyParams exposes the flat policy parameters (used by tests and by
// the two-stage trainer's diagnostics).
func (a *Agent) PolicyParams() []float64 { return a.policy.ParamVector() }

// CopyPolicyFrom copies another agent's policy and value networks into
// this agent (mains and targets). Configurations must agree on K and
// Hidden.
func (a *Agent) CopyPolicyFrom(src *Agent) {
	a.policy.CopyFrom(src.policy)
	a.policyT.CopyFrom(src.policyT)
	a.value.CopyFrom(src.value)
	a.valueT.CopyFrom(src.valueT)
}
