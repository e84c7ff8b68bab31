package fl

import (
	"fmt"
	"math"
	"time"

	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/tensor"
)

// RunConfig configures a federated training run (Algorithm 2).
type RunConfig struct {
	// Rounds is the number of communication rounds T (1000 in §4.1.2;
	// experiments here scale it down).
	Rounds int
	// K is the number of participating clients per round (default 10,
	// §4.1.2). Clamped to the number of non-empty clients.
	K int
	// Local is the client solver configuration.
	Local LocalConfig
	// Factory instantiates the shared model architecture.
	Factory nn.Factory
	// Seed drives the server's randomness (initial weights, client
	// selection).
	Seed uint64
	// Workers bounds the round engine's parallelism: client local
	// training, test-set evaluation and the weight merge all run on one
	// bounded work-stealing pool with this many lanes. When the pool is
	// shared and saturated (an experiment grid occupying every lane),
	// these nested loops enqueue on the pool's deques and are stolen by
	// lanes as they free up, instead of degrading to serial execution.
	// 0 and 1 mean sequential. Results are bit-identical across every
	// Workers value because each client owns its RNG and the engine
	// reduces in deterministic order.
	Workers int
	// Pool optionally supplies a shared execution pool (the experiments
	// grid runner threads one pool through many concurrent cells, and
	// the work-stealing scheduler keeps this run's nested loops parallel
	// even while sibling cells hold every lane). When set it overrides
	// Workers and the caller owns its lifecycle; when nil, the run creates
	// and closes a pool of Workers lanes itself.
	Pool *engine.Pool
	// EvalEvery sets the test-evaluation cadence in rounds (default 1).
	EvalEvery int
	// Selector chooses the participating clients each round; nil means
	// uniform random selection (the paper's setting, §4.1.2).
	Selector Selector
	// Precision selects the federated-state width (see precision.go):
	// F32 makes clients upload float32 weights (half the wire bytes) and
	// the server merge in pure float32 arithmetic, with the global model
	// held on the float32 lattice. The zero value and F64 are bit-for-bit
	// the full-width behavior. Local training always runs in float64;
	// SingleSet (no federated exchange) ignores the knob.
	Precision Precision
	// Attack optionally injects Byzantine faults (see attack.go): a
	// seeded, identity-stable subset of clients corrupts its uploads
	// (or its local training data, for DataAttack implementations)
	// deterministically per (round, client). nil is the benign path,
	// bit-for-bit identical to runs predating the knob. SingleSet (no
	// clients) ignores it.
	Attack AttackModel
	// AttackSeed keys the attack's membership and corruption streams;
	// 0 derives Seed ^ attackSalt, so by default distinct runs see
	// distinct attack traces while an explicit seed replays one trace
	// across many run seeds.
	AttackSeed uint64
	// Merger selects the server-side merge rule (see merger.go). nil
	// means the default impact-factor convex combination, byte-identical
	// to the historical Aggregate path; Median/TrimmedMean/Krum trade
	// the aggregator's weighting for Byzantine robustness (the
	// aggregator still runs — its decision timings stay comparable —
	// but an order-statistic merger ignores the resulting factors).
	Merger Merger
	// Quarantine configures the server-ingress gate applied to client
	// uploads before they reach the aggregator (see QuarantineConfig).
	// The zero value screens non-finite uploads only.
	Quarantine QuarantineConfig
}

// QuarantineConfig is the server's upload-ingress gate: rather than
// folding a poisoned vector into the global model (one NaN coordinate
// contaminates everything), offending uploads are dropped from the
// round's merge cohort and counted in RoundMetrics.Quarantined. The
// gate never panics mid-run — that split is deliberate: Aggregate and
// friends panic on non-finite input (library misuse: the caller was
// supposed to screen), while the round loop quarantines and continues
// (runtime fault: a fault model or a diverging client produced the
// vector). If every upload of a round is quarantined the global model
// simply carries over unchanged.
type QuarantineConfig struct {
	// DisableFiniteCheck turns off the non-finite (NaN/±Inf) screen.
	// The zero value keeps it on — benign runs are unaffected because
	// the screen only reads.
	DisableFiniteCheck bool
	// MaxNorm additionally quarantines uploads whose L2 norm exceeds
	// it; 0 disables the norm screen.
	MaxNorm float64
}

// reject reports whether the gate drops u, screening whichever width
// it carries.
func (q QuarantineConfig) reject(u *Update) bool {
	if u.Weights32 != nil {
		return rejectVec(q, u.Weights32)
	}
	return rejectVec(q, u.Weights)
}

// rejectVec applies the finite and norm screens to one upload; the L2
// norm is folded sequentially in f64 at either width.
func rejectVec[E tensor.Elem](q QuarantineConfig, w []E) bool {
	if !q.DisableFiniteCheck && !AllFinite(w) {
		return true
	}
	if q.MaxNorm <= 0 {
		return false
	}
	var s float64
	for _, v := range w {
		x := float64(v)
		s += x * x
	}
	return math.Sqrt(s) > q.MaxNorm
}

// Validate panics on an inconsistent run configuration.
func (c RunConfig) Validate() {
	if c.Rounds <= 0 || c.K <= 0 || c.Factory == nil {
		panic(fmt.Sprintf("fl: invalid run config %+v", c))
	}
	c.Local.Validate()
	if c.EvalEvery < 0 {
		panic("fl: negative EvalEvery")
	}
	if c.Workers < 0 {
		panic("fl: negative Workers")
	}
	c.Precision.Validate()
}

// RoundMetrics captures one communication round's measurements.
type RoundMetrics struct {
	Round int

	// Evaluated reports whether TestAcc/TestLoss were measured this round.
	Evaluated bool
	TestAcc   float64
	TestLoss  float64

	// Client inference-loss statistics over the round's participants,
	// measured on the fresh global model (the Fig. 6 robustness signal).
	ClientLossMean float64
	ClientLossVar  float64
	ClientLossMax  float64
	ClientLossMin  float64

	// Quarantined counts this round's uploads rejected by the ingress
	// gate (non-finite or norm-exploded) and excluded from the merge.
	Quarantined int

	// DecisionTime is the impact-factor computation (the "DRL" bar of
	// Fig. 9); AggTime is the weighted weight merge (the "Aggregation"
	// bar).
	DecisionTime time.Duration
	AggTime      time.Duration
}

// Result is a full training run's record.
type Result struct {
	Method   string
	Rounds   []RoundMetrics
	NumParam int

	// Weights is the final global model's flat parameter vector.
	Weights []float64

	// Accuracy holds the test accuracy at every evaluated round, in
	// percent (0–100), aligned with AccRounds.
	Accuracy  metrics.Series
	AccRounds []int
}

// Best returns the best test accuracy reached (Table 3's reporting rule).
func (r *Result) Best() float64 { return r.Accuracy.Best() }

// Final returns the last evaluated test accuracy.
func (r *Result) Final() float64 { return r.Accuracy.Final() }

// ClientLossMeans returns the per-round mean client inference loss.
func (r *Result) ClientLossMeans() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossMean
	}
	return out
}

// ClientLossVars returns the per-round variance of client inference loss.
func (r *Result) ClientLossVars() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossVar
	}
	return out
}

// MeanDecisionTime averages the aggregator's per-round decision time.
func (r *Result) MeanDecisionTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.DecisionTime
	}
	return total / time.Duration(len(r.Rounds))
}

// MeanAggTime averages the per-round weight-merge time.
func (r *Result) MeanAggTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.AggTime
	}
	return total / time.Duration(len(r.Rounds))
}

// enginePool resolves the run's execution pool: the caller-supplied
// cfg.Pool when set, a freshly created pool of Workers lanes when
// Workers > 1, or nil for sequential runs. When a pool is in play the
// large tensor kernels fan out on the SAME pool as client training and
// evaluation (tensor.SetParallel), so kernel parallelism is
// work-stealing-scheduled with the rest of the round loop instead of
// spawning raw goroutines that oversubscribe the lanes.
// Results are bit-identical with any pool or none, so the
// process-global hook is safe even when concurrent grid cells swap it.
//
// The returned release func must be deferred: for an owned pool it
// uninstalls only our own hook — a concurrent run that installed its
// pool in the meantime keeps it (closed pools are treated as absent by
// the kernels regardless) — and closes the pool. A caller-supplied pool
// is left untouched; its owner manages its lifecycle.
func (c RunConfig) enginePool() (pool *engine.Pool, release func()) {
	if c.Pool == nil && c.Workers > 1 {
		p := engine.New(c.Workers)
		tensor.SetParallel(p)
		return p, func() {
			tensor.ClearParallel(p)
			p.Close()
		}
	}
	if c.Pool != nil {
		tensor.SetParallel(c.Pool)
	}
	return c.Pool, func() {}
}

// RunVirtual executes the synchronous Algorithm 2 over a ClientPool:
// for every round, broadcast the global weights to K selected clients,
// train locally (in parallel on the run's engine pool), compute impact
// factors via the aggregator, merge (Eq. 4), and record metrics. It is
// RunAsync's instant-arrival case — every update arrives at once and
// nothing is dropped, so each round folds exactly the selected cohort —
// and returns the full per-round record.
func RunVirtual(cfg RunConfig, clients *ClientPool, test *dataset.Dataset, agg Aggregator) *Result {
	res, err := RunAsync(AsyncConfig{RunConfig: cfg}, clients, test, agg)
	if err != nil {
		// Unreachable: only a dropping arrival model can starve a round.
		panic(err)
	}
	return res.Result
}

// recorder appends each round's metrics to a Result, evaluating the
// global model on the test set every EvalEvery rounds and at the last
// round (the accuracy cadence every run shares).
type recorder struct {
	res    *Result
	ev     *Evaluator
	test   *dataset.Dataset
	every  int
	rounds int
}

// newRecorder builds the run's recorder. The evaluator's persistent
// lanes serve the sequential case too (nil pool → one lane), so no eval
// path re-allocates its loss scratch per round.
func (c RunConfig) newRecorder(res *Result, test *dataset.Dataset, pool *engine.Pool) *recorder {
	rc := &recorder{res: res, test: test, every: c.EvalEvery, rounds: c.Rounds}
	if rc.every == 0 {
		rc.every = 1
	}
	if test != nil {
		rc.ev = NewEvaluator(c.Factory, c.Seed, pool)
	}
	return rc
}

// record evaluates global when the cadence calls for it and appends m.
func (rc *recorder) record(m RoundMetrics, global []float64) {
	if rc.test != nil && (m.Round%rc.every == 0 || m.Round == rc.rounds-1) {
		loss, acc := rc.ev.Eval(global, rc.test)
		m.Evaluated = true
		m.TestLoss = loss
		m.TestAcc = acc * 100
		rc.res.Accuracy = append(rc.res.Accuracy, m.TestAcc)
		rc.res.AccRounds = append(rc.res.AccRounds, m.Round)
	}
	rc.res.Rounds = append(rc.res.Rounds, m)
}

// trainCohort runs one dispatch cohort's local training: every selected
// eligible index is checked out of the pool, trained against the
// broadcast global vector, and checked back in.
//
// When a pool is available and the selection is distinct, every identity
// is bound to its own slot before the fan-out, the slots run in
// parallel, and all are released after the barrier — checkout/checkin
// stay single-threaded. The sequential path doubles as the safety net
// for a custom Selector that violates the distinct-indices contract,
// where two tasks would otherwise share one client's model and RNG: one
// slot is checked out and returned per iteration, so a duplicated
// identity resumes the RNG stream its earlier occurrence advanced.
//
// updates, slots and seen are caller-owned scratch of length (capacity
// for seen) at least len(selected); updates[:len(selected)] is filled in
// selection order.
//
// A non-nil attack runtime corrupts the cohort in two places, both
// order-invariant: data poisoning wraps each malicious client's shard
// during the single-threaded checkout (and unwraps it before checkin),
// and weight corruption rewrites each finished update inside the
// fan-out — a pure function of (round, client id), so any lane may run
// it. atk == nil compiles down to the historical benign path.
func trainCohort(pop *ClientPool, selected []int, global []float64, lc LocalConfig, prec Precision, pool *engine.Pool, round int, atk *attackRuntime, updates []Update, slots []*Client, seen map[int]struct{}) {
	var orig []dataset.Data
	if atk != nil && atk.data != nil {
		orig = make([]dataset.Data, len(selected))
	}
	if pool != nil && len(selected) > 1 && distinctInto(seen, selected) {
		for i, ci := range selected {
			slots[i] = pop.checkout(i, ci)
			if orig != nil {
				orig[i] = poisonData(atk, slots[i])
			}
		}
		pool.For(len(selected), func(i int) {
			updates[i] = slots[i].run(global, lc, prec)
			if atk != nil && atk.malicious(updates[i].ClientID) {
				atk.corrupt(round, global, &updates[i])
			}
		})
		for i := range selected {
			if orig != nil && orig[i] != nil {
				slots[i].Data = orig[i]
			}
			pop.checkin(i, slots[i])
		}
		return
	}
	for i, ci := range selected {
		c := pop.checkout(0, ci)
		if orig != nil {
			orig[i] = poisonData(atk, c)
		}
		updates[i] = c.run(global, lc, prec)
		if atk != nil && atk.malicious(updates[i].ClientID) {
			atk.corrupt(round, global, &updates[i])
		}
		if orig != nil && orig[i] != nil {
			c.Data = orig[i]
		}
		pop.checkin(0, c)
	}
}

// poisonData swaps a malicious client's shard for its poisoned wrapper
// and returns the original for restoration (nil for honest clients).
func poisonData(atk *attackRuntime, c *Client) dataset.Data {
	if !atk.malicious(c.ID) {
		return nil
	}
	orig := c.Data
	c.Data = atk.data.CorruptData(orig)
	return orig
}

// distinctInto reports whether all indices differ (the Selector
// contract; verified before sharing clients across pool lanes). seen is
// caller-owned scratch, cleared on entry.
func distinctInto(seen map[int]struct{}, idx []int) bool {
	clear(seen)
	for _, i := range idx {
		if _, dup := seen[i]; dup {
			return false
		}
		seen[i] = struct{}{}
	}
	return true
}

// SingleSet trains on the concatenation of all client data in one place
// (the reference upper bound of §4.1): per "round" the model runs the
// same local-solver budget over the combined dataset, and the test
// accuracy is recorded on the same cadence as the federated runs. It
// honors Workers/Pool exactly like RunVirtual — the tensor kernels and
// the test evaluation fan out on the same engine — so its timings are
// comparable with the federated runs; results are bit-identical at any
// worker count.
func SingleSet(cfg RunConfig, all *dataset.Dataset, test *dataset.Dataset) *Result {
	cfg.Validate()
	if all == nil || all.N == 0 {
		panic("fl: SingleSet with no data")
	}
	pool, release := cfg.enginePool()
	defer release()
	client := NewClient(0, all, cfg.Factory, cfg.Seed+0xace)
	serverModel := cfg.Factory(cfg.Seed)
	global := serverModel.ParamVector()
	res := &Result{Method: "SingleSet", NumParam: len(global)}
	rec := cfg.newRecorder(res, test, pool)
	for round := 0; round < cfg.Rounds; round++ {
		u := client.Run(global, cfg.Local)
		global = u.Weights
		rec.record(RoundMetrics{
			Round:          round,
			ClientLossMean: u.LossBefore,
			ClientLossMax:  u.LossBefore,
			ClientLossMin:  u.LossBefore,
		}, global)
	}
	res.Weights = global
	return res
}

// BuildClients splits a dataset by an assignment's client index lists
// and wraps each shard in a Client (deterministic per seed and client
// ID). Shards are zero-copy views into d — client memory is O(total
// indices), not O(total samples) — so d must stay immutable while the
// clients train, which the run loop guarantees (training only reads).
func BuildClients(d *dataset.Dataset, indices [][]int, factory nn.Factory, seed uint64) []*Client {
	clients := make([]*Client, len(indices))
	for i, idx := range indices {
		clients[i] = NewClient(i, d.View(idx), factory, clientSeed(seed, i))
	}
	return clients
}
